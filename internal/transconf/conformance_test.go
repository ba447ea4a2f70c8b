package transconf

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/check"
	"repro/internal/obs/collector"
	"repro/internal/par"
	"repro/internal/par/nettrans"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// Child-process environment: when set, the test binary is one worker
// rank of a conformance job instead of the test driver.
const (
	envRank     = "TRANSCONF_RANK"
	envSize     = "TRANSCONF_SIZE"
	envNet      = "TRANSCONF_NET"
	envRegistry = "TRANSCONF_REGISTRY"
)

// Timing constants are sized for the race detector's ~10x slowdown: a
// lease short enough to make SIGKILL recovery quick but long enough
// that a healthy worker's slowest instrumented batch never exceeds it
// (a falsely fired worker is never re-admitted, and firing all of
// them aborts the run).
const (
	jobSize  = 4
	jobEpoch = 17
	lease    = 1500 * time.Millisecond
	liveness = 4 * time.Second
)

func TestMain(m *testing.M) {
	if os.Getenv(envRank) != "" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

// workload synthesizes the fixed conformance read set: a
// repeat-bearing genome every rank regenerates identically, sized so
// clustering is a real multi-round exchange on every rank.
func workload() []*seq.Fragment {
	rng := rand.New(rand.NewSource(99))
	g := simulate.NewGenome(rng, "g", simulate.GenomeConfig{
		Length:  20000,
		Repeats: []simulate.RepeatFamily{{Length: 300, Copies: 6, Divergence: 0.02}},
	})
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 200
	rc.LenSD = 30
	rc.VectorProb = 0
	return simulate.SampleWGS(rng, g, 4.0, rc, "r")
}

// jobParallelConfig is the one protocol configuration every backend
// runs. It keeps the default UseSsend: true on purpose: a transport
// makes the machine survivable, and that alone must switch the worker
// reports to eager sends.
func jobParallelConfig(tr *obs.Tracer) cluster.ParallelConfig {
	pcfg := cluster.DefaultParallelConfig(jobSize)
	pcfg.LeaseTimeout = lease
	pcfg.BatchSize = 16
	pcfg.Trace = tr
	return pcfg
}

func newTransport(rank int, network, registry string) (*nettrans.Transport, error) {
	return nettrans.New(nettrans.Config{
		Rank:        rank,
		Size:        jobSize,
		Network:     network,
		RegistryDir: registry,
		Epoch:       jobEpoch,
		Liveness:    liveness,
	})
}

// eventsPath is the job's -events-out: every rank streams to
// eventsPath.rank<r>, the naming asmcluster uses.
func eventsPath(registry string) string {
	return filepath.Join(registry, "events.json")
}

func dumpPath(registry string, rank int) string {
	return fmt.Sprintf("%s.rank%d", eventsPath(registry), rank)
}

// startStream streams rank's tracer to its events file.
func startStream(registry string, rank int, tr *obs.Tracer) *collector.Reporter {
	return collector.StartReporter(collector.ReporterConfig{
		Path: dumpPath(registry, rank), Run: jobEpoch, Rank: rank, Size: jobSize, Job: "transconf", Tracer: tr,
	})
}

// childMain is one worker rank: regenerate the workload, cluster
// through the socket transport, and stream its events to the file the
// driver reads. The rank also appends a record the moment it enters
// clustering, so a reader of its stream sees that phase at once (the
// live smoke test kills it then).
func childMain() {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "transconf child:", err)
		os.Exit(1)
	}
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		die(err)
	}
	registry := os.Getenv(envRegistry)
	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	rep := startStream(registry, rank, tr)
	go func() {
		if awaitClustering(tr, rank, nil) {
			rep.Flush()
		}
	}()
	t, err := newTransport(rank, os.Getenv(envNet), registry)
	if err != nil {
		rep.Close(false, err.Error())
		die(err)
	}
	_, _, exit, err := cluster.ParallelRank(store, cluster.DefaultConfig(), jobParallelConfig(tr), rank, t)
	if cerr := t.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		rep.Close(false, err.Error())
		die(err)
	}
	if err := rep.Close(exit.OK, exit.Reason); err != nil {
		die(err)
	}
	if !exit.OK {
		die(fmt.Errorf("rank %d did not finish OK: %s", rank, exit.Reason))
	}
	os.Exit(0)
}

// serialLabels is the canonical partition every backend must produce.
func serialLabels(store *seq.Store) []int {
	return cluster.PartitionLabels(cluster.Serial(store, cluster.DefaultConfig()))
}

// spawnChildren re-executes this test binary as worker ranks
// 1..jobSize-1, each in a process group of its own, with cleanup that
// SIGKILLs every group and reaps whatever is still running — also
// after a t.Fatal.
func spawnChildren(t *testing.T, network, registry string) map[int]*exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	children := make(map[int]*exec.Cmd, jobSize-1)
	for r := 1; r < jobSize; r++ {
		cmd := exec.Command(exe, "-transconf-child")
		cmd.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(r),
			envSize+"="+strconv.Itoa(jobSize),
			envNet+"="+network,
			envRegistry+"="+registry,
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn rank %d: %v", r, err)
		}
		children[r] = cmd
		t.Cleanup(func() {
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
			_ = cmd.Wait()
		})
	}
	return children
}

// killOnceClustering SIGKILLs p the moment rank 0's trace enters the
// clustering phase. Every worker is then past the GST barrier, owes the
// master its first report and cannot finish before the master says so,
// so the kill lands mid-phase however fast or slow the run is — no
// delay to tune against the host. It gives up when stop closes.
func killOnceClustering(tr *obs.Tracer, p *os.Process, stop <-chan struct{}) {
	if awaitClustering(tr, 0, stop) {
		_ = p.Signal(syscall.SIGKILL)
	}
}

// awaitClustering reports, as soon as it happens, that rank's trace
// entered the clustering phase; false when stop closed first.
func awaitClustering(tr *obs.Tracer, rank int, stop <-chan struct{}) bool {
	var cursor uint64
	for {
		var evs []obs.Event
		evs, cursor, _ = tr.EventsSince(rank, cursor)
		if enteredClustering(evs) {
			return true
		}
		select {
		case <-stop:
			return false
		case <-time.After(time.Millisecond):
		}
	}
}

func enteredClustering(evs []obs.Event) bool {
	for _, e := range evs {
		if e.Kind == obs.EvPhaseEnter && e.A == obs.PhaseCluster {
			return true
		}
	}
	return false
}

// runJob drives one multi-process clustering job: worker ranks are
// re-executions of this test binary, rank 0 runs in-test. killRank,
// when ≥ 1, is SIGKILLed as clustering begins. It returns the
// master's partition labels, the run statistics, and the merged
// per-process events streams (the killed rank's is left out, which
// the merge marks as truncated).
func runJob(t *testing.T, network string, killRank int) ([]int, cluster.Stats, *obs.Dump) {
	t.Helper()
	registry := t.TempDir()
	children := spawnChildren(t, network, registry)

	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	if killRank >= 1 {
		finished := make(chan struct{})
		defer close(finished)
		go killOnceClustering(tr, children[killRank].Process, finished)
	}
	trans, err := newTransport(0, network, registry)
	if err != nil {
		t.Fatal(err)
	}
	res, _, exit, err := cluster.ParallelRank(store, cluster.DefaultConfig(), jobParallelConfig(tr), 0, trans)
	if cerr := trans.Close(); err == nil && cerr != nil {
		t.Errorf("transport close: %v", cerr)
	}
	if err != nil {
		t.Fatalf("master rank failed: %v", err)
	}
	if !exit.OK {
		t.Fatalf("master did not finish OK: %s", exit.Reason)
	}

	// Reap the workers: every rank except a killed one must exit 0.
	for r, cmd := range children {
		werr := cmd.Wait()
		delete(children, r)
		if r == killRank {
			continue
		}
		if werr != nil {
			t.Errorf("rank %d exited with error: %v", r, werr)
		}
	}

	dumps := []*obs.Dump{tr.Dump()}
	for r := 1; r < jobSize; r++ {
		if r == killRank {
			continue
		}
		s, err := obs.ReadStreamFile(dumpPath(registry, r))
		if err != nil {
			t.Fatalf("rank %d events stream: %v", r, err)
		}
		dumps = append(dumps, s.Dump)
	}
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.PartitionLabels(res), res.Stats, merged
}

// assertCanonical checks the partition oracle against the serial
// transitive closure and the causal invariants over the merged trace.
func assertCanonical(t *testing.T, got []int, merged *obs.Dump) {
	t.Helper()
	want := serialLabels(seq.NewStore(workload()))
	if !cluster.SamePartition(got, want) {
		t.Fatalf("partition oracle: transport run diverged from the serial transitive closure (%d fragments)", len(want))
	}
	sum, err := check.Dump(merged, nil)
	if err != nil {
		t.Fatalf("trace oracle over merged per-process dumps: %v", err)
	}
	if sum.Events == 0 {
		t.Fatal("merged trace is empty")
	}
	// Worker reports are the protocol's only rendezvous sends, and the
	// lease protocol must never block on one (a fired worker's last
	// report would wedge): no ssend span on a user tag.
	for _, rd := range merged.Ranks {
		for _, e := range rd.Events {
			if (e.Kind == obs.EvSsendBegin || e.Kind == obs.EvSsendEnd) && e.B >= 0 {
				t.Fatalf("rank %d traced a rendezvous send on tag %d: reports must be eager on a survivable machine", rd.Rank, e.B)
			}
		}
	}
}

// TestConformanceInproc anchors the suite: the in-process backend
// running the same protocol configuration on a survivable machine (an
// empty fault plan stands in for the transport) must produce the
// canonical partition and pass the stream invariants.
func TestConformanceInproc(t *testing.T) {
	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	pcfg := jobParallelConfig(tr)
	pcfg.Faults = &par.FaultPlan{}
	res, ph, err := cluster.Parallel(store, cluster.DefaultConfig(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cluster.SamePartition(cluster.PartitionLabels(res), serialLabels(store)) {
		t.Fatal("partition oracle: in-process survivable run diverged from serial")
	}
	okRank := func(r int) bool { return ph.Exits == nil || ph.Exits[r].OK }
	if _, err := check.Stream(tr, okRank); err != nil {
		t.Fatalf("trace oracle: %v", err)
	}
}

func TestConformanceTCP(t *testing.T) {
	labels, _, merged := runJob(t, "tcp", 0)
	assertCanonical(t, labels, merged)
}

func TestConformanceUnix(t *testing.T) {
	labels, _, merged := runJob(t, "unix", 0)
	assertCanonical(t, labels, merged)
}

// TestConformanceSIGKILL kills a worker process mid-phase; the lease
// protocol must detect the silent rank, re-execute its work, and
// still converge on the canonical partition. The killed rank's stream
// is left out — the merge marks it truncated and the remaining streams
// must still satisfy the causal invariants.
func TestConformanceSIGKILL(t *testing.T) {
	labels, stats, merged := runJob(t, "tcp", 2)
	assertCanonical(t, labels, merged)
	if stats.WorkersLost < 1 {
		t.Errorf("kill landed after the run finished: WorkersLost=%d (expected ≥ 1); partition still canonical", stats.WorkersLost)
	}
}
