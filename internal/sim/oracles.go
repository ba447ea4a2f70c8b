package sim

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/pipeline"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/suffixtree"
)

// Result is one case's verdict: the empty Failures slice means every
// oracle held. Counters summarize what the fault model actually did,
// so a campaign report can show the explored surface.
type Result struct {
	Case     Case
	Failures []string

	WorkersLost int64
	Retransmits int
	Quarantined int
	// GSTCrashed: the GST oracle's build lost its gstcrash target — a
	// rank really died during GST construction.
	GSTCrashed bool
	Wall       time.Duration

	// Trace is the clustering run's tracer, kept so a replayed case
	// can dump its raw events (simrunner -events-out).
	Trace *obs.Tracer
}

// Failed reports whether any oracle rejected the case.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

func (r *Result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// leaseTimeout is the campaign's master-side lease. Long enough that
// healthy-but-slow workers on a loaded host are rarely fired, short
// enough that crash and drop cases recover in well under a second.
const leaseTimeout = 400 * time.Millisecond

// RunCase executes one case end to end and checks every oracle:
//
//  1. Partition: the parallel clustering under the case's faults and
//     schedule equals the serial union–find transitive closure.
//  2. GST: the union of the survivors' fault-tolerant GST forests, each
//     dead rank's range swept as its adopter would, equals the serial
//     generalized suffix tree; a resident build's crash target died.
//  3. Resume: the checkpointed pipeline rolled back to the case's
//     phase boundary and resumed reproduces the uninterrupted run's
//     contigs byte for byte.
//  4. Quarantine: exactly the clusters the case poisons are
//     quarantined, no more, no fewer.
//  5. Trace: the clustering run's event streams satisfy the runtime
//     invariants (monotone modeled clocks, balanced spans on OK
//     ranks, no receive without a send, causal sequence numbers).
//  6. Causal DAG: the same streams stitch into a well-formed causal
//     DAG — every message edge resolves, no cycles — and the derived
//     critical path equals the synchronized makespan.
func RunCase(c Case) Result {
	start := time.Now()
	res := Result{Case: c}
	frags := c.frags()
	store := seq.NewStore(frags)
	ccfg := cluster.DefaultConfig()
	want := cluster.PartitionLabels(cluster.Serial(store, ccfg))

	// Every serial reference above runs on the in-memory store; when
	// the case draws the out-of-core axis the systems under test run
	// on the disk-backed store with a spilling GST instead (oracle 7).
	sut := seq.Seqs(store)
	sutCfg := ccfg
	if c.StoreDisk {
		dir, err := os.MkdirTemp("", "simstore-*")
		if err != nil {
			res.failf("store oracle: store dir: %v", err)
			return res
		}
		defer os.RemoveAll(dir)
		disk, err := diskstore.Create(dir, store.Fragments(), diskstore.Options{CacheBytes: 32 << 10})
		if err != nil {
			res.failf("store oracle: create: %v", err)
			return res
		}
		defer disk.Close()
		res.checkStore(c, store, disk)
		sut = disk
		sutCfg.MemBudget = c.MemBudget
	}

	res.checkClustering(c, sut, sutCfg, want)
	res.checkGST(c, sut, sutCfg)
	res.checkPipeline(c, frags, ccfg)
	res.Wall = time.Since(start)
	return res
}

// checkStore spot-checks oracle 7's foundation: the disk store must
// serve byte-identical sequences for seed-chosen IDs across the full
// 2n range (both orientations).
func (r *Result) checkStore(c Case, mem *seq.Store, disk *diskstore.Store) {
	if disk.N() != mem.N() || disk.NumSeqs() != mem.NumSeqs() || disk.TotalBases() != mem.TotalBases() {
		r.failf("store oracle: shape mismatch: disk (%d,%d,%d) vs mem (%d,%d,%d)",
			disk.N(), disk.NumSeqs(), disk.TotalBases(), mem.N(), mem.NumSeqs(), mem.TotalBases())
		return
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x0c0c))
	for i := 0; i < 32; i++ {
		sid := rng.Intn(mem.NumSeqs())
		if string(disk.Seq(sid)) != string(mem.Seq(sid)) {
			r.failf("store oracle: sequence %d differs between disk and mem", sid)
			return
		}
		if f := sid % mem.N(); disk.FragName(f) != mem.FragName(f) {
			r.failf("store oracle: name of fragment %d differs between disk and mem", f)
			return
		}
	}
}

// checkClustering runs oracles 1 (partition) and 5 (trace) on one
// parallel clustering run under the case's fault plan and schedule.
func (r *Result) checkClustering(c Case, store seq.Seqs, ccfg cluster.Config, want []int) {
	machine := par.DefaultConfig(c.Ranks)
	if c.ScheduleSeed != 0 {
		machine.Schedule = &par.SchedulePlan{Seed: c.ScheduleSeed}
	}
	tracer := obs.NewTracer(c.Ranks, 1<<16)
	machine.Trace = tracer

	pcfg := cluster.DefaultParallelConfig(c.Ranks)
	pcfg.BatchSize = 16 // many reports per worker: report-indexed kills land
	pcfg.Machine = machine
	pcfg.LeaseTimeout = leaseTimeout
	if c.StoreDisk {
		// Spill sweeps at a tiny budget scan the store twice before
		// the first forest and then read back many segment runs, so a
		// healthy worker's gap between batch reports is long; widen the
		// lease so campaign load never reads as worker death.
		pcfg.LeaseTimeout = 4 * leaseTimeout
	}
	if c.FaultSpec != "" {
		plan, err := cluster.ParseFaults(c.FaultSpec)
		if err != nil {
			r.failf("generator emitted an unparsable fault spec %q: %v", c.FaultSpec, err)
			return
		}
		pcfg.Faults = plan
	}

	cres, ph, err := cluster.Parallel(store, ccfg, pcfg)
	if err != nil {
		r.failf("clustering did not complete under a survivable plan: %v", err)
		return
	}
	if got := cluster.PartitionLabels(cres); !cluster.SamePartition(got, want) {
		r.failf("partition oracle: parallel clustering diverged from the serial transitive closure (%d fragments)", len(want))
	}
	r.WorkersLost = cres.Stats.WorkersLost
	r.Retransmits = ph.GST.TotalRetransmits + ph.Cluster.TotalRetransmits

	r.Trace = tracer

	// Trace and causal DAG oracle: the streams must pass the stream
	// invariants and assemble into an acyclic DAG whose critical path
	// reproduces the synchronized makespan.
	rep, err := analyze.FromTracer(tracer, analyze.Options{TopSpans: 1})
	if err != nil {
		r.failf("trace oracle: %v", err)
		return
	}
	if rep.MakespanSec > 0 {
		if diff := rep.CriticalPath.LengthSec - rep.MakespanSec; diff < -rep.MakespanSec*0.01 || diff > rep.MakespanSec*0.01 {
			r.failf("causal oracle: critical path %.9fs differs from makespan %.9fs by more than 1%%",
				rep.CriticalPath.LengthSec, rep.MakespanSec)
		}
	}
	if rep.MakespanSec < rep.RawMakespanSec-1e-9 {
		r.failf("causal oracle: synchronized makespan %.9fs below raw local makespan %.9fs",
			rep.MakespanSec, rep.RawMakespanSec)
	}
}

// checkGST runs oracle 2: a standalone GST build under the
// GST-meaningful subset of the case's faults (a fault plan is what
// makes the machine survivable); the union of the survivors' forests
// and the dead ranks' swept ranges must carry exactly the serial tree's
// content.
func (r *Result) checkGST(c Case, store seq.Seqs, ccfg cluster.Config) {
	spec := c.gstFaultSpec()
	machine := par.DefaultConfig(c.Ranks)
	if c.ScheduleSeed != 0 {
		machine.Schedule = &par.SchedulePlan{Seed: c.ScheduleSeed}
	}
	var crashTarget = -1
	if spec != "" {
		plan, err := cluster.ParseFaults(spec)
		if err != nil {
			r.failf("generator emitted an unparsable GST fault spec %q: %v", spec, err)
			return
		}
		machine.Faults = plan
		if len(plan.Crashes) > 0 {
			crashTarget = plan.Crashes[0].Rank
		}
	}

	locals := make([]*pgst.Local, c.Ranks)
	_, exits := par.RunStatus(machine, func(pc *par.Comm) {
		locals[pc.Rank()] = pgst.Build(pc, store, pgst.Config{
			W: ccfg.W, MinLen: ccfg.Psi, BatchBytes: 1 << 20, Seed: 7,
			// Out-of-core cases build spilling forests; the union
			// oracle below sweeps them segment by segment.
			SpillBytes: ccfg.MemBudget,
		})
	})
	for rank, e := range exits {
		if !e.OK && rank != crashTarget {
			r.failf("gst oracle: rank %d died without being a crash target: %s", rank, e.Reason)
			return
		}
	}
	// A gstcrash counts all-to-all sends, which only the resident build
	// makes: there the target must die, or the case tests nothing.
	r.GSTCrashed = crashTarget >= 0 && exits[crashTarget].FaultKilled
	if crashTarget >= 0 && ccfg.MemBudget == 0 && !r.GSTCrashed {
		r.failf("gst oracle: crash target %d of a resident build did not die (spec %q)", crashTarget, spec)
		return
	}

	acc := func(sid int32) []byte { return store.Seq(int(sid)) }
	sids := make([]int32, store.NumSeqs())
	for i := range sids {
		sids[i] = int32(i)
	}
	serial := suffixtree.Build(acc, suffixtree.EnumerateSuffixes(acc, sids, ccfg.Psi), ccfg.W)
	if !pgst.UnionSignatureOf(store, locals).Equal(pgst.TreeSignature(serial)) {
		r.failf("gst oracle: union of survivor forests differs from the serial tree (spec %q)", spec)
	}
}

// checkPipeline runs oracles 3 (resume) and 4 (quarantine) on the
// serial checkpointed pipeline.
func (r *Result) checkPipeline(c Case, frags []*seq.Fragment, ccfg cluster.Config) {
	coreCfg := core.DefaultConfig()
	coreCfg.PreprocessEnabled = false // reads are synthesized clean
	coreCfg.Cluster = ccfg
	coreCfg.AssemblyWorkers = 2

	workdir, err := os.MkdirTemp("", "simcase-*")
	if err != nil {
		r.failf("resume oracle: workdir: %v", err)
		return
	}
	defer os.RemoveAll(workdir)
	flags := fmt.Sprintf("sim campaign=%d case=%d", c.Campaign, c.Index)

	ref, err := pipeline.Run(frags, pipeline.Config{Core: coreCfg, Workdir: workdir, Flags: flags})
	if err != nil {
		r.failf("resume oracle: reference run failed: %v", err)
		return
	}

	// Out-of-core cases run the resume oracle on the disk-backed
	// pipeline instead: its contigs must match the in-memory reference
	// byte for byte (oracle 7), and its rollback-resume — which reopens
	// the store the preprocess phase checkpointed, unless rolled back
	// to phase 0 — must reproduce them again.
	sutCfg, sutDir := coreCfg, workdir
	if c.StoreDisk {
		sutCfg.Store = core.StoreConfig{Backend: core.StoreDisk, CacheBytes: 32 << 10}
		sutCfg.Cluster.MemBudget = c.MemBudget
		if sutDir, err = os.MkdirTemp("", "simcase-disk-*"); err != nil {
			r.failf("store oracle: workdir: %v", err)
			return
		}
		defer os.RemoveAll(sutDir)
		dres, err := pipeline.Run(frags, pipeline.Config{Core: sutCfg, Workdir: sutDir, Flags: flags})
		if err != nil {
			r.failf("store oracle: disk-backed pipeline failed: %v", err)
			return
		}
		dres.Close()
		if !sameOutput(ref, dres) {
			r.failf("store oracle: disk-backed pipeline output differs from the in-memory reference")
			return
		}
	}
	if err := pipeline.Rollback(sutDir, c.ResumePhase); err != nil {
		r.failf("resume oracle: rollback to phase %d failed: %v", c.ResumePhase, err)
		return
	}
	resumed, err := pipeline.Run(frags, pipeline.Config{Core: sutCfg, Workdir: sutDir, Resume: true, Flags: flags})
	if err != nil {
		r.failf("resume oracle: resumed run failed: %v", err)
		return
	}
	resumed.Close()
	if !sameOutput(ref, resumed) {
		r.failf("resume oracle: resume from phase boundary %d is not byte-identical", c.ResumePhase)
	}

	// Quarantine oracle: poison a seed-chosen subset of the reference
	// run's clusters and demand exactly that subset is quarantined.
	poison := poisonSet(c, len(ref.Clusters))
	qcfg := coreCfg
	qcfg.AssemblyGuard = &assembly.Guard{
		Retries: 1, Backoff: time.Millisecond,
		FailInject: func(id int) bool { return poison[id] },
	}
	qres, err := core.Run(frags, qcfg)
	if err != nil {
		r.failf("quarantine oracle: poisoned run aborted: %v", err)
		return
	}
	got := map[int]bool{}
	for _, id := range qres.Quarantined() {
		got[id] = true
	}
	r.Quarantined = len(got)
	if len(got) != len(poison) {
		r.failf("quarantine oracle: %d clusters quarantined, %d poisoned", len(got), len(poison))
		return
	}
	for id := range poison {
		if !got[id] {
			r.failf("quarantine oracle: poisoned cluster %d was not quarantined", id)
		}
	}
}

// poisonSet picks the clusters the quarantine oracle poisons — about a
// quarter of them, chosen from the case seed.
func poisonSet(c Case, clusters int) map[int]bool {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5151))
	poison := map[int]bool{}
	for id := 0; id < clusters; id++ {
		if rng.Float64() < 0.25 {
			poison[id] = true
		}
	}
	return poison
}

// sameOutput compares two pipeline results' assembly output — contigs
// and guard outcomes — field by field.
func sameOutput(a, b *core.Result) bool {
	if len(a.Contigs) != len(b.Contigs) || len(a.AssemblyOutcomes) != len(b.AssemblyOutcomes) {
		return false
	}
	for i := range a.Contigs {
		ca, cb := a.Contigs[i], b.Contigs[i]
		if len(ca) != len(cb) {
			return false
		}
		for j := range ca {
			if string(ca[j].Bases) != string(cb[j].Bases) || ca[j].Depth != cb[j].Depth ||
				len(ca[j].Reads) != len(cb[j].Reads) {
				return false
			}
			for k := range ca[j].Reads {
				if ca[j].Reads[k] != cb[j].Reads[k] {
					return false
				}
			}
		}
	}
	for i := range a.AssemblyOutcomes {
		if a.AssemblyOutcomes[i] != b.AssemblyOutcomes[i] {
			return false
		}
	}
	return true
}
