package transconf

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/collector"
	"repro/internal/par"
	"repro/internal/seq"
)

// The live smoke tests (make obs-live-smoke) run the same 4-process
// socket job as the conformance suite, but with every rank streaming
// telemetry to a run collector, and assert the tentpole contract:
// the collector is live and ready mid-run, its final merged trace is
// byte-identical to merging the per-process dump files, and its live
// causal analysis matches the post-hoc one.

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getStatus(t *testing.T, base string) *collector.Status {
	t.Helper()
	code, body := getBody(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d: %s", code, body)
	}
	var st collector.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode /status: %v", err)
	}
	return &st
}

// runLiveJob runs one collector-observed multi-process job and returns
// the master's stats, the collector, its base URL, and the per-process
// dumps post-hoc merging would use (rank → dump; killed ranks absent).
func runLiveJob(t *testing.T, network string, killRank int, cfg collector.Config) (cluster.Stats, *collector.Collector, string, map[int]*obs.Dump) {
	t.Helper()
	registry := t.TempDir()
	cfg.Ranks = jobSize
	cfg.Job = "transconf"
	col := collector.New(cfg)
	srv, err := col.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	base := "http://" + srv.Addr

	children := spawnChildren(t, network, registry, envCollector+"="+base)
	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	if killRank >= 1 {
		// Rank 0 joins only once the collector has heard from the rank
		// to be killed (it reports while waiting at the rendezvous):
		// its death then shows up as a growing heartbeat lag rather
		// than a rank that never reported. The kill itself is ordered
		// by the run, not by a clock: it fires as clustering begins.
		deadline := time.Now().Add(2 * time.Minute)
		for heard := false; !heard; time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("collector never heard from rank %d", killRank)
			}
			for _, row := range getStatus(t, base).Ranks {
				heard = heard || row.Rank == killRank && row.State != collector.StateWaiting
			}
		}
		finished := make(chan struct{})
		defer close(finished)
		go killOnceClustering(tr, children[killRank].Process, finished)
	}

	rep := collector.StartReporter(collector.ReporterConfig{
		URL: base, Rank: 0, Job: "transconf",
		Interval: 50 * time.Millisecond, Tracer: tr,
	})
	trans, err := newTransport(0, network, registry)
	if err != nil {
		t.Fatal(err)
	}

	// Rank 0 runs in a goroutine so the test can poll the collector
	// mid-run, exactly as asmprof URL would.
	type outcome struct {
		stats cluster.Stats
		exit  par.Exit
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		res, _, exit, err := cluster.ParallelRank(store, cluster.DefaultConfig(), jobParallelConfig(tr), 0, trans)
		if cerr := trans.Close(); err == nil && cerr != nil {
			err = cerr
		}
		var stats cluster.Stats
		if res != nil {
			stats = res.Stats
		}
		done <- outcome{stats: stats, exit: exit, err: err}
	}()

	// Mid-run: every rank reports within moments of rendezvous, so
	// /readyz flips to ok while the job is still clustering.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code, _ := getBody(t, base+"/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned ok")
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := getStatus(t, base)
	if st.SeenRanks != jobSize {
		t.Fatalf("mid-run SeenRanks = %d, want %d", st.SeenRanks, jobSize)
	}

	o := <-done
	if o.err != nil {
		rep.Close(nil, false, o.err.Error())
		t.Fatalf("master rank failed: %v", o.err)
	}
	if !o.exit.OK {
		t.Fatalf("master did not finish OK: %s", o.exit.Reason)
	}
	dump0 := tr.Dump()
	if err := rep.Close(dump0, true, ""); err != nil {
		t.Fatalf("final flush: %v", err)
	}

	// Reap the workers; every surviving rank final-flushed on its way
	// out (Close happens before exit).
	for r, cmd := range children {
		werr := cmd.Wait()
		delete(children, r)
		if r != killRank && werr != nil {
			t.Errorf("rank %d exited with error: %v", r, werr)
		}
	}

	dumps := map[int]*obs.Dump{0: dump0}
	for r := 1; r < jobSize; r++ {
		if r == killRank {
			continue
		}
		d, err := obs.ReadDumpFile(dumpPath(registry, r))
		if err != nil {
			t.Fatalf("rank %d events dump: %v", r, err)
		}
		dumps[r] = d
	}
	return o.stats, col, base, dumps
}

// assertMergedBytes: the collector's /events must be byte-identical to
// obs.MergeDumps over the per-process dump files.
func assertMergedBytes(t *testing.T, base string, dumps map[int]*obs.Dump) *obs.Dump {
	t.Helper()
	ordered := make([]*obs.Dump, 0, len(dumps))
	for r := 0; r < jobSize; r++ {
		if d, ok := dumps[r]; ok {
			ordered = append(ordered, d)
		}
	}
	merged, err := obs.MergeDumps(ordered...)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := merged.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	code, got := getBody(t, base+"/events")
	if code != http.StatusOK {
		t.Fatalf("/events = %d", code)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("/events (%d bytes) differs from MergeDumps over the dump files (%d bytes)", len(got), want.Len())
	}
	return merged
}

// assertLiveMatchesPostHoc: the collector's live analysis must
// equal the post-hoc batch analysis (MergeDumps + Analyze) of the same
// inputs, rendered identically. The live path analyzes the streams the
// collector accumulated; the post-hoc path merges the dump files —
// agreement is the convergence contract.
func assertLiveMatchesPostHoc(t *testing.T, col *collector.Collector, merged *obs.Dump) {
	t.Helper()
	// Partial mode: a SIGKILLed rank's lost sends leave unmatched
	// receives in the merged trace, exactly as the live analysis sees
	// them. For a clean run Partial changes nothing.
	want, err := analyze.Analyze(merged, analyze.Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	live, err := col.LiveReport()
	if err != nil {
		t.Fatal(err)
	}
	var liveJSON, postJSON bytes.Buffer
	if err := live.WriteJSON(&liveJSON); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&postJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON.Bytes(), postJSON.Bytes()) {
		t.Fatalf("live analysis diverges from post-hoc over the same merged trace:\nlive: %.400s\npost: %.400s",
			liveJSON.Bytes(), postJSON.Bytes())
	}
}

// TestObsLiveTCP: clean 4-process TCP run under a collector.
func TestObsLiveTCP(t *testing.T) {
	_, col, base, dumps := runLiveJob(t, "tcp", 0, collector.Config{})

	st := getStatus(t, base)
	if !st.Complete || !st.ExitOK {
		t.Fatalf("final status not complete-ok: %+v", st)
	}
	for _, row := range st.Ranks {
		if row.State != collector.StateDone {
			t.Fatalf("rank %d final state = %q, want done", row.Rank, row.State)
		}
		if row.Events == 0 {
			t.Fatalf("rank %d shows no events", row.Rank)
		}
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after clean completion = %d", code)
	}
	merged := assertMergedBytes(t, base, dumps)
	assertLiveMatchesPostHoc(t, col, merged)
}

// partialStream extracts one rank's stream from the collector's live
// view as a standalone dump — the only record of a killed rank's
// events, which died with the process before any dump file was
// written.
func partialStream(t *testing.T, col *collector.Collector, rank int) *obs.Dump {
	t.Helper()
	live := col.LiveDump()
	for _, rd := range live.Ranks {
		if rd.Rank == rank {
			return &obs.Dump{Version: live.Version, Ranks: []obs.RankDump{rd}}
		}
	}
	t.Fatalf("rank %d absent from the collector's live view", rank)
	return nil
}

// TestObsLiveSIGKILL: a worker is SIGKILLed mid-run. The collector
// must mark it dead (it can never final-flush), the run must still
// complete ok via lease recovery, and the merged trace — with the
// killed rank's stream truncation-marked — must still match post-hoc
// merging and analysis.
func TestObsLiveSIGKILL(t *testing.T) {
	const killRank = 2
	stats, col, base, dumps := runLiveJob(t, "tcp", killRank,
		collector.Config{WarnAfter: 500 * time.Millisecond, DeadAfter: 2 * time.Second})

	if stats.WorkersLost < 1 {
		t.Errorf("kill landed after the run finished: WorkersLost=%d (expected ≥ 1)", stats.WorkersLost)
	}

	// The killed rank's heartbeat lag only grows; wait for "dead".
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, base)
		var state string
		for _, row := range st.Ranks {
			if row.Rank == killRank {
				state = row.State
			}
		}
		if state == collector.StateDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never turned dead (state %q)", killRank, state)
		}
		time.Sleep(100 * time.Millisecond)
	}

	st := getStatus(t, base)
	if !st.Complete || !st.ExitOK {
		t.Fatalf("run did not complete ok despite lease recovery: %+v", st)
	}
	// A completed-ok run is healthy even with a dead (recovered-from)
	// rank in the roster.
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after recovered completion = %d", code)
	}
	// The master observed the loss: lease expiries were attributed to
	// the killed worker.
	for _, row := range st.Ranks {
		if row.Rank == killRank && row.LeaseExpires == 0 {
			t.Errorf("killed rank shows no lease expiries")
		}
	}

	assertMergedBytes(t, base, dumps)

	// The live analysis additionally has whatever the killed rank
	// streamed before dying — events no dump file ever recorded. Fold
	// that prefix into the post-hoc merge so both sides analyze the
	// same trace through different machinery.
	survivors := make([]*obs.Dump, 0, jobSize)
	for r := 0; r < jobSize; r++ {
		if d, ok := dumps[r]; ok {
			survivors = append(survivors, d)
		}
	}
	full, err := obs.MergeDumps(append(survivors, partialStream(t, col, killRank))...)
	if err != nil {
		t.Fatal(err)
	}
	assertLiveMatchesPostHoc(t, col, full)
}
