package transconf

import (
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/check"
	"repro/internal/obs/collector"
	"repro/internal/par"
	"repro/internal/seq"
)

// The live smoke tests (make obs-live-smoke) run the same 4-process
// socket job as the conformance suite, every rank streaming its events
// file, and hold the status view (collector.Read) to its contract: it
// reads the files while they are written, sees every rank before rank
// 0's final record, judges health from append age at any instant the
// test names, and ends with the analysis the post-hoc readers derive
// from the same files.

func readStatus(t *testing.T, path string, now time.Time) *collector.Status {
	t.Helper()
	st, err := collector.Read(path, now)
	if err != nil {
		t.Fatalf("status mid-write: %v", err)
	}
	return st
}

func rankRow(t *testing.T, st *collector.Status, r int) collector.RankStatus {
	t.Helper()
	if r >= len(st.Ranks) {
		t.Fatalf("rank %d absent from the status (%d rows)", r, len(st.Ranks))
	}
	return st.Ranks[r]
}

// killWhenStreamedClustering SIGKILLs p once p's own events stream
// (path, still under its working name) shows it entered clustering:
// the killed rank's streamed events then include that phase, and it
// still owes the master its reports.
func killWhenStreamedClustering(path string, p *os.Process, stop <-chan struct{}) {
	for {
		if s, err := obs.ReadStreamFile(path); err == nil {
			for _, rd := range s.Dump.Ranks {
				if enteredClustering(rd.Events) {
					_ = p.Signal(syscall.SIGKILL)
					return
				}
			}
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// runLiveJob runs one multi-process job whose every rank streams its
// events file, reading the run's status throughout. killRank, when
// ≥ 1, is SIGKILLed once its stream shows it clustering. Rank 0's
// final record is left to the caller: it returns the master's stats,
// the run's -events-out path and rank 0's open reporter.
func runLiveJob(t *testing.T, network string, killRank int) (cluster.Stats, string, *collector.Reporter) {
	t.Helper()
	registry := t.TempDir()
	path := eventsPath(registry)
	children := spawnChildren(t, network, registry)
	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	if killRank >= 1 {
		finished := make(chan struct{})
		defer close(finished)
		go killWhenStreamedClustering(dumpPath(registry, killRank)+collector.PartSuffix, children[killRank].Process, finished)
	}
	rep := startStream(registry, 0, tr)
	t.Cleanup(func() { rep.Close(false, "test ended") })
	trans, err := newTransport(0, network, registry)
	if err != nil {
		t.Fatal(err)
	}

	// Rank 0 runs in a goroutine so the test can read the status
	// mid-run, exactly as asmprof -watch would.
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
	var o outcome
	for running := true; running; {
		select {
		case o = <-done:
			running = false
		case <-time.After(20 * time.Millisecond):
		}
		if st := readStatus(t, path, time.Now()); st.Complete {
			t.Fatal("run complete before rank 0's final record")
		}
	}
	if o.err != nil {
		t.Fatalf("master rank failed: %v", o.err)
	}
	if !o.exit.OK {
		t.Fatalf("master did not finish OK: %s", o.exit.Reason)
	}

	// Reap the workers; every surviving rank appended its final record
	// on its way out.
	for r, cmd := range children {
		werr := cmd.Wait()
		delete(children, r)
		if r != killRank && werr != nil {
			t.Errorf("rank %d exited with error: %v", r, werr)
		}
	}
	// Every rank has appended while rank 0 has no final record.
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := readStatus(t, path, time.Now()); st.SeenRanks != jobSize || st.Complete {
		t.Fatalf("before rank 0's final record: %d of %d ranks seen, complete %v", st.SeenRanks, jobSize, st.Complete)
	}
	return o.stats, path, rep
}

// assertPostHoc: the files read after the run pass the stream
// invariants, and the status's live analysis is the post-hoc analysis
// of the same files, as asmprof FILE... derives it.
func assertPostHoc(t *testing.T, path string, st *collector.Status) {
	t.Helper()
	var dumps []*obs.Dump
	for _, p := range collector.Files(path) {
		s, err := obs.ReadStreamFile(p)
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, s.Dump)
	}
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check.Dump(merged, nil); err != nil {
		t.Fatalf("merged streams violate the stream invariants: %v", err)
	}
	// Partial mode: a SIGKILLed rank's lost sends leave unmatched
	// receives, as the live analysis sees them. For a clean run Partial
	// changes nothing.
	rep, err := analyze.Analyze(merged, analyze.Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	lv := st.Live
	if lv == nil || lv.Error != "" || lv.AnalyzedEvents != rep.EventsTotal || lv.MakespanSec != rep.MakespanSec ||
		lv.IdleSec != rep.IdleSec || lv.SlowestRank != rep.SlowestRank || lv.Unmatched != rep.Unmatched {
		t.Fatalf("live analysis %+v diverges from the post-hoc one (%d events, makespan %v, idle %v, slowest %d, unmatched %d)",
			lv, rep.EventsTotal, rep.MakespanSec, rep.IdleSec, rep.SlowestRank, rep.Unmatched)
	}
}

// TestObsLiveTCP: clean 4-process TCP run, watched through its files.
func TestObsLiveTCP(t *testing.T) {
	_, path, rep := runLiveJob(t, "tcp", 0)
	if err := rep.Close(true, ""); err != nil {
		t.Fatalf("final record: %v", err)
	}
	st := readStatus(t, path, time.Now())
	if !st.Complete || !st.ExitOK {
		t.Fatalf("final status not complete-ok: %+v", st)
	}
	for _, row := range st.Ranks {
		if row.State != collector.StateDone || row.Events == 0 {
			t.Fatalf("rank %d final row: %+v, want done with events", row.Rank, row)
		}
	}
	// The finished run's view no longer depends on the clock: a reader
	// after the run sees exactly what the last live read showed.
	if later := readStatus(t, path, time.Now().Add(time.Hour)); !reflect.DeepEqual(later, st) {
		t.Fatalf("the finished run reads differently an hour later:\n%+v\n%+v", later, st)
	}
	assertPostHoc(t, path, st)
}

// TestObsLiveSIGKILL: a worker is SIGKILLed mid-run. Its streamed
// events stay visible, it is charged the master's lease expiries, the
// status turns it dead once its last append is DeadAfter old — judged
// at that instant, not waited for — and the run still completes ok by
// lease recovery.
func TestObsLiveSIGKILL(t *testing.T) {
	const killRank = 2
	stats, path, rep := runLiveJob(t, "tcp", killRank)
	if stats.WorkersLost < 1 {
		t.Errorf("kill landed after the run finished: WorkersLost=%d (expected ≥ 1)", stats.WorkersLost)
	}
	if err := rep.Close(true, ""); err != nil {
		t.Fatalf("final record: %v", err)
	}

	// Killed before its final record, the rank's stream keeps its
	// working name.
	info, err := os.Stat(dumpPath(filepath.Dir(path), killRank) + collector.PartSuffix)
	if err != nil {
		t.Fatalf("the killed rank left no stream: %v", err)
	}
	last := info.ModTime()
	if row := rankRow(t, readStatus(t, path, last.Add(collector.DeadAfter-time.Millisecond)), killRank); row.State != collector.StateLate {
		t.Errorf("killed rank just short of DeadAfter: %q, want late", row.State)
	}
	st := readStatus(t, path, last.Add(collector.DeadAfter))
	row := rankRow(t, st, killRank)
	if row.State != collector.StateDead {
		t.Errorf("killed rank at DeadAfter: %q, want dead", row.State)
	}
	if row.Events == 0 || row.LeaseExpires == 0 {
		t.Errorf("killed rank shows %d streamed events and %d lease expiries, want both", row.Events, row.LeaseExpires)
	}
	if !st.Complete || !st.ExitOK {
		t.Fatalf("run did not complete ok despite lease recovery: %+v", st)
	}
	assertPostHoc(t, path, st)
}
