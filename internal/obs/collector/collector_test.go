package collector

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// t0 is the pinned time of every append a test stamps.
var t0 = time.Unix(1000, 0)

// appendRecords appends recs to the stream at path and stamps its
// last append at t0.
func appendRecords(t *testing.T, path string, recs ...obs.Record) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := obs.WriteRecord(f, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, t0, t0); err != nil {
		t.Fatal(err)
	}
}

// rec is one record of rank r's own stream in a size-rank run.
func rec(size, r int, evs []obs.Event) obs.Record {
	rc := obs.Record{Job: "t", Rank: r, PID: 100 + r, Size: size, Covers: []int{r}}
	if len(evs) > 0 {
		rc.Streams = []obs.RankDump{{Rank: r, Events: evs}}
	}
	return rc
}

func final(rc obs.Record, ok bool) obs.Record {
	rc.Final, rc.ExitOK = true, ok
	return rc
}

func read(t *testing.T, path string, at time.Duration) *Status {
	t.Helper()
	st, err := Read(path, t0.Add(at))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func statusRank(t *testing.T, st *Status, r int) RankStatus {
	t.Helper()
	for _, row := range st.Ranks {
		if row.Rank == r {
			return row
		}
	}
	t.Fatalf("rank %d missing from status (%d rows)", r, len(st.Ranks))
	return RankStatus{}
}

// TestHealthModel walks one rank through the full state machine —
// waiting, alive, late, dead, done — at pinned instants after its last
// append, with the run's readiness and verdict along the way.
func TestHealthModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.json")
	if st := read(t, path, 0); st.SeenRanks != 0 || len(st.Ranks) != 0 {
		t.Fatalf("status before any stream: %+v", st)
	}

	evs := []obs.Event{
		{Kind: obs.EvPhaseEnter, Rank: 0, A: obs.PhaseGST},
		{Kind: obs.EvSendEnd, Rank: 0, Comm: 0.5, A: 1, B: 7, C: 64, Seq: 1},
	}
	appendRecords(t, path+".rank0", rec(2, 0, evs))
	st := read(t, path, 0)
	row := statusRank(t, st, 0)
	if row.State != StateAlive || row.MsgsSent != 1 || row.BytesSent != 64 || row.Events != 2 || row.PID != 100 {
		t.Fatalf("after first append: %+v", row)
	}
	if row.Phase != obs.PhaseName(obs.PhaseGST) {
		t.Fatalf("phase = %q", row.Phase)
	}
	if got := statusRank(t, st, 1).State; got != StateWaiting || st.SeenRanks != 1 || st.ExpectRanks != 2 {
		t.Fatalf("rank 1 = %q, seen %d of %d: want waiting, 1 of 2", got, st.SeenRanks, st.ExpectRanks)
	}

	for _, c := range []struct {
		at   time.Duration
		want string
	}{
		{WarnAfter - time.Millisecond, StateAlive},
		{WarnAfter, StateLate},
		{DeadAfter - time.Millisecond, StateLate},
		{DeadAfter, StateDead},
	} {
		if row := statusRank(t, read(t, path, c.at), 0); row.State != c.want || row.LagMs != c.at.Milliseconds() {
			t.Fatalf("%v after the last append: %+v, want %s", c.at, row, c.want)
		}
	}

	// Rank 1 appends; then rank 0's final record completes the run and
	// the verdict is its exit status, whatever the clock says.
	appendRecords(t, path+".rank1", rec(2, 1, nil))
	if st := read(t, path, 0); st.SeenRanks != 2 || st.Complete {
		t.Fatalf("after both ranks appended: %+v", st)
	}
	appendRecords(t, path+".rank0", final(rec(2, 0, nil), true))
	st = read(t, path, time.Hour)
	if !st.Complete || !st.ExitOK || st.Records != 3 {
		t.Fatalf("status after final: %+v", st)
	}
	if row := statusRank(t, st, 0); row.State != StateDone || row.LagMs != -1 {
		t.Fatalf("final row = %+v, want done with no lag", row)
	}
}

// TestCoversHeartbeat: one in-process stream covering all ranks keeps
// every rank's heartbeat fresh.
func TestCoversHeartbeat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.json")
	appendRecords(t, path, obs.Record{Size: 3, Covers: []int{0, 1, 2}})
	st := read(t, path, time.Second)
	for r := 0; r < 3; r++ {
		if row := statusRank(t, st, r); row.State != StateAlive {
			t.Fatalf("rank %d state = %q, want alive", r, row.State)
		}
	}
	if st.SeenRanks != 3 || st.ExpectRanks != 3 {
		t.Fatalf("covered ranks should all be seen: %+v", st)
	}
}

// TestLeaseExpireAttribution: the master emits the lease-expire event,
// but the tally belongs to the lost worker, and the master's final
// record, which streams nothing new, does not count it again.
func TestLeaseExpireAttribution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.json")
	evs := []obs.Event{{Kind: obs.EvLeaseExpire, Rank: 0, A: 2, B: 5}}
	appendRecords(t, path+".rank0", rec(3, 0, evs))
	check := func(when string) {
		t.Helper()
		st := read(t, path, 0)
		if got := statusRank(t, st, 2).LeaseExpires; got != 1 {
			t.Fatalf("%s: worker 2 lease expiries = %d, want 1", when, got)
		}
		if got := statusRank(t, st, 0).LeaseExpires; got != 0 {
			t.Fatalf("%s: master charged with the worker's expiry (%d)", when, got)
		}
	}
	check("streamed")
	appendRecords(t, path+".rank0", final(rec(3, 0, nil), true))
	check("after the final record")
}

// scriptProcess emits rank r's side of a tiny run into its own tracer
// (one tracer per simulated OS process, remote rings stay empty) plus
// a metrics counter, mirroring what a real rank does.
func scriptProcess(size, r int) (*obs.Tracer, *obs.Registry) {
	epoch := time.Unix(0, 0)
	tr := obs.NewTracerAt(size, 256, func() time.Time { return epoch })
	reg := obs.NewRegistry()
	reg.Counter("par_msgs_sent").Add(int64(r + 1))
	if r == 0 {
		tr.EmitSeq(0, obs.EvPhaseEnter, 0, 0, obs.PhaseGST, 0, 0, 0)
		for src := 1; src < size; src++ {
			cm := float64(src - 1) // clocks are cumulative: keep them monotone
			tr.EmitSeq(0, obs.EvRecvBegin, cm, 1, int64(src), 7, 0, 0)
			tr.EmitSeq(0, obs.EvRecvEnd, cm+1, 1, int64(src), 7, 10, uint64(src))
		}
		tr.EmitSeq(0, obs.EvPhaseExit, float64(size-1), 2, obs.PhaseGST, 0, 0, 0)
	} else {
		tr.EmitSeq(r, obs.EvPhaseEnter, 0, 0, obs.PhaseGST, 0, 0, 0)
		tr.EmitSeq(r, obs.EvSendBegin, 0, float64(r), 0, 7, 10, uint64(r))
		tr.EmitSeq(r, obs.EvSendEnd, 1, float64(r), 0, 7, 10, uint64(r))
		tr.EmitSeq(r, obs.EvPhaseExit, 1, float64(r)+1, obs.PhaseGST, 0, 0, 0)
	}
	return tr, reg
}

// sameRanks reports whether two dumps' ranks hold the same events and
// drop counts (an empty stream equals a nil one).
func sameRanks(a, b []obs.RankDump) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rank != b[i].Rank || a[i].Dropped != b[i].Dropped || len(a[i].Events) != len(b[i].Events) ||
			len(a[i].Events) > 0 && !reflect.DeepEqual(a[i].Events, b[i].Events) {
			return false
		}
	}
	return true
}

// postHoc is the analysis asmprof derives after the run, reduced to
// the live summary: the Partial analysis of the merged dumps.
func postHoc(t *testing.T, dumps ...*obs.Dump) *LiveAnalysis {
	t.Helper()
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze.Analyze(merged, analyze.Options{Partial: true})
	return liveAnalysis(rep, err)
}

// TestReporterIntegration runs a 4-"process" job (one tracer, registry
// and reporter per simulated rank, each writing path.rank<r>) and
// checks the contract end to end:
//
//   - every rank's stream appears and the run is seen whole mid-run,
//   - after the final records every rank is done and the run complete,
//   - each folded stream holds exactly its tracer's events, and its
//     last registry,
//   - the live analysis equals the post-hoc analysis of the tracers'
//     own dumps.
func TestReporterIntegration(t *testing.T) {
	const size = 4
	path := filepath.Join(t.TempDir(), "ev.json")
	var reporters []*Reporter
	var dumps []*obs.Dump
	for r := 0; r < size; r++ {
		tr, reg := scriptProcess(size, r)
		reporters = append(reporters, StartReporter(ReporterConfig{
			Path: fmt.Sprintf("%s.rank%d", path, r), Run: 42, Rank: r, Size: size, Job: "itest",
			Tracer: tr, Registry: reg,
		}))
		dumps = append(dumps, tr.Dump())
	}
	for _, rep := range reporters {
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Read(path, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if st.SeenRanks != size || st.Complete || st.Job != "itest" {
		t.Fatalf("mid-run status: %+v", st)
	}

	// Final records: workers first, rank 0 last (it owns the verdict).
	for r := size - 1; r >= 0; r-- {
		if err := reporters[r].Close(true, ""); err != nil {
			t.Fatalf("close reporter %d: %v", r, err)
		}
	}
	st, err = Read(path, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || !st.ExitOK || st.SeenRanks != size {
		t.Fatalf("final status: %+v", st)
	}
	for r := 0; r < size; r++ {
		if row := statusRank(t, st, r); row.State != StateDone {
			t.Fatalf("rank %d final state = %q", r, row.State)
		}
		s, err := obs.ReadStreamFile(fmt.Sprintf("%s.rank%d", path, r))
		if err != nil {
			t.Fatal(err)
		}
		if !sameRanks(s.Dump.Ranks, dumps[r].Ranks) {
			t.Fatalf("rank %d: folded stream differs from its tracer's dump:\n%+v\n%+v", r, s.Dump.Ranks, dumps[r].Ranks)
		}
		if got := s.Metrics.Counters["par_msgs_sent"]; got != int64(r+1) {
			t.Fatalf("rank %d streamed counter = %d, want %d", r, got, r+1)
		}
	}
	if want := postHoc(t, dumps...); !reflect.DeepEqual(st.Live, want) {
		t.Fatalf("live analysis diverges from post-hoc:\nlive %+v\npost %+v", st.Live, want)
	}
}

// TestReporterBestEffort: a reporter whose stream cannot be written
// reports the failure and never blocks the caller; Close is
// idempotent and nil-safe.
func TestReporterBestEffort(t *testing.T) {
	tr := obs.NewTracer(1, 16)
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 1, 2, 0)
	r := StartReporter(ReporterConfig{
		Path:   filepath.Join(t.TempDir(), "no", "such", "dir", "ev.json"),
		Tracer: tr, Registry: obs.NewRegistry(),
	})
	if err := r.Flush(); err == nil {
		t.Fatal("an append to an unwritable stream should error")
	}
	if err := r.Close(true, ""); err == nil {
		t.Fatal("the final record of an unwritable stream should error")
	}
	if err := r.Close(true, ""); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilRep *Reporter
	if err := nilRep.Close(true, ""); err != nil {
		t.Fatalf("nil reporter Close: %v", err)
	}
}

// TestLiveReportConvergesToPostHoc: streaming a run in batches —
// receives arriving before their sends — and then each process's
// final record yields a live analysis identical to the post-hoc
// Partial analysis of the processes' own dumps.
func TestLiveReportConvergesToPostHoc(t *testing.T) {
	const size = 3
	path := filepath.Join(t.TempDir(), "ev.json")
	var dumps []*obs.Dump
	for r := 0; r < size; r++ {
		tr, _ := scriptProcess(size, r)
		dumps = append(dumps, tr.Dump())
	}
	stream := func(r int) string { return fmt.Sprintf("%s.rank%d", path, r) }

	// Rank 0's receives stream first, in two batches; their sends have
	// not arrived yet.
	r0 := dumps[0].Ranks[0].Events
	appendRecords(t, stream(0), rec(size, 0, r0[:2]), rec(size, 0, r0[2:]))
	if lv := read(t, path, 0).Live; lv == nil || lv.Error != "" || lv.Unmatched != size-1 {
		t.Fatalf("mid-stream analysis %+v, want %d unmatched", lv, size-1)
	}
	// The workers stream a prefix only: their phase exits come with
	// their final records.
	for r := 1; r < size; r++ {
		evs := dumps[r].Ranks[r].Events
		appendRecords(t, stream(r), rec(size, r, evs[:len(evs)-1]))
	}
	if lv := read(t, path, 0).Live; lv.Unmatched != 0 {
		t.Fatalf("after every send streamed: Unmatched = %d, want 0", lv.Unmatched)
	}

	for r := size - 1; r >= 0; r-- {
		var rest []obs.Event
		if r > 0 {
			evs := dumps[r].Ranks[r].Events
			rest = evs[len(evs)-1:]
		}
		appendRecords(t, stream(r), final(rec(size, r, rest), true))
	}
	if got, want := read(t, path, 0).Live, postHoc(t, dumps...); !reflect.DeepEqual(got, want) {
		t.Fatalf("live analysis diverges from post-hoc:\nlive %+v\npost %+v", got, want)
	}
}

// TestFailedWriteMarksGap: a record whose write failed loses its
// events from the stream, which must say so through the rank's drop
// count, but no metrics: the next record carries the whole registry.
func TestFailedWriteMarksGap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "later")
	path := filepath.Join(dir, "ev.json")
	tr := obs.NewTracer(1, 16)
	reg := obs.NewRegistry()
	hits := reg.Counter("hits")
	rep := StartReporter(ReporterConfig{Path: path, Tracer: tr, Registry: reg})
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 1, 2, 0)
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 3, 4, 0)
	hits.Add(5)
	if err := rep.Flush(); err == nil {
		t.Fatal("the failed write was not reported")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 5, 6, 0)
	hits.Add(1)
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(true, ""); err != nil {
		t.Fatal(err)
	}
	s, err := obs.ReadStreamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rd := s.Dump.Ranks[0]; len(rd.Events) != 1 || rd.Dropped != 2 {
		t.Fatalf("stream after a failed write: %+v, want 1 event and 2 dropped", rd)
	}
	if got := s.Metrics.Counters["hits"]; got != hits.Value() {
		t.Fatalf("streamed counter after a failed write = %d, registry = %d", got, hits.Value())
	}
}

// TestEarlierRunIgnored: files an earlier run left at the same path —
// an interrupted rank 0's stream, finished worker streams, an
// in-process run's single stream, an earlier format's dump — never
// color the status of the run that follows, from the instant its rank
// 0's reporter starts.
func TestEarlierRunIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.json")
	old := func(rc obs.Record) obs.Record { rc.Run = 1; return rc }
	merge := []obs.Event{{Kind: obs.EvClusterMerge, Rank: 1, A: 1, B: 2}}
	appendRecords(t, path+".rank0.interrupted", old(final(rec(3, 0, nil), false)))
	appendRecords(t, path+".rank1", old(final(rec(3, 1, merge), true)))
	appendRecords(t, path+".rank2", old(final(rec(3, 2, merge), true)))
	appendRecords(t, path, final(obs.Record{Size: 3, Covers: []int{0, 1, 2}}, true)) // older still
	// An earlier build's single-document dump is no stream to follow.
	if err := os.WriteFile(path+".rank3", []byte(`{"version":1,"ranks":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st := read(t, path, 0); !st.Complete || st.ExitOK {
		t.Fatalf("before the next run starts, the status is the earlier run's: %+v", st)
	}

	tr := obs.NewTracer(2, 16)
	rep := StartReporter(ReporterConfig{Path: path + ".rank0", Run: 2, Rank: 0, Size: 2, Tracer: tr})
	defer rep.Close(true, "")
	st, err := Read(path, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete || st.ExpectRanks != 2 || st.SeenRanks != 1 || st.EventsTotal != 0 {
		t.Fatalf("the new run's status mixes in the earlier run's files: %+v", st)
	}
	if row := statusRank(t, st, 0); row.State != StateAlive {
		t.Fatalf("the new rank 0 = %+v, want alive", row)
	}
	if row := statusRank(t, st, 1); row.State != StateWaiting {
		t.Fatalf("rank 1 = %+v, want waiting: its file is the earlier run's", row)
	}
}

// TestPublishOnlyWhenFinished: a stream is appended under its working
// name and takes its own name only with its final record, so an
// earlier run's finished stream at that name survives a successor cut
// short — interrupted (published under .interrupted) or killed (left
// under the working name) — and is replaced only by a finished one.
func TestPublishOnlyWhenFinished(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.json")
	appendRecords(t, path, final(obs.Record{Run: 1, Size: 1, Covers: []int{0}}, true))
	earlier, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		if b, err := os.ReadFile(path); err != nil || string(b) != string(earlier) {
			t.Fatalf("%s: the earlier run's finished stream was touched (%v)", when, err)
		}
	}

	tr := obs.NewTracer(1, 16)
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 1, 2, 0)
	killed := StartReporter(ReporterConfig{Path: path, Run: 2, Tracer: tr})
	if err := killed.Flush(); err != nil {
		t.Fatal(err)
	}
	unchanged("mid-run")
	if st := read(t, path, 0); st.Complete || st.Ranks[0].Events != 1 {
		t.Fatalf("the running stream is not the one read: %+v", st)
	}
	// killed is abandoned here, as a SIGKILL would leave it.
	killed.stopOnce.Do(func() { close(killed.stop) })
	<-killed.done
	killed.f.Close()

	interrupted := StartReporter(ReporterConfig{Path: path, Run: 3, Tracer: tr})
	if err := interrupted.Interrupt("interrupted: terminated"); err != nil {
		t.Fatal(err)
	}
	unchanged("after an interrupted run")
	s, err := obs.ReadStreamFile(path + ".interrupted")
	if err != nil || !s.Final || s.ExitOK || s.Run != 3 {
		t.Fatalf("interrupted stream: %+v, %v", s, err)
	}

	finished := StartReporter(ReporterConfig{Path: path, Run: 4, Tracer: tr})
	if err := finished.Close(true, ""); err != nil {
		t.Fatal(err)
	}
	if s, err := obs.ReadStreamFile(path); err != nil || !s.Final || !s.ExitOK || s.Run != 4 {
		t.Fatalf("finished stream: %+v, %v", s, err)
	}
	if _, err := os.Stat(path + PartSuffix); !os.IsNotExist(err) {
		t.Fatalf("the finished stream left its working name behind: %v", err)
	}
}
