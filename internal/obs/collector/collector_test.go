package collector

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// fakeClock is a settable Now hook.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func mkReport(rank int, seq uint64, evs []obs.Event) *Report {
	rep := &Report{Version: ProtoVersion, Rank: rank, Seq: seq, PID: 100 + rank}
	if len(evs) > 0 {
		rep.Streams = []RankStream{{Rank: rank, Events: evs}}
	}
	return rep
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
// waiting, alive, late, dead, done — on a pinned clock, and checks
// readyz/healthz verdicts along the way.
func TestHealthModel(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New(Config{Ranks: 2, Job: "t", Now: clk.now})

	st := c.Status()
	if got := statusRank(t, st, 0).State; got != StateWaiting {
		t.Fatalf("initial state = %q, want waiting", got)
	}
	if ok, missing := c.Readyz(); ok || len(missing) != 2 {
		t.Fatalf("readyz before reports: ok=%v missing=%v", ok, missing)
	}
	if ok, _ := c.Healthz(); !ok {
		t.Fatal("a merely-waiting run should still be healthy")
	}

	evs := []obs.Event{
		{Kind: obs.EvPhaseEnter, Rank: 0, A: obs.PhaseGST},
		{Kind: obs.EvSendEnd, Rank: 0, Comm: 0.5, A: 1, B: 7, C: 64, Seq: 1},
	}
	if err := c.Ingest(mkReport(0, 1, evs)); err != nil {
		t.Fatal(err)
	}
	row := statusRank(t, c.Status(), 0)
	if row.State != StateAlive || row.MsgsSent != 1 || row.BytesSent != 64 || row.Events != 2 {
		t.Fatalf("after first report: %+v", row)
	}
	if row.Phase != obs.PhaseName(obs.PhaseGST) {
		t.Fatalf("phase = %q", row.Phase)
	}
	if ok, missing := c.Readyz(); ok || !reflect.DeepEqual(missing, []int{1}) {
		t.Fatalf("readyz: ok=%v missing=%v", ok, missing)
	}

	clk.advance(3 * time.Second) // past WarnAfter (2s), short of DeadAfter (8s)
	if got := statusRank(t, c.Status(), 0).State; got != StateLate {
		t.Fatalf("state after 3s = %q, want late", got)
	}
	if ok, _ := c.Healthz(); !ok {
		t.Fatal("late is a warning, not unhealthy")
	}

	clk.advance(6 * time.Second) // total 9s: dead
	if got := statusRank(t, c.Status(), 0).State; got != StateDead {
		t.Fatalf("state after 9s = %q, want dead", got)
	}
	if ok, problems := c.Healthz(); ok || len(problems) == 0 {
		t.Fatalf("a dead rank must be unhealthy (problems %v)", problems)
	}

	// Rank 1 reports; then rank 0's final flush completes the run and
	// the verdict flips to the exit status.
	if err := c.Ingest(mkReport(1, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if ok, missing := c.Readyz(); !ok {
		t.Fatalf("readyz after both ranks: missing=%v", missing)
	}
	fin := mkReport(0, 2, nil)
	fin.Final, fin.ExitOK = true, true
	if err := c.Ingest(fin); err != nil {
		t.Fatal(err)
	}
	st = c.Status()
	if !st.Complete || !st.ExitOK {
		t.Fatalf("status after final: %+v", st)
	}
	if got := statusRank(t, st, 0).State; got != StateDone {
		t.Fatalf("final state = %q, want done", got)
	}
	if ok, _ := c.Healthz(); !ok {
		t.Fatal("completed-ok run must be healthy")
	}
}

// TestIngestIdempotent: a retried (duplicate-seq) report must not
// double-count anything.
func TestIngestIdempotent(t *testing.T) {
	c := New(Config{Ranks: 1})
	evs := []obs.Event{{Kind: obs.EvSendEnd, Rank: 0, A: 0, C: 10, Seq: 1}}
	rep := mkReport(0, 1, evs)
	if err := c.Ingest(rep); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(rep); err != nil {
		t.Fatal(err)
	}
	row := statusRank(t, c.Status(), 0)
	if row.Reports != 1 || row.MsgsSent != 1 || row.Events != 1 {
		t.Fatalf("duplicate report was applied: %+v", row)
	}
	if err := c.Ingest(&Report{Version: 99, Rank: 0, Seq: 2}); err == nil {
		t.Fatal("wrong proto version accepted")
	}
}

// TestCoversHeartbeat: one in-process reporter covering all ranks
// keeps every rank's heartbeat fresh.
func TestCoversHeartbeat(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New(Config{Ranks: 3, Now: clk.now})
	rep := mkReport(0, 1, nil)
	rep.Covers = []int{0, 1, 2}
	if err := c.Ingest(rep); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	st := c.Status()
	for r := 0; r < 3; r++ {
		if row := statusRank(t, st, r); row.State != StateAlive {
			t.Fatalf("rank %d state = %q, want alive", r, row.State)
		}
	}
	if ok, missing := c.Readyz(); !ok {
		t.Fatalf("covered ranks should be ready (missing %v)", missing)
	}
}

// TestLeaseExpireAttribution: the master emits the lease-expire event,
// but the tally belongs to the lost worker, and the master's final
// dump, which repeats the streamed event, does not count it again.
func TestLeaseExpireAttribution(t *testing.T) {
	c := New(Config{Ranks: 3})
	evs := []obs.Event{{Kind: obs.EvLeaseExpire, Rank: 0, A: 2, B: 5}}
	if err := c.Ingest(mkReport(0, 1, evs)); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		st := c.Status()
		if got := statusRank(t, st, 2).LeaseExpires; got != 1 {
			t.Fatalf("%s: worker 2 lease expiries = %d, want 1", when, got)
		}
		if got := statusRank(t, st, 0).LeaseExpires; got != 0 {
			t.Fatalf("%s: master charged with the worker's expiry (%d)", when, got)
		}
	}
	check("streamed")
	final := mkReport(0, 2, nil)
	final.Final, final.ExitOK = true, true
	final.FinalDump = &obs.Dump{Version: obs.DumpVersion, Ranks: []obs.RankDump{{Rank: 0, Events: evs}}}
	if err := c.Ingest(final); err != nil {
		t.Fatal(err)
	}
	check("after the final dump")
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

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestReporterIntegration runs a 4-"process" job (goroutine-level: one
// tracer+registry+reporter per simulated rank) against a served
// collector and checks the tentpole invariants end to end:
//
//   - every rank turns alive and readyz flips to ok,
//   - after the final flushes /events is byte-identical to
//     obs.MergeDumps over the per-process dumps,
//   - /analyze agrees exactly with the post-hoc analysis of the
//     merged dump,
//   - per-rank metrics are reconstructed from the deltas.
func TestReporterIntegration(t *testing.T) {
	const size = 4
	col := New(Config{Ranks: size, Job: "itest"})
	srv, err := col.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	var reporters []*Reporter
	var dumps []*obs.Dump
	for r := 0; r < size; r++ {
		tr, reg := scriptProcess(size, r)
		reporters = append(reporters, StartReporter(ReporterConfig{
			URL: base, Rank: r, Job: "itest",
			Interval: 5 * time.Millisecond,
			Tracer:   tr, Registry: reg,
		}))
		dumps = append(dumps, tr.Dump())
	}

	// Wait for every rank's stream to arrive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		events := col.Status().EventsTotal
		if ok, _ := col.Readyz(); ok && events >= 4+3*(size-1)+2*(size-1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams never arrived: events=%d", events)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := httpGet(t, base+"/readyz"); code != 200 {
		t.Fatalf("/readyz = %d mid-run", code)
	}
	if code, _ := httpGet(t, base+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d mid-run", code)
	}

	// Final flushes: workers first, rank 0 last (it owns the verdict).
	for r := size - 1; r >= 0; r-- {
		if err := reporters[r].Close(dumps[r], true, ""); err != nil {
			t.Fatalf("close reporter %d: %v", r, err)
		}
	}

	var st Status
	code, body := httpGet(t, base+"/status")
	if code != 200 || json.Unmarshal(body, &st) != nil {
		t.Fatalf("/status: %d %s", code, body)
	}
	if !st.Complete || !st.ExitOK || st.SeenRanks != size {
		t.Fatalf("final status: %+v", st)
	}
	for r := 0; r < size; r++ {
		if row := statusRank(t, &st, r); row.State != StateDone {
			t.Fatalf("rank %d final state = %q", r, row.State)
		}
	}

	// Byte-equivalence: /events vs obs.MergeDumps over the dump files.
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := merged.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	code, got := httpGet(t, base+"/events")
	if code != 200 {
		t.Fatalf("/events = %d", code)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("/events differs from MergeDumps output:\ngot  %d bytes\nwant %d bytes", len(got), want.Len())
	}

	// Live analysis == post-hoc analysis of the merged dump, exactly.
	postHoc, err := analyze.Analyze(merged, analyze.Options{})
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
	if err := postHoc.WriteJSON(&postJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON.Bytes(), postJSON.Bytes()) {
		t.Fatalf("live analysis diverges from post-hoc:\nlive %s\npost %s", liveJSON.Bytes(), postJSON.Bytes())
	}
	code, body = httpGet(t, base+"/analyze?format=json")
	if code != 200 || !bytes.Equal(body, liveJSON.Bytes()) {
		t.Fatalf("/analyze = %d, or differs from LiveReport:\n%s", code, body)
	}

	// Metrics reconstructed from deltas.
	var details []struct {
		Rank    int            `json:"rank"`
		Metrics map[string]any `json:"metrics"`
	}
	code, body = httpGet(t, base+"/ranks")
	if code != 200 || json.Unmarshal(body, &details) != nil {
		t.Fatalf("/ranks: %d %s", code, body)
	}
	if len(details) != size {
		t.Fatalf("/ranks rows = %d", len(details))
	}
	for _, d := range details {
		if got := d.Metrics["par_msgs_sent"]; got != float64(d.Rank+1) {
			t.Fatalf("rank %d reconstructed counter = %v, want %d", d.Rank, got, d.Rank+1)
		}
	}
}

// TestIngestHTTPErrors exercises the endpoint's failure modes.
func TestIngestHTTPErrors(t *testing.T) {
	col := New(Config{Ranks: 1})
	srv, err := col.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	if code, _ := httpGet(t, base+"/ingest"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest = %d", code)
	}
	resp, err := http.Post(base+"/ingest", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", resp.StatusCode)
	}
	bad, _ := json.Marshal(&Report{Version: 42, Rank: 0, Seq: 1})
	resp, err = http.Post(base+"/ingest", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad version = %d", resp.StatusCode)
	}
	// /events before any final dump.
	if code, _ := httpGet(t, base+"/events"); code != http.StatusServiceUnavailable {
		t.Fatalf("/events without finals = %d", code)
	}
}

// TestReporterBestEffort: a reporter pointed at nothing counts
// failures and never blocks the caller; Close is idempotent and
// nil-safe.
func TestReporterBestEffort(t *testing.T) {
	tr := obs.NewTracer(1, 16)
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 1, 2, 0)
	r := StartReporter(ReporterConfig{
		URL: "http://127.0.0.1:1", Rank: 0, // nothing listens on port 1
		Interval: time.Hour, // only explicit flushes
		Tracer:   tr, Registry: obs.NewRegistry(),
		Client: &http.Client{Timeout: 200 * time.Millisecond},
	})
	if err := r.Flush(); err == nil {
		t.Fatal("flush against a dead collector should error")
	}
	if r.Failed() == 0 {
		t.Fatal("failure not counted")
	}
	if err := r.Close(nil, true, ""); err == nil {
		t.Fatal("final flush against a dead collector should error")
	}
	if err := r.Close(nil, true, ""); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilRep *Reporter
	if err := nilRep.Close(nil, true, ""); err != nil {
		t.Fatalf("nil reporter Close: %v", err)
	}
}

// TestLiveReportConvergesToPostHoc: streaming a run in batches —
// receives arriving before their sends — and then each process's
// final flush yields a live report identical to the post-hoc Partial
// analysis of the merged dump.
func TestLiveReportConvergesToPostHoc(t *testing.T) {
	const size = 3
	col := New(Config{Ranks: size})
	var dumps []*obs.Dump
	for r := 0; r < size; r++ {
		tr, _ := scriptProcess(size, r)
		dumps = append(dumps, tr.Dump())
	}
	stream := func(r int, seq uint64, evs []obs.Event) {
		t.Helper()
		if err := col.Ingest(mkReport(r, seq, evs)); err != nil {
			t.Fatal(err)
		}
	}

	// Rank 0's receives stream first, in two batches; their sends have
	// not arrived yet.
	r0 := dumps[0].Ranks[0].Events
	stream(0, 1, r0[:2])
	stream(0, 2, r0[2:])
	mid, err := col.LiveReport()
	if err != nil {
		t.Fatalf("mid-stream report: %v", err)
	}
	if mid.Unmatched != size-1 {
		t.Fatalf("mid-stream Unmatched = %d, want %d", mid.Unmatched, size-1)
	}
	// The workers stream a prefix only: their phase exits come with
	// the final dumps.
	for r := 1; r < size; r++ {
		evs := dumps[r].Ranks[r].Events
		stream(r, 1, evs[:len(evs)-1])
	}
	if rep, err := col.LiveReport(); err != nil {
		t.Fatal(err)
	} else if rep.Unmatched != 0 {
		t.Fatalf("after every send streamed: Unmatched = %d, want 0", rep.Unmatched)
	}

	for r := size - 1; r >= 0; r-- {
		fin := mkReport(r, 3, nil)
		fin.Final, fin.ExitOK, fin.FinalDump = true, true, dumps[r]
		if err := col.Ingest(fin); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := col.MergedDump()
	if err != nil {
		t.Fatal(err)
	}
	want, err := analyze.Analyze(merged, analyze.Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := col.LiveReport()
	if err != nil {
		t.Fatal(err)
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := got.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Fatalf("live report diverges from post-hoc:\nlive %s\npost %s", gotJSON.Bytes(), wantJSON.Bytes())
	}
	// Nothing changed since: the memoized report comes back.
	if again, _ := col.LiveReport(); again != got {
		t.Fatal("unchanged streams should return the cached report")
	}
}

// TestFailedPostMarksGap: a report the collector never received loses
// its events from the live view, which must say so through the
// rank's drop count, but no metrics: the next report carries the
// whole registry.
func TestFailedPostMarksGap(t *testing.T) {
	col := New(Config{Ranks: 1})
	mux := http.NewServeMux()
	for _, ep := range col.Endpoints() {
		mux.Handle(ep.Path, ep.Handler)
	}
	var ingests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest" && ingests.Add(1) == 1 {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := obs.NewTracer(1, 16)
	reg := obs.NewRegistry()
	hits := reg.Counter("hits")
	rep := StartReporter(ReporterConfig{
		URL: srv.URL, Rank: 0,
		Interval: time.Hour, // only explicit flushes
		Tracer:   tr, Registry: reg,
	})
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 1, 2, 0)
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 3, 4, 0)
	hits.Add(5)
	if err := rep.Flush(); err == nil {
		t.Fatal("the injected failure was not reported")
	}
	tr.Emit(0, obs.EvClusterMerge, 0, 0, 5, 6, 0)
	hits.Add(1)
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	live := col.LiveDump()
	if len(live.Ranks) != 1 || len(live.Ranks[0].Events) != 1 || live.Ranks[0].Dropped != 2 {
		t.Fatalf("live view after a lost post: %+v, want 1 event and 2 dropped", live.Ranks)
	}
	if got := col.ranks[0].metrics.Counters["hits"]; got != hits.Value() {
		t.Fatalf("collector counter after a lost post = %d, registry = %d", got, hits.Value())
	}

	if err := rep.Close(nil, true, ""); err != nil {
		t.Fatal(err)
	}
	live = col.LiveDump()
	if len(live.Ranks) != 1 || len(live.Ranks[0].Events) != 3 || live.Ranks[0].Dropped != 0 {
		t.Fatalf("live view after the final flush: %+v, want 3 events and none dropped", live.Ranks)
	}
	if got := col.ranks[0].metrics.Counters["hits"]; got != hits.Value() {
		t.Fatalf("collector counter = %d, registry = %d", got, hits.Value())
	}
}
