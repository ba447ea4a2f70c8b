package collector

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/prof"
)

// Config tunes a collector.
type Config struct {
	// Ranks is the expected machine size. Zero learns it from the
	// reports, but /readyz then turns ready on the first report.
	Ranks int
	// Job labels the run (shown by asmprof URL; informational).
	Job string
	// WarnAfter is the heartbeat lag that turns a rank "late"
	// (default 2s) and DeadAfter the lag that turns it "dead"
	// (default 8s). A SIGKILLed process stops reporting, so its lag
	// grows without bound and it crosses both thresholds.
	WarnAfter time.Duration
	DeadAfter time.Duration
	// ImbalanceThreshold flags the slowest rank of a phase as a
	// straggler when the phase's max/mean rank time exceeds it
	// (default 1.5, matching the post-hoc report's imbalance column).
	ImbalanceThreshold float64
	// Now is the clock hook (tests pin it).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.WarnAfter <= 0 {
		c.WarnAfter = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 8 * time.Second
	}
	if c.ImbalanceThreshold <= 0 {
		c.ImbalanceThreshold = 1.5
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// rankState is what the collector holds for one rank. Everything a
// status row shows beyond it is derived from events when the row is
// built.
type rankState struct {
	pid        int
	reports    uint64
	lastCover  time.Time // last report that covered this rank
	lastSeq    uint64    // reporting process's last applied report seq
	metrics    *obs.MetricsState
	final      bool
	exitOK     bool
	exitReason string
	finalDump  *obs.Dump // the covering process's final dump (stored on its own rank)

	// The rank's event stream: the streamed prefix, replaced by the
	// authoritative final dump once its process flushes, and how many
	// of its events never arrived (a stream with a gap is truncated).
	events  []obs.Event
	dropped uint64
}

// Collector aggregates the telemetry streams of one run.
type Collector struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	ranks   map[int]*rankState
	reports uint64

	// The live report is memoized on gen, which every change to a
	// stream bumps: polls between reports reuse it.
	gen       uint64
	cached    *analyze.Report
	cachedErr error
	cachedGen uint64
}

// New returns an empty collector for one run.
func New(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{
		cfg:   cfg,
		start: cfg.Now(),
		ranks: map[int]*rankState{},
	}
}

func (c *Collector) rank(r int) *rankState {
	rs := c.ranks[r]
	if rs == nil {
		rs = &rankState{}
		c.ranks[r] = rs
	}
	return rs
}

// Ingest applies one report. Reports from the same process must arrive
// in order (the reporter is one goroutine over one connection); a
// duplicate or stale sequence number is dropped, making retries
// idempotent.
func (c *Collector) Ingest(rep *Report) error {
	if rep.Version != ProtoVersion {
		return fmt.Errorf("collector: report version %d, want %d", rep.Version, ProtoVersion)
	}
	if rep.Rank < 0 {
		return fmt.Errorf("collector: negative rank %d", rep.Rank)
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	self := c.rank(rep.Rank)
	if rep.Seq <= self.lastSeq && self.reports > 0 {
		return nil // duplicate of an already-applied report
	}
	self.lastSeq = rep.Seq
	self.reports++
	c.reports++
	if rep.PID != 0 {
		self.pid = rep.PID
	}
	if rep.Metrics != nil {
		self.metrics = rep.Metrics
	}

	covers := rep.Covers
	if len(covers) == 0 {
		covers = []int{rep.Rank}
	}
	for _, r := range covers {
		c.rank(r).lastCover = now
	}

	for _, st := range rep.Streams {
		rs := c.rank(st.Rank)
		rs.events = append(rs.events, st.Events...)
		rs.dropped += st.Dropped
		c.gen++
	}

	if rep.Final {
		self.final = true
		self.exitOK = rep.ExitOK
		self.exitReason = rep.ExitReason
		if rep.FinalDump != nil {
			self.finalDump = rep.FinalDump
			for _, rd := range rep.FinalDump.Ranks {
				// Only the streams this process owns are authoritative;
				// its dump also has empty rings for remote ranks.
				if len(rd.Events) == 0 && rd.Dropped == 0 {
					continue
				}
				rs := c.rank(rd.Rank)
				rs.events, rs.dropped = rd.Events, rd.Dropped
				c.gen++
			}
		}
		// Rank 0's final ends the run. Any expected rank that has not
		// final-flushed by then can never complete its stream (it died
		// or was lost): mark the stream truncated, mirroring what
		// MergeDumps does for a missing dump file. A final that lands
		// late anyway still wins: it overwrites the mark with the
		// authoritative drop count.
		if rep.Rank == 0 {
			for r := 0; r < c.cfg.Ranks; r++ {
				if rs := c.rank(r); !rs.final {
					rs.dropped++
					c.gen++
				}
			}
		}
	}
	return nil
}

// expectRanks returns the declared machine size, or the observed one.
func (c *Collector) expectRanks() int {
	if c.cfg.Ranks > 0 {
		return c.cfg.Ranks
	}
	max := 0
	for r := range c.ranks {
		if r+1 > max {
			max = r + 1
		}
	}
	return max
}

// state classifies one rank at time now.
func (c *Collector) state(rs *rankState, now time.Time) string {
	switch {
	case rs.final && rs.exitOK:
		return StateDone
	case rs.final:
		return StateFailed
	case rs.reports == 0 && rs.lastCover.IsZero():
		return StateWaiting
	}
	lag := now.Sub(rs.lastCover)
	switch {
	case lag >= c.cfg.DeadAfter:
		return StateDead
	case lag >= c.cfg.WarnAfter:
		return StateLate
	}
	return StateAlive
}

// Status assembles the live run view.
func (c *Collector) Status() *Status {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, repErr := c.liveReport()
	st := &Status{
		Job:         c.cfg.Job,
		UptimeSec:   now.Sub(c.start).Seconds(),
		ExpectRanks: c.expectRanks(),
		SeenRanks:   len(c.ranks),
		Reports:     c.reports,
	}
	for _, rs := range c.ranks {
		st.EventsTotal += len(rs.events)
	}
	if root := c.ranks[0]; root != nil && root.final {
		st.Complete = true
		st.ExitOK = root.exitOK
	}

	st.Live = liveAnalysis(rep, repErr, c.cfg.ImbalanceThreshold)

	// Per-rank rows: counts derived from the held streams, enriched
	// with the live decomposition.
	rows := map[int]*RankStatus{}
	row := func(r int) *RankStatus {
		if rows[r] == nil {
			rows[r] = &RankStatus{Rank: r}
		}
		return rows[r]
	}
	for r := 0; r < c.expectRanks(); r++ {
		row(r) // expected but silent: surface it
	}
	var maxClock float64
	for r, rs := range c.ranks {
		tally(row, r, rs.events)
		if t := rows[r].CommSec + rows[r].CompSec; t > maxClock {
			maxClock = t
		}
	}
	for _, r := range slices.Sorted(maps.Keys(rows)) {
		rs, row := c.rank(r), rows[r]
		row.State = c.state(rs, now)
		row.PID, row.Reports, row.ExitReason = rs.pid, rs.reports, rs.exitReason
		row.LagMs = -1
		if !rs.lastCover.IsZero() {
			row.LagMs = now.Sub(rs.lastCover).Milliseconds()
		}
		row.BehindSec = maxClock - (row.CommSec + row.CompSec)
		if rs.metrics != nil {
			row.GCPauseP99Ns = rs.metrics.Gauges[prof.GaugeGCPauseP99]
			row.SchedLatP99Ns = rs.metrics.Gauges[prof.GaugeSchedLatP99]
			row.HeapLiveBytes = rs.metrics.Gauges[prof.GaugeHeapLive]
		}
		if rep != nil {
			// Match by rank, not index: mid-run the report may cover
			// only the ranks whose streams arrived so far.
			for _, rt := range rep.RankTotals {
				if rt.Rank != r {
					continue
				}
				row.IdleSec = rt.IdleSec
				row.TotalSec = rt.TotalSec
				if rt.TotalSec > 0 {
					row.IdlePct = 100 * rt.IdleSec / rt.TotalSec
				}
				break
			}
		}
		if st.Live != nil {
			for _, s := range st.Live.Stragglers {
				if s.Rank == r {
					row.Straggler = true
				}
			}
		}
		st.Ranks = append(st.Ranks, *row)
	}
	return st
}

// tally derives rank r's row from its held event stream: message,
// byte and fault counts, the innermost open phase ("-"
// before any event) and the clocks of its last event. A lease expiry
// is emitted by the master but charged to the worker it names.
func tally(row func(int) *RankStatus, r int, evs []obs.Event) {
	rs := row(r)
	var open []int64
	for _, e := range evs {
		switch e.Kind {
		case obs.EvSendEnd, obs.EvSsendEnd:
			rs.MsgsSent++
			rs.BytesSent += e.C
		case obs.EvRecvEnd:
			if e.C >= 0 {
				rs.MsgsRecv++
				rs.BytesRecv += e.C
			}
		case obs.EvRetransmit:
			rs.Retransmits++
		case obs.EvFault:
			rs.Faults++
			if e.A == obs.FaultDrop {
				rs.Drops++
			}
		case obs.EvLeaseExpire:
			row(int(e.A)).LeaseExpires++
		case obs.EvPhaseEnter:
			open = append(open, e.A)
		case obs.EvPhaseExit:
			for i := len(open) - 1; i >= 0; i-- {
				if open[i] == e.A {
					open = open[:i]
					break
				}
			}
		}
		rs.CommSec, rs.CompSec = e.Comm, e.Comp
	}
	rs.Events = len(evs)
	switch {
	case len(open) > 0:
		rs.Phase = obs.PhaseName(open[len(open)-1])
	case len(evs) == 0:
		rs.Phase = "-"
	}
}

// liveAnalysis condenses the live report into the run summary,
// deriving straggler notes exactly as the post-hoc report does: a
// phase whose imbalance crossed the threshold names its slowest rank.
func liveAnalysis(rep *analyze.Report, err error, imbal float64) *LiveAnalysis {
	if err != nil {
		return &LiveAnalysis{Error: err.Error()}
	}
	if rep == nil {
		return nil
	}
	la := &LiveAnalysis{
		AnalyzedEvents: rep.EventsTotal,
		MakespanSec:    rep.MakespanSec,
		CommSec:        rep.CommSec,
		CompSec:        rep.CompSec,
		IdleSec:        rep.IdleSec,
		SlowestRank:    rep.SlowestRank,
		MasterIdleSec:  rep.MasterIdleSec,
		Unmatched:      rep.Unmatched,
	}
	for _, ps := range rep.Phases {
		if ps.RankCount >= 2 && ps.Imbalance >= imbal {
			la.Stragglers = append(la.Stragglers, StragglerNote{
				Rank:      ps.MaxRank,
				Phase:     ps.Phase,
				Sec:       ps.MaxRankSec,
				MeanSec:   ps.MeanRankSec,
				Imbalance: ps.Imbalance,
			})
		}
	}
	return la
}

// Healthz reports run health: unhealthy while any expected rank is
// dead or failed and the run has not completed; a completed run is
// judged by its exit status alone (a rank lost and recovered by the
// lease protocol does not un-health a finished run). The returned
// problems list explains a false verdict.
func (c *Collector) Healthz() (ok bool, problems []string) {
	st := c.Status()
	if st.Complete {
		if !st.ExitOK {
			return false, []string{"run failed: " + exitReason(st)}
		}
		return true, nil
	}
	for _, r := range st.Ranks {
		switch r.State {
		case StateDead:
			problems = append(problems, fmt.Sprintf("rank %d dead (no report for %dms)", r.Rank, r.LagMs))
		case StateFailed:
			problems = append(problems, fmt.Sprintf("rank %d failed: %s", r.Rank, r.ExitReason))
		}
	}
	return len(problems) == 0, problems
}

func exitReason(st *Status) string {
	for _, r := range st.Ranks {
		if r.Rank == 0 && r.ExitReason != "" {
			return r.ExitReason
		}
	}
	return "unknown"
}

// Readyz reports whether every expected rank has reported at least
// once — the run is fully rendezvoused and observable.
func (c *Collector) Readyz() (ok bool, missing []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	expect := c.expectRanks()
	if expect == 0 {
		return false, nil
	}
	for r := 0; r < expect; r++ {
		rs, seen := c.ranks[r]
		if !seen || (rs.reports == 0 && rs.lastCover.IsZero()) {
			missing = append(missing, r)
		}
	}
	return len(missing) == 0, missing
}

// MergedDump merges the final-flush dumps into the machine-wide trace,
// exactly as obs.MergeDumps merges the per-process dump files: it is
// the same function over the same inputs, so the bytes match. Ranks
// whose process never flushed (SIGKILLed) come back truncated-marked,
// also as post-hoc merging would.
func (c *Collector) MergedDump() (*obs.Dump, error) {
	c.mu.Lock()
	var dumps []*obs.Dump
	for _, r := range slices.Sorted(maps.Keys(c.ranks)) {
		if d := c.ranks[r].finalDump; d != nil {
			dumps = append(dumps, d)
		}
	}
	c.mu.Unlock()
	if len(dumps) == 0 {
		return nil, fmt.Errorf("collector: no final dumps received yet")
	}
	return obs.MergeDumps(dumps...)
}

// LiveReport returns the causal analysis of LiveDump in Partial mode:
// a mid-run prefix tolerates receives whose sends have not streamed
// yet, and once every rank final-flushed the report is exactly the
// post-hoc Analyze of the merged dump.
func (c *Collector) LiveReport() (*analyze.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveReport()
}

// liveReport is LiveReport under c.mu, memoized on the stream
// generation.
func (c *Collector) liveReport() (*analyze.Report, error) {
	if c.cachedGen != c.gen || (c.cached == nil && c.cachedErr == nil) {
		c.cached, c.cachedErr = analyze.Analyze(c.liveDump(), analyze.Options{Partial: true})
		c.cachedGen = c.gen
	}
	return c.cached, c.cachedErr
}

// LiveDump snapshots the collector's current merged view of the run:
// authoritative final dumps where ranks have flushed, streamed
// prefixes elsewhere. Unlike MergedDump, it can include events from a
// rank that died before final-flushing — everything that rank managed
// to stream before it went silent. Rank slices are shared, not
// copied; treat the result as read-only.
func (c *Collector) LiveDump() *obs.Dump {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveDump()
}

func (c *Collector) liveDump() *obs.Dump {
	d := &obs.Dump{Version: obs.DumpVersion}
	for _, r := range slices.Sorted(maps.Keys(c.ranks)) {
		if rs := c.ranks[r]; len(rs.events) > 0 || rs.dropped > 0 {
			d.Ranks = append(d.Ranks, obs.RankDump{Rank: r, Dropped: rs.dropped, Events: rs.events})
		}
	}
	return d
}

// ---- HTTP plumbing ----

// maxIngestBytes bounds one report body (a final dump of a large run
// is the big case).
const maxIngestBytes = 256 << 20

func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var rep Report
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err := dec.Decode(&rep); err != nil {
		http.Error(w, "malformed report: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.Ingest(&rep); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Collector) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c.Status()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleRanks serves per-rank reconstructed metrics snapshots.
func (c *Collector) handleRanks(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	type rankDetail struct {
		Rank    int            `json:"rank"`
		PID     int            `json:"pid,omitempty"`
		Reports uint64         `json:"reports"`
		Metrics map[string]any `json:"metrics"`
	}
	var out []rankDetail
	for _, r := range slices.Sorted(maps.Keys(c.ranks)) {
		rs := c.ranks[r]
		out = append(out, rankDetail{Rank: r, PID: rs.pid, Reports: rs.reports, Metrics: rs.metrics.Snapshot()})
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (c *Collector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ok, problems := c.Healthz()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		for _, p := range problems {
			fmt.Fprintln(w, p)
		}
		return
	}
	fmt.Fprintln(w, "ok")
}

func (c *Collector) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ok, missing := c.Readyz()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "waiting for ranks %v\n", missing)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleAnalyze serves the live causal analysis: ?format=json the
// deterministic report JSON, ?format=chrome the critical-path-annotated
// Chrome trace of the live dump; the default is text.
func (c *Collector) handleAnalyze(w http.ResponseWriter, req *http.Request) {
	c.mu.Lock()
	rep, err := c.liveReport()
	d := c.liveDump()
	c.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	switch req.URL.Query().Get("format") {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		err = rep.WriteJSON(w)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		err = rep.WriteAnnotatedChrome(w, d)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = rep.WriteText(w)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleEvents serves the final merged trace (obs.Dump JSON, the
// asmprof input format).
func (c *Collector) handleEvents(w http.ResponseWriter, _ *http.Request) {
	d, err := c.MergedDump()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := d.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Endpoints returns the collector's routes for mounting on an
// obs.Serve server.
func (c *Collector) Endpoints() []obs.Endpoint {
	return []obs.Endpoint{
		{Path: "/ingest", Handler: http.HandlerFunc(c.handleIngest)},
		{Path: "/status", Handler: http.HandlerFunc(c.handleStatus)},
		{Path: "/ranks", Handler: http.HandlerFunc(c.handleRanks)},
		{Path: "/healthz", Handler: http.HandlerFunc(c.handleHealthz)},
		{Path: "/readyz", Handler: http.HandlerFunc(c.handleReadyz)},
		{Path: "/analyze", Handler: http.HandlerFunc(c.handleAnalyze)},
		{Path: "/events", Handler: http.HandlerFunc(c.handleEvents)},
	}
}

// Serve starts the run's one telemetry server on addr (":0" picks a
// free port): the collector's routes next to reg's /metrics and
// /debug/pprof (reg is the serving process's registry; nil serves an
// empty /metrics). It reuses the obs server lifecycle — Close for
// immediate stop, Shutdown for a graceful drain.
func (c *Collector) Serve(addr string, reg *obs.Registry) (*obs.Server, error) {
	return obs.Serve(addr, reg, c.Endpoints()...)
}
