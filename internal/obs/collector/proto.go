// Package collector is the run-scoped telemetry plane: every rank of
// a (possibly multi-process, possibly multi-machine) run streams its
// new tracer events and its metrics registry periodically to one
// collector, which maintains a live merged view of the whole run —
// per-rank health and phase progress, an incremental comm/comp/idle
// decomposition over the streamed causal DAG (internal/obs/analyze in
// partial mode), and online straggler detection with the same
// attribution as the post-hoc reports. The collector's final merged
// trace, assembled from each rank's final-flush dump, is byte-
// equivalent to obs.MergeDumps over the per-process dump files, so
// nothing is lost by watching live.
//
// The wire protocol is a single JSON POST per reporting interval to
// /ingest. Reports carry per-rank report sequence numbers so a
// duplicate (retried) post is idempotent, cursor-delta event batches
// (obs.Tracer.EventsSince), and a full metrics snapshot
// (obs.CaptureMetrics) that replaces the previous one. The collector
// holds each rank's event stream and derives every per-rank count
// from it when a status is built. Telemetry must never take a run
// down: the reporter does not retry a report it cannot deliver, and
// the job continues. The next report counts the lost events as
// dropped, and the final one carries the full dump.
package collector

import (
	"repro/internal/obs"
)

// ProtoVersion is the ingest payload format version.
const ProtoVersion = 2

// RankStream is one rank's event batch inside a report: the events at
// log positions the reporter's cursor passed over since its previous
// report, plus how many were evicted by ring wraparound before they
// could be streamed (cumulative truncation, reported as increments).
type RankStream struct {
	Rank    int         `json:"rank"`
	Events  []obs.Event `json:"events,omitempty"`
	Dropped uint64      `json:"dropped,omitempty"`
}

// Report is one reporting interval's payload from one process.
//
// Rank identifies the reporting process; Covers lists the ranks whose
// telemetry it owns (its own rank for one-process-per-rank transports;
// every rank for an in-process machine, whose single tracer spans the
// whole run). A report touches the heartbeat of every covered rank.
//
// The final report (Final true) additionally carries the process's
// authoritative full tracer dump and exit status; the collector swaps
// the rank's streamed prefix for the dump so the merged trace is
// exactly what obs.MergeDumps over the per-process dump files yields.
type Report struct {
	Version int    `json:"version"`
	Job     string `json:"job,omitempty"`
	Rank    int    `json:"rank"`
	PID     int    `json:"pid,omitempty"`
	Seq     uint64 `json:"seq"`
	Covers  []int  `json:"covers,omitempty"`

	Metrics *obs.MetricsState `json:"metrics,omitempty"`
	Streams []RankStream      `json:"streams,omitempty"`

	Final      bool      `json:"final,omitempty"`
	FinalDump  *obs.Dump `json:"final_dump,omitempty"`
	ExitOK     bool      `json:"exit_ok,omitempty"`
	ExitReason string    `json:"exit_reason,omitempty"`
}

// Rank health states, ordered by increasing alarm.
const (
	StateWaiting = "waiting" // expected but has not reported yet
	StateAlive   = "alive"   // reporting within the warn threshold
	StateLate    = "late"    // heartbeat lag past the warn threshold
	StateDead    = "dead"    // lag past the dead threshold, or lost per the lease protocol
	StateDone    = "done"    // final flush received, exit OK
	StateFailed  = "failed"  // final flush received, exit not OK
)

// RankStatus is one rank's row of the live dashboard.
type RankStatus struct {
	Rank    int    `json:"rank"`
	State   string `json:"state"`
	PID     int    `json:"pid,omitempty"`
	Reports uint64 `json:"reports"`
	// LagMs is the heartbeat lag: milliseconds since the last report
	// that covered this rank. -1 before the first report.
	LagMs int64 `json:"lag_ms"`

	// Phase is the innermost phase the rank's event stream shows open
	// ("" between phases, "-" before any event arrived).
	Phase  string `json:"phase"`
	Events int    `json:"events"`

	// Traffic and fault counters derived from the held event stream.
	MsgsSent     int64 `json:"msgs_sent"`
	MsgsRecv     int64 `json:"msgs_recv"`
	BytesSent    int64 `json:"bytes_sent"`
	BytesRecv    int64 `json:"bytes_recv"`
	Retransmits  int64 `json:"retransmits,omitempty"`
	Drops        int64 `json:"drops,omitempty"`
	LeaseExpires int64 `json:"lease_expires,omitempty"`
	Faults       int64 `json:"faults,omitempty"`

	// Modeled clocks at the rank's last streamed event, and how far
	// behind the front-runner that leaves it.
	CommSec   float64 `json:"comm_sec"`
	CompSec   float64 `json:"comp_sec"`
	BehindSec float64 `json:"behind_sec"`

	// Decomposition of the rank's synchronized time from the live
	// causal analysis (zero until the first analysis ran).
	IdleSec   float64 `json:"idle_sec"`
	TotalSec  float64 `json:"total_sec"`
	IdlePct   float64 `json:"idle_pct"`
	Straggler bool    `json:"straggler,omitempty"`

	// Runtime health gauges, present when the reporting process runs a
	// profiling session (internal/obs/prof samples runtime/metrics into
	// the registry, and the registry streams here like any gauge).
	GCPauseP99Ns  int64 `json:"gc_pause_p99_ns,omitempty"`
	SchedLatP99Ns int64 `json:"sched_lat_p99_ns,omitempty"`
	HeapLiveBytes int64 `json:"heap_live_bytes,omitempty"`

	ExitReason string `json:"exit_reason,omitempty"`
}

// StragglerNote is one live straggler finding, attributed exactly as
// the post-hoc report attributes it: the slowest rank of a phase whose
// imbalance (max/mean rank time) crossed the threshold.
type StragglerNote struct {
	Rank      int     `json:"rank"`
	Phase     string  `json:"phase"`
	Sec       float64 `json:"sec"`      // the rank's time in the phase
	MeanSec   float64 `json:"mean_sec"` // mean over ranks in the phase
	Imbalance float64 `json:"imbalance"`
}

// LiveAnalysis is the run-level summary of the most recent incremental
// causal analysis.
type LiveAnalysis struct {
	AnalyzedEvents int     `json:"analyzed_events"`
	MakespanSec    float64 `json:"makespan_sec"`
	CommSec        float64 `json:"comm_sec"`
	CompSec        float64 `json:"comp_sec"`
	IdleSec        float64 `json:"idle_sec"`
	SlowestRank    int     `json:"slowest_rank"`
	MasterIdleSec  float64 `json:"master_idle_sec"`
	// Unmatched receives are waiting for their sender's stream; a
	// large value means the live numbers still underestimate idle.
	Unmatched  int             `json:"unmatched,omitempty"`
	Stragglers []StragglerNote `json:"stragglers,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// Status is the run-level view /status serves; asmprof URL polls it.
type Status struct {
	Job         string  `json:"job,omitempty"`
	UptimeSec   float64 `json:"uptime_sec"`
	ExpectRanks int     `json:"expect_ranks"`
	SeenRanks   int     `json:"seen_ranks"`
	Reports     uint64  `json:"reports"`
	EventsTotal int     `json:"events_total"`

	// Complete is set once rank 0 — the run's result owner — delivered
	// its final flush; ExitOK is its verdict.
	Complete bool `json:"complete"`
	ExitOK   bool `json:"exit_ok"`

	Ranks []RankStatus  `json:"ranks"`
	Live  *LiveAnalysis `json:"live,omitempty"`
}
