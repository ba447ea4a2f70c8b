// Package obs is the runtime observability layer: a low-overhead
// per-rank ring-buffer event tracer, a metrics registry
// (counters/gauges/histograms with an expvar-style JSON snapshot),
// and an optional HTTP server exposing both plus net/http/pprof.
//
// The tracer records typed events with timestamps in two clock
// domains: the host wall clock and the machine's modeled clock (the
// α + n/β communication charges and analytic compute charges the par
// runtime accumulates per rank). Traces export as a lossless Dump and
// render as Chrome trace_event JSON — loadable in chrome://tracing or
// https://ui.perfetto.dev.
//
// Overhead contract: every hook site in the runtime guards on a nil
// tracer/registry, so with observability disabled the hot path costs
// one nil check per operation and allocates nothing (enforced by the
// AllocsPerRun guard in internal/par). With tracing enabled, an event
// is one mutex acquisition and one in-place store into a
// preallocated ring; when a ring fills, the oldest events are
// overwritten and counted as dropped rather than growing memory.
package obs

import (
	"sync"
	"time"
)

// Kind is the event type tag.
type Kind uint8

// Event taxonomy. Begin/End kinds form spans; the rest are instants.
const (
	EvNone Kind = iota
	EvSendBegin
	EvSendEnd
	EvSsendBegin
	EvSsendEnd
	EvRecvBegin
	EvRecvEnd
	EvPhaseEnter
	EvPhaseExit
	EvPairGenerated
	EvPairAligned
	EvPairDiscarded
	EvClusterMerge
	EvLeaseGrant
	EvLeaseExpire
	EvLeaseAdopt
	EvFault
	EvCheckpoint // unused; kept so the kinds after it keep their numbers in dumps
	EvRetransmit
	EvCorruptFrame
	EvRetry
	EvQuarantine
)

var kindNames = [...]string{
	EvNone:          "none",
	EvSendBegin:     "send",
	EvSendEnd:       "send",
	EvSsendBegin:    "ssend",
	EvSsendEnd:      "ssend",
	EvRecvBegin:     "recv",
	EvRecvEnd:       "recv",
	EvPhaseEnter:    "phase",
	EvPhaseExit:     "phase",
	EvPairGenerated: "pair-generated",
	EvPairAligned:   "pair-aligned",
	EvPairDiscarded: "pair-discarded",
	EvClusterMerge:  "cluster-merge",
	EvLeaseGrant:    "lease-grant",
	EvLeaseExpire:   "lease-expire",
	EvLeaseAdopt:    "lease-adopt",
	EvFault:         "fault",
	EvCheckpoint:    "checkpoint",
	EvRetransmit:    "retransmit",
	EvCorruptFrame:  "corrupt_frame",
	EvRetry:         "retry",
	EvQuarantine:    "quarantined",
}

// String returns the event family name ("send" for both SendBegin and
// SendEnd).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// isBegin reports whether k opens a span.
func (k Kind) isBegin() bool {
	return k == EvSendBegin || k == EvSsendBegin || k == EvRecvBegin || k == EvPhaseEnter
}

// isEnd reports whether k closes a span.
func (k Kind) isEnd() bool {
	return k == EvSendEnd || k == EvSsendEnd || k == EvRecvEnd || k == EvPhaseExit
}

// Phase identifiers carried in the A argument of EvPhaseEnter/Exit.
const (
	PhaseGST       int64 = 1 + iota // parallel GST construction
	PhaseCluster                    // master–worker clustering loop
	PhaseAlign                      // one worker alignment batch
	PhaseRecover                    // rebuilding a dead rank's GST portion
	PhaseGSTRedist                  // GST suffix redistribution (Alltoallv)
	PhaseGSTFetch                   // one GST fragment-fetch round
	PhasePairGen                    // worker promising-pair generation
	PhaseMaster                     // master protocol loop (rank 0)
)

// PhaseName names a phase identifier.
func PhaseName(id int64) string {
	switch id {
	case PhaseGST:
		return "gst"
	case PhaseCluster:
		return "cluster"
	case PhaseAlign:
		return "align-batch"
	case PhaseRecover:
		return "recover"
	case PhaseGSTRedist:
		return "gst-redistribute"
	case PhaseGSTFetch:
		return "gst-fetch"
	case PhasePairGen:
		return "pairgen"
	case PhaseMaster:
		return "master"
	}
	return "phase"
}

// Fault codes carried in the A argument of EvFault.
const (
	FaultCrash   int64 = 1 + iota // fault-plan kill (B = 0)
	FaultDrop                     // eager message dropped (B = dst, C = tag)
	FaultDelay                    // eager message delayed (B = dst, C = tag)
	FaultCascade                  // dead-rank cascade: blocked on a corpse
)

// FaultName names a fault code.
func FaultName(code int64) string {
	switch code {
	case FaultCrash:
		return "crash"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultCascade:
		return "cascade"
	}
	return "fault"
}

// Event is one trace record. Wall is nanoseconds since the tracer's
// epoch; Comm and Comp are the emitting rank's modeled communication
// and computation clocks (seconds) at emission. A, B and C are
// kind-specific arguments:
//
//	send/ssend begin+end:  A = dst,   B = tag,   C = bytes
//	recv begin:            A = src selector, B = tag selector
//	recv end:              A = src,   B = tag,   C = bytes (−1: timeout)
//	phase enter/exit:      A = phase id
//	pair-*:                A = count, B = peer rank (when known)
//	cluster-merge:         A = fragment a, B = fragment b
//	lease-grant:           A = worker, B = batch pairs, C = request size
//	lease-expire:          A = worker, B = requeued pairs
//	lease-adopt:           A = adopter, B = adopted portions
//	fault:                 A = fault code, B/C = code-specific
//	checkpoint:            A = encoded bytes
//	retransmit:            A = dst,   B = tag,   C = attempt number
//	corrupt_frame:         A = dst,   B = tag,   C = frame bytes
//	retry:                 A = cluster id, B = attempt number
//	quarantined:           A = cluster id, B = reads emitted as singletons
//
// Seq is the per-sender message sequence number: every send a rank
// performs increments its counter, and the receive completing that
// message carries the same value — so (src, Seq) identifies a message
// exactly and trace analysis can stitch send→recv causal edges without
// heuristics. Zero on events that are not message transfers.
//
// The JSON field names are the compact encoding of the raw events dump
// (see Dump), the lossless format asmprof and internal/obs/analyze consume.
type Event struct {
	Kind Kind    `json:"k"`
	Rank int32   `json:"r"`
	Wall int64   `json:"w"`
	Comm float64 `json:"cm"`
	Comp float64 `json:"cp"`
	A    int64   `json:"a,omitempty"`
	B    int64   `json:"b,omitempty"`
	C    int64   `json:"c,omitempty"`
	Seq  uint64  `json:"seq,omitempty"`
}

// ring is one rank's fixed-capacity event buffer. Oldest events are
// overwritten on overflow; next counts every event ever emitted so
// Dropped is derivable.
type ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64
}

// DefaultRingCap is the per-rank event capacity used by the CLI tools
// (≈1 MiB of events per rank).
const DefaultRingCap = 1 << 14

// Tracer records events from the ranks of one or more machine runs.
// Emission is safe for concurrent use by any number of goroutines.
type Tracer struct {
	epoch time.Time
	now   func() time.Time // test hook
	cap   int

	mu    sync.RWMutex
	rings []*ring
}

// NewTracer returns a tracer sized for the given rank count (rings
// grow on demand if a higher rank emits) with the given per-rank
// event capacity (0: DefaultRingCap).
func NewTracer(ranks, capacity int) *Tracer {
	return NewTracerAt(ranks, capacity, time.Now)
}

// NewTracerAt is NewTracer with an explicit clock: wall timestamps are
// read from now, and the epoch is now()'s first value. Tests feed a
// scripted clock here so exported traces are byte-reproducible.
func NewTracerAt(ranks, capacity int, now func() time.Time) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	if ranks < 1 {
		ranks = 1
	}
	t := &Tracer{epoch: now(), now: now, cap: capacity}
	t.rings = make([]*ring, ranks)
	for i := range t.rings {
		t.rings[i] = &ring{buf: make([]Event, capacity)}
	}
	return t
}

// ring returns rank's ring, growing the tracer if needed.
func (t *Tracer) ring(rank int) *ring {
	t.mu.RLock()
	if rank < len(t.rings) {
		r := t.rings[rank]
		t.mu.RUnlock()
		return r
	}
	t.mu.RUnlock()
	t.mu.Lock()
	for len(t.rings) <= rank {
		t.rings = append(t.rings, &ring{buf: make([]Event, t.cap)})
	}
	r := t.rings[rank]
	t.mu.Unlock()
	return r
}

// Emit records one event on rank's ring. commSec/compSec are the
// rank's modeled clocks at emission.
func (t *Tracer) Emit(rank int, k Kind, commSec, compSec float64, a, b, c int64) {
	t.EmitSeq(rank, k, commSec, compSec, a, b, c, 0)
}

// EmitSeq is Emit for message-transfer events, additionally stamping
// the sender's per-rank sequence number so send and receive records of
// the same message share a (src, seq) correlation key.
func (t *Tracer) EmitSeq(rank int, k Kind, commSec, compSec float64, a, b, c int64, seq uint64) {
	if t == nil {
		return
	}
	wall := t.now().Sub(t.epoch).Nanoseconds()
	r := t.ring(rank)
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = Event{
		Kind: k, Rank: int32(rank), Wall: wall,
		Comm: commSec, Comp: compSec, A: a, B: b, C: c, Seq: seq,
	}
	r.next++
	r.mu.Unlock()
}

// Ranks returns the number of rank rings currently allocated.
func (t *Tracer) Ranks() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rings)
}

// Events returns rank's retained events, oldest first.
func (t *Tracer) Events(rank int) []Event {
	if t == nil || rank >= t.Ranks() {
		return nil
	}
	r := t.ring(rank)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	capU := uint64(len(r.buf))
	count := n
	if count > capU {
		count = capU
	}
	out := make([]Event, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, r.buf[i%capU])
	}
	return out
}

// Dropped returns how many of rank's events were overwritten by ring
// wraparound.
func (t *Tracer) Dropped(rank int) uint64 {
	if t == nil || rank >= t.Ranks() {
		return 0
	}
	r := t.ring(rank)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next > uint64(len(r.buf)) {
		return r.next - uint64(len(r.buf))
	}
	return 0
}

// TotalEvents returns the number of events ever emitted across ranks
// (including any since overwritten).
func (t *Tracer) TotalEvents() uint64 {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n uint64
	for _, r := range t.rings {
		r.mu.Lock()
		n += r.next
		r.mu.Unlock()
	}
	return n
}
