package obs

// Streaming telemetry primitives: what a per-rank process ships to a
// run-scoped collector (internal/obs/collector) while it runs, instead
// of one monolithic dump after the run.
//
//   - events: the tracer ring is an append-only log per rank (next is
//     the count of events ever emitted), so a cursor — the reader's
//     position in that log — makes "everything since last time" exact:
//     EventsSince returns the retained suffix past the cursor and how
//     many events wraparound evicted before the reader got to them.
//
//   - metrics: CaptureMetrics snapshots a registry into a MetricsState,
//     which every report carries whole. A registry is a few hundred
//     bytes to a few KB, so the latest state replaces the previous one
//     and a lost report loses nothing the next one does not resend.

// EventsSince returns rank's events at log positions >= cursor that
// are still retained, the new cursor (pass it back next call), and how
// many events in [cursor, next) were evicted by ring wraparound before
// this read. A fresh reader starts at cursor 0.
func (t *Tracer) EventsSince(rank int, cursor uint64) (events []Event, next uint64, lost uint64) {
	if t == nil || rank >= t.Ranks() {
		return nil, cursor, 0
	}
	r := t.ring(rank)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if cursor > n {
		// A cursor from a different tracer incarnation; restart.
		cursor = n
	}
	capU := uint64(len(r.buf))
	start := cursor
	if n > capU && start < n-capU {
		lost = n - capU - start
		start = n - capU
	}
	if start < n {
		events = make([]Event, 0, n-start)
		for i := start; i < n; i++ {
			events = append(events, r.buf[i%capU])
		}
	}
	return events, n, lost
}

// HistState is one histogram's cumulative state: per-bucket counts
// (the last entry is the overflow bucket) and the observation sum.
type HistState struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
}

// MetricsState is a registry's full cumulative state, the wire form
// of Snapshot. Its maps are never nil, so a JSON round trip returns
// an equal state.
type MetricsState struct {
	Counters map[string]int64     `json:"counters"`
	Gauges   map[string]int64     `json:"gauges"`
	Hists    map[string]HistState `json:"hists"`
}

// CaptureMetrics snapshots a registry into a MetricsState. A nil
// registry captures as the empty state.
func CaptureMetrics(r *Registry) *MetricsState {
	s := &MetricsState{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistState{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistState{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.bounds)+1),
			Sum:    h.Sum(),
		}
		for i := range hs.Counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Hists[name] = hs
	}
	return s
}

// Snapshot renders the state in the same flat expvar shape as
// Registry.Snapshot (minus uptime), so a collector can serve
// reconstructed per-rank metrics with the familiar layout.
func (s *MetricsState) Snapshot() map[string]any {
	out := make(map[string]any)
	if s == nil {
		return out
	}
	for name, v := range s.Counters {
		out[name] = v
	}
	for name, v := range s.Gauges {
		out[name] = v
	}
	for name, hs := range s.Hists {
		buckets := make([]histBucket, 0, len(hs.Counts))
		for i, c := range hs.Counts {
			if i < len(hs.Bounds) {
				buckets = append(buckets, histBucket{Le: hs.Bounds[i], Count: c})
			} else {
				buckets = append(buckets, histBucket{Le: "+Inf", Count: c})
			}
		}
		var count int64
		for _, c := range hs.Counts {
			count += c
		}
		out[name] = map[string]any{"count": count, "sum": hs.Sum, "buckets": buckets}
	}
	return out
}
