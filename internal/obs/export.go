package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing and https://ui.perfetto.dev both load it).
// Timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process IDs of the two clock domains: the same per-rank tracks are
// rendered once against the host wall clock and once against the
// machine's modeled clock.
const (
	pidWall    = 1
	pidModeled = 2
)

// chromeName returns the track label for an event: spans are named by
// family (plus the phase name for phase spans); instants keep their
// kind name.
func chromeName(e Event) string {
	switch e.Kind {
	case EvPhaseEnter, EvPhaseExit:
		return PhaseName(e.A)
	case EvFault:
		return "fault:" + FaultName(e.A)
	}
	return e.Kind.String()
}

// chromeArgs renders the kind-specific arguments. Message-transfer
// events carry the sender's sequence number so a trace file preserves
// the exact send→recv correlation (src, seq).
func chromeArgs(e Event) map[string]any {
	switch e.Kind {
	case EvSendBegin, EvSendEnd, EvSsendBegin, EvSsendEnd:
		return map[string]any{"dst": e.A, "tag": e.B, "bytes": e.C, "seq": e.Seq}
	case EvRecvBegin:
		return map[string]any{"src": e.A, "tag": e.B}
	case EvRecvEnd:
		if e.C < 0 { // timed out: nothing was received
			return map[string]any{"src": e.A, "tag": e.B, "bytes": e.C}
		}
		return map[string]any{"src": e.A, "tag": e.B, "bytes": e.C, "seq": e.Seq}
	case EvPairGenerated, EvPairAligned, EvPairDiscarded:
		return map[string]any{"count": e.A, "peer": e.B}
	case EvClusterMerge:
		return map[string]any{"fa": e.A, "fb": e.B}
	case EvLeaseGrant:
		return map[string]any{"worker": e.A, "batch": e.B, "request": e.C}
	case EvLeaseExpire:
		return map[string]any{"worker": e.A, "requeued": e.B}
	case EvLeaseAdopt:
		return map[string]any{"adopter": e.A, "portions": e.B}
	case EvFault:
		return map[string]any{"code": FaultName(e.A), "b": e.B, "c": e.C}
	case EvCheckpoint:
		return map[string]any{"bytes": e.A}
	case EvRetransmit:
		return map[string]any{"dst": e.A, "tag": e.B, "attempt": e.C}
	case EvCorruptFrame:
		return map[string]any{"dst": e.A, "tag": e.B, "bytes": e.C}
	case EvRetry:
		return map[string]any{"cluster": e.A, "attempt": e.B}
	case EvQuarantine:
		return map[string]any{"cluster": e.A, "reads": e.B}
	case EvPhaseEnter, EvPhaseExit:
		return nil
	}
	return nil
}

// WriteChromeTraceEvents renders snapshotted per-rank event slices
// (e.g. a loaded obs.Dump) as Chrome trace_event JSON. Each rank is a
// thread; the wall-clock and modeled-clock renderings are two
// processes. Unmatched begin events (a rank that died mid-operation)
// appear as unfinished spans, which is exactly what they are. dropped
// may be nil; when a rank's count is nonzero it is recorded on the
// thread_name metadata so a reader knows the stream is truncated. annotate, when non-nil, is
// called per (rank, event index) and its returned entries are merged
// into that event's args — asmprof -chrome uses it to mark
// critical-path spans.
func WriteChromeTraceEvents(w io.Writer, perRank [][]Event, dropped []uint64, annotate func(rank, idx int) map[string]any) error {
	var evs []chromeEvent
	for pid, name := range map[int]string{pidWall: "wall clock", pidModeled: "modeled clock"} {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	// Deterministic metadata order (the map above is only 2 entries but
	// map iteration order would still flip them run to run).
	sort.Slice(evs, func(i, j int) bool { return evs[i].Pid < evs[j].Pid })
	for r, events := range perRank {
		if len(events) == 0 {
			continue
		}
		meta := map[string]any{"name": fmt.Sprintf("rank %d", r)}
		if dropped != nil && dropped[r] > 0 {
			meta["dropped"] = dropped[r]
		}
		for _, pid := range [2]int{pidWall, pidModeled} {
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: r,
				Args: meta,
			})
		}
		// An end whose begin was evicted by wraparound would corrupt
		// B/E nesting; track per-family depth and drop orphan ends.
		depth := map[string]int{}
		for i, e := range events {
			name := chromeName(e)
			var ph string
			switch {
			case e.Kind.isBegin():
				ph = "B"
				depth[name]++
			case e.Kind.isEnd():
				if depth[name] == 0 {
					continue
				}
				depth[name]--
				ph = "E"
			default:
				ph = "i"
			}
			args := chromeArgs(e)
			if annotate != nil {
				if extra := annotate(r, i); len(extra) > 0 {
					if args == nil {
						args = map[string]any{}
					}
					for k, v := range extra {
						args[k] = v
					}
				}
			}
			wall := chromeEvent{
				Name: name, Ph: ph, Ts: float64(e.Wall) / 1e3,
				Pid: pidWall, Tid: r, Args: args,
			}
			model := wall
			model.Pid = pidModeled
			model.Ts = (e.Comm + e.Comp) * 1e6
			if ph == "i" {
				wall.S = "t"
				model.S = "t"
			}
			evs = append(evs, wall, model)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
