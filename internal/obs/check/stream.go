// Package check validates event traces: an obs.Tracer's live per-rank
// streams (Stream, the oracle the simulation harness runs after every
// campaign case) and loaded events dumps (Dump, which asmprof runs on
// every dump before it explains one).
package check

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// StreamSummary describes one validated in-memory trace.
type StreamSummary struct {
	Ranks      int // rank rings examined
	Events     int // events examined
	Channels   int // distinct (src, dst, tag) channels with traffic
	RecvEvents int // completed receives matched against sends
	SeqMatched int // receives matched to their exact send by (src, seq)
	Skipped    int // ranks whose per-rank invariants were skipped (ring overflow)
	Faults     int // fault-model instants (retransmit, corrupt_frame, retry, quarantined)
}

// Stream validates the runtime invariants of a tracer's retained
// per-rank event streams — the oracle form used by the simulation
// harness, which checks a machine's actual behaviour rather than its
// rendered export:
//
//   - Modeled clocks are monotone: a rank's Comm and Comp charges
//     never decrease in emission order.
//   - Spans balance: on every rank that finished OK, begin/end pairs
//     (send, ssend, recv, and each phase id) nest with no end before
//     its begin and no span left open.
//   - No receive without a send: on every (src, dst, tag) channel the
//     number of completed receives never exceeds the number of sends,
//     and the k-th earliest receive completion is no earlier than the
//     k-th earliest send start (drops and in-flight messages make
//     sends ≥ receives; nothing can be received before something was
//     sent).
//   - Sequence numbers are causal: each rank's send sequence is
//     exactly 1, 2, 3, ... with no gaps or repeats (a gap means a
//     send went untraced), and every completed receive names a (src,
//     seq) pair some traced send actually carried, each consumed at
//     most once — the exactly-once delivery guarantee, checked
//     end-to-end through the trace.
//
// okRank reports whether a rank's body returned normally; nil means
// all ranks did. Ranks that crashed are exempt from span balance (a
// rank dying mid-phase never exits it) but still feed the channel
// counts. A rank whose ring overflowed (Dropped > 0) is exempt from
// per-rank balance checks, and any overflow disables the cross-rank
// channel invariants — a truncated stream proves nothing either way.
func Stream(tr *obs.Tracer, okRank func(rank int) bool) (StreamSummary, error) {
	if tr == nil {
		return StreamSummary{}, fmt.Errorf("no tracer")
	}
	return streamOver(tr.Ranks(), tr.Events, tr.Dropped, okRank, true)
}

// Dump runs the Stream invariants over a loaded events dump — the
// merged per-process form a multi-process transport run leaves behind
// (see obs.MergeDumps). Ranks marked Dropped (truncated rings, or a
// killed process whose dump never made it to disk) are exempt from
// per-rank balance checks and disable the cross-rank matching, same
// as in the live-tracer form. Because each process stamps events with
// its own clock origin, the cross-rank wall-clock ordering check is
// skipped; the clock-free invariants (receives never exceed sends per
// channel, exactly-once (src, seq) matching) still run.
//
// A dump does not record how each rank's body returned, so with
// okRank nil a rank counts as finished unless its stream records its
// death: the crash or cascade fault instant a dying rank emits last.
func Dump(d *obs.Dump, okRank func(rank int) bool) (StreamSummary, error) {
	if d == nil || len(d.Ranks) == 0 {
		return StreamSummary{}, fmt.Errorf("no ranks in dump")
	}
	byRank := map[int]obs.RankDump{}
	died := map[int]bool{}
	n := 0
	for _, rd := range d.Ranks {
		byRank[rd.Rank] = rd
		if rd.Rank >= n {
			n = rd.Rank + 1
		}
		for _, e := range rd.Events {
			if e.Kind == obs.EvFault && (e.A == obs.FaultCrash || e.A == obs.FaultCascade) {
				died[rd.Rank] = true
			}
		}
	}
	if okRank == nil {
		okRank = func(r int) bool { return !died[r] }
	}
	return streamOver(n,
		func(r int) []obs.Event { return byRank[r].Events },
		func(r int) uint64 { return byRank[r].Dropped },
		okRank, false)
}

func streamOver(ranks int, events func(int) []obs.Event, droppedOf func(int) uint64, okRank func(rank int) bool, sharedClock bool) (StreamSummary, error) {
	var s StreamSummary
	s.Ranks = ranks
	anyDropped := false
	for r := 0; r < s.Ranks; r++ {
		if droppedOf(r) > 0 {
			anyDropped = true
		}
	}

	type channel struct{ src, dst, tag int64 }
	sendWall := map[channel][]int64{}
	recvWall := map[channel][]int64{}

	type msgID struct {
		src int64
		seq uint64
	}
	sent := map[msgID]bool{}
	type recvRef struct {
		rank, idx int
		id        msgID
	}
	var recvs []recvRef

	for r := 0; r < s.Ranks; r++ {
		evs := events(r)
		s.Events += len(evs)
		dropped := droppedOf(r) > 0
		if dropped {
			s.Skipped++
		}
		ok := okRank == nil || okRank(r)

		var lastComm, lastComp float64
		var lastSeq uint64
		depth := map[string]int{} // span family (or phase id) -> open count
		for i, e := range evs {
			if e.Comm < lastComm || e.Comp < lastComp {
				return s, fmt.Errorf("rank %d event %d (%v): modeled clock went backwards (comm %g→%g, comp %g→%g)",
					r, i, e.Kind, lastComm, e.Comm, lastComp, e.Comp)
			}
			lastComm, lastComp = e.Comm, e.Comp

			switch e.Kind {
			case obs.EvRetransmit, obs.EvCorruptFrame, obs.EvRetry, obs.EvQuarantine:
				s.Faults++
			case obs.EvSendBegin, obs.EvSsendBegin:
				if e.Seq > 0 {
					switch {
					case dropped:
						// Truncated stream: gaps are expected, order is not.
						if e.Seq <= lastSeq && lastSeq > 0 {
							return s, fmt.Errorf("rank %d event %d: send seq %d after %d (not increasing)",
								r, i, e.Seq, lastSeq)
						}
					case e.Seq != lastSeq+1:
						return s, fmt.Errorf("rank %d event %d: send seq %d after %d (gap: a send went untraced)",
							r, i, e.Seq, lastSeq)
					}
					lastSeq = e.Seq
					sent[msgID{int64(r), e.Seq}] = true
				}
				if !dropped {
					ch := channel{src: int64(r), dst: e.A, tag: e.B}
					sendWall[ch] = append(sendWall[ch], e.Wall)
				}
			case obs.EvRecvEnd:
				if e.C >= 0 && e.Seq > 0 {
					recvs = append(recvs, recvRef{rank: r, idx: i, id: msgID{e.A, e.Seq}})
				}
				if e.C >= 0 && !dropped { // C == -1: timed out, nothing received
					ch := channel{src: e.A, dst: int64(r), tag: e.B}
					recvWall[ch] = append(recvWall[ch], e.Wall)
					s.RecvEvents++
				}
			}

			if !ok || dropped {
				continue
			}
			key := spanKey(e)
			if key == "" {
				continue
			}
			if isBegin(e.Kind) {
				depth[key]++
			} else {
				depth[key]--
				if depth[key] < 0 {
					return s, fmt.Errorf("rank %d event %d: %s end without begin", r, i, key)
				}
			}
		}
		if ok && !dropped {
			for key, d := range depth {
				if d != 0 {
					return s, fmt.Errorf("rank %d: %d unclosed %s span(s) on a rank that finished OK", r, d, key)
				}
			}
		}
	}

	s.Channels = len(sendWall)
	if anyDropped {
		return s, nil // truncated streams: skip cross-rank matching
	}
	// Exact matching: every completed receive must name a traced send,
	// and no (src, seq) may be delivered twice.
	consumed := map[msgID]bool{}
	for _, rc := range recvs {
		if !sent[rc.id] {
			return s, fmt.Errorf("rank %d event %d: received (src=%d seq=%d) but no such send was traced",
				rc.rank, rc.idx, rc.id.src, rc.id.seq)
		}
		if consumed[rc.id] {
			return s, fmt.Errorf("rank %d event %d: (src=%d seq=%d) delivered more than once",
				rc.rank, rc.idx, rc.id.src, rc.id.seq)
		}
		consumed[rc.id] = true
		s.SeqMatched++
	}
	for ch, recvs := range recvWall {
		sends := sendWall[ch]
		if len(recvs) > len(sends) {
			return s, fmt.Errorf("channel %d→%d tag %d: %d receives but only %d sends",
				ch.src, ch.dst, ch.tag, len(recvs), len(sends))
		}
		if !sharedClock {
			continue // wall clocks from different processes don't compare
		}
		sort.Slice(sends, func(i, j int) bool { return sends[i] < sends[j] })
		sort.Slice(recvs, func(i, j int) bool { return recvs[i] < recvs[j] })
		for k := range recvs {
			if recvs[k] < sends[k] {
				return s, fmt.Errorf("channel %d→%d tag %d: receive %d completed at %dns before %d sends had started",
					ch.src, ch.dst, ch.tag, k, recvs[k], k+1)
			}
		}
	}
	return s, nil
}

// spanKey names the balance bucket an event belongs to, or "" for
// instants. Phase spans balance per phase id, message spans per family.
func spanKey(e obs.Event) string {
	switch e.Kind {
	case obs.EvSendBegin, obs.EvSendEnd:
		return "send"
	case obs.EvSsendBegin, obs.EvSsendEnd:
		return "ssend"
	case obs.EvRecvBegin, obs.EvRecvEnd:
		return "recv"
	case obs.EvPhaseEnter, obs.EvPhaseExit:
		return "phase:" + obs.PhaseName(e.A)
	}
	return ""
}

func isBegin(k obs.Kind) bool {
	switch k {
	case obs.EvSendBegin, obs.EvSsendBegin, obs.EvRecvBegin, obs.EvPhaseEnter:
		return true
	}
	return false
}
