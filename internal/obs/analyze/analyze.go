// Package analyze stitches per-rank trace streams into a causal DAG
// and derives whole-run performance structure from it: the critical
// path through the modeled-clock execution, per-rank comm/comp/idle
// decompositions per phase, and straggler reports.
//
// The runtime's modeled clocks are purely local: a rank blocked in
// Recv does not advance its own clock while it waits, so the maximum
// final local clock ("raw makespan") understates the synchronized
// running time. analyze recovers the synchronized schedule by
// replaying the event streams against a vector-style clock: nodes are
// events, edges are program order plus exact message edges matched on
// the sender's (rank, seq) pair, and each node's synchronized time is
//
//	v(n) = max(v(pred) for all preds) + delta(n)
//
// where delta(n) is the local modeled-clock advance since the
// previous event on the same rank. The gap between a node's arrival
// time and its program predecessor is idle (blocked) time, absorbed
// at the node and attributed to its innermost phase. By construction
// each rank's final v equals its comm + comp + idle totals exactly,
// the DAG makespan is the largest final v, and the critical path —
// the backward walk that always follows a binding predecessor —
// sums its deltas to the makespan exactly.
package analyze

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// Options tunes an analysis.
type Options struct {
	// TopSpans is how many slowest phase spans to report (default 10).
	TopSpans int

	// Partial says the dump is a mid-run prefix of an ongoing run (the
	// collector's live view): a receive whose matching send has not
	// been streamed yet is tolerated — counted in Report.Unmatched and
	// analyzed without its message edge (its idle attribution is a
	// lower bound until the sender's stream catches up) — instead of
	// rejecting the dump as corrupt.
	Partial bool
}

// Report is the full analysis of one traced run. It contains only
// structs and slices (no maps) so its JSON encoding is deterministic.
type Report struct {
	Ranks       int `json:"ranks"`
	EventsTotal int `json:"events_total"`

	// MakespanSec is the DAG makespan: the synchronized running time
	// of the run under the modeled clocks. It equals the critical
	// path length exactly.
	MakespanSec float64 `json:"makespan_sec"`
	// RawMakespanSec is the largest final local modeled clock. It
	// excludes cross-rank blocking, so MakespanSec >= RawMakespanSec.
	RawMakespanSec float64 `json:"raw_makespan_sec"`

	CommSec float64 `json:"comm_sec"` // summed over ranks
	CompSec float64 `json:"comp_sec"`
	IdleSec float64 `json:"idle_sec"`

	SlowestRank int         `json:"slowest_rank"`
	RankTotals  []RankTotal `json:"rank_totals"`

	Phases     []PhaseStat     `json:"phases"`
	RankPhases []RankPhaseStat `json:"rank_phases"`

	CriticalPath CriticalPath `json:"critical_path"`
	TopSpans     []SpanStat   `json:"top_spans"`

	// MasterIdleSec is rank 0's blocked time at recv completions —
	// the master starved waiting for worker messages.
	MasterIdleSec float64 `json:"master_idle_sec"`

	// Unmatched counts recv events whose send event is missing from
	// the dump (possible only when a sender's ring wrapped).
	Unmatched int `json:"unmatched,omitempty"`
	// DroppedRanks lists ranks whose rings evicted events; their
	// streams are truncated and cross-rank edges may be missing.
	DroppedRanks []int `json:"dropped_ranks,omitempty"`
	// EmptyRanks lists ranks with no events: nothing was traced there,
	// or no dump covered them (a killed process).
	EmptyRanks []int `json:"empty_ranks,omitempty"`
}

// RankTotal is one rank's full-run decomposition. TotalSec is the
// rank's final synchronized clock and equals Comm+Comp+Idle exactly.
type RankTotal struct {
	Rank            int     `json:"rank"`
	CommSec         float64 `json:"comm_sec"`
	CompSec         float64 `json:"comp_sec"`
	IdleSec         float64 `json:"idle_sec"`
	TotalSec        float64 `json:"total_sec"`
	WaitOnMasterSec float64 `json:"wait_on_master_sec"` // idle absorbed at recvs from rank 0
}

// PhaseStat aggregates one phase across ranks. Phases partition every
// rank's time by innermost enclosing phase, so summing Comm+Comp+Idle
// over all PhaseStats reproduces the whole-run totals.
type PhaseStat struct {
	Phase       string  `json:"phase"`
	CommSec     float64 `json:"comm_sec"`
	CompSec     float64 `json:"comp_sec"`
	IdleSec     float64 `json:"idle_sec"`
	MaxRankSec  float64 `json:"max_rank_sec"`  // slowest rank's time in this phase
	MeanRankSec float64 `json:"mean_rank_sec"` // over ranks that entered it
	Imbalance   float64 `json:"imbalance"`     // max/mean; 1.0 = perfectly balanced
	MaxRank     int     `json:"max_rank"`
	RankCount   int     `json:"rank_count"`
	Spans       int     `json:"spans"` // completed spans across ranks
}

// RankPhaseStat is one (rank, phase) cell of the decomposition.
type RankPhaseStat struct {
	Rank    int     `json:"rank"`
	Phase   string  `json:"phase"`
	CommSec float64 `json:"comm_sec"`
	CompSec float64 `json:"comp_sec"`
	IdleSec float64 `json:"idle_sec"`
}

// CriticalPath is the longest chain through the causal DAG.
type CriticalPath struct {
	// LengthSec equals Report.MakespanSec exactly.
	LengthSec float64 `json:"length_sec"`
	// Hops counts cross-rank edges the path follows.
	Hops     int         `json:"hops"`
	Segments []CPSegment `json:"segments"`
	// PhaseTotals attributes every second of the path to the phase
	// active where it was spent; the totals sum to LengthSec.
	PhaseTotals []CPPhase `json:"phase_totals"`
}

// CPSegment is a maximal same-rank run of the critical path.
// FirstEvent..LastEvent are inclusive indices into that rank's event
// stream (program order is index order, so a segment is contiguous).
type CPSegment struct {
	Rank       int     `json:"rank"`
	StartSec   float64 `json:"start_sec"` // v-clock at segment start
	EndSec     float64 `json:"end_sec"`
	FirstEvent int     `json:"first_event"`
	LastEvent  int     `json:"last_event"`
	// Via says how the path reached this segment: "start" for the
	// root, "msg" across a send→recv edge, "ack" across a
	// recv→ssend-completion edge.
	Via string `json:"via"`
}

// CPPhase is one phase's share of the critical path.
type CPPhase struct {
	Phase   string  `json:"phase"`
	Sec     float64 `json:"sec"`
	CommSec float64 `json:"comm_sec"`
	CompSec float64 `json:"comp_sec"`
}

// SpanStat is one completed phase span, ranked by synchronized
// duration. Idle = Dur - Comm - Comp is the blocked time inside it.
type SpanStat struct {
	Rank     int     `json:"rank"`
	Phase    string  `json:"phase"`
	Arg      int64   `json:"arg"` // the span's B argument (e.g. fetch round)
	StartSec float64 `json:"start_sec"`
	DurSec   float64 `json:"dur_sec"`
	CommSec  float64 `json:"comm_sec"`
	CompSec  float64 `json:"comp_sec"`
	IdleSec  float64 `json:"idle_sec"`
}

// phaseKey 0 means "outside any phase span".
const noPhase int64 = 0

func phaseName(id int64) string {
	if id == noPhase {
		return "(unphased)"
	}
	return obs.PhaseName(id)
}

// node is one event in the causal DAG.
type node struct {
	rank, idx int
	dComm     float64 // local comm-clock advance since previous event on rank
	dComp     float64
	phase     int64 // innermost phase the delta is attributed to
	progPred  int32 // global node id, -1 if first on rank
	msgPred   int32 // send-begin this recv-end depends on, -1 if none
	ackPred   int32 // recv-end this ssend-completion depends on, -1 if none

	v       float64 // synchronized completion time
	idle    float64 // arrival - v(progPred): blocked time absorbed here
	binding int32   // predecessor whose v equals the arrival time, -1 at roots
	ackEdge bool    // binding edge is the ack edge (for Via labels)
}

type msgKey struct {
	rank int
	seq  uint64
}

type span struct {
	rank        int
	phase       int64
	arg         int64
	enter, exit int // global node ids
}

const clockEps = 1e-9

// Analyze builds the causal DAG for one dumped run and reports on it.
// The dump must come from a single run: a tracer reused across runs
// resets its modeled clocks and sequence numbers, which Analyze
// detects and rejects.
func Analyze(d *obs.Dump, opt Options) (*Report, error) {
	if d == nil {
		return nil, fmt.Errorf("analyze: nil dump")
	}
	if opt.TopSpans == 0 {
		opt.TopSpans = 10
	}

	nranks := 0
	for _, rd := range d.Ranks {
		if rd.Rank+1 > nranks {
			nranks = rd.Rank + 1
		}
	}
	perRank := make([][]obs.Event, nranks)
	dropped := make([]uint64, nranks)
	for _, rd := range d.Ranks {
		if rd.Rank < 0 {
			return nil, fmt.Errorf("analyze: negative rank %d in dump", rd.Rank)
		}
		perRank[rd.Rank] = rd.Events
		dropped[rd.Rank] = rd.Dropped
	}

	rep := &Report{Ranks: nranks}
	anyDropped := false
	for r, n := range dropped {
		anyDropped = anyDropped || n > 0
		switch {
		case len(perRank[r]) == 0:
			rep.EmptyRanks = append(rep.EmptyRanks, r)
		case n > 0:
			rep.DroppedRanks = append(rep.DroppedRanks, r)
		}
	}

	// Pass 1: nodes, program edges, phase attribution, send registry.
	var nodes []node
	offset := make([]int, nranks) // global id of rank r's first node
	sendIdx := map[msgKey]int32{}
	recvIdx := map[msgKey]int32{}
	var spans []span
	openSpans := make([][]int, nranks) // stack of indices into spans
	for r := 0; r < nranks; r++ {
		offset[r] = len(nodes)
		var prevComm, prevComp float64
		var lastSeq uint64
		var stack []int64
		prog := int32(-1)
		for i, e := range perRank[r] {
			id := int32(len(nodes))
			dComm := e.Comm - prevComm
			dComp := e.Comp - prevComp
			if dComm < -clockEps || dComp < -clockEps {
				return nil, fmt.Errorf("analyze: rank %d event %d: modeled clock decreased (%.9f,%.9f -> %.9f,%.9f); dump contains more than one run",
					r, i, prevComm, prevComp, e.Comm, e.Comp)
			}
			prevComm, prevComp = e.Comm, e.Comp

			// Innermost-phase attribution. Enter charges the outer
			// phase (the span had not started yet); exit charges the
			// exiting phase.
			attr := noPhase
			if len(stack) > 0 {
				attr = stack[len(stack)-1]
			}
			switch e.Kind {
			case obs.EvPhaseEnter:
				stack = append(stack, e.A)
				openSpans[r] = append(openSpans[r], len(spans))
				spans = append(spans, span{rank: r, phase: e.A, arg: e.B, enter: int(id), exit: -1})
			case obs.EvPhaseExit:
				if len(stack) > 0 {
					stack = stack[:len(stack)-1]
				}
				if n := len(openSpans[r]); n > 0 {
					spans[openSpans[r][n-1]].exit = int(id)
					openSpans[r] = openSpans[r][:n-1]
				}
			case obs.EvSendBegin, obs.EvSsendBegin:
				if e.Seq > 0 {
					if e.Seq <= lastSeq {
						return nil, fmt.Errorf("analyze: rank %d event %d: send seq %d after %d; dump contains more than one run",
							r, i, e.Seq, lastSeq)
					}
					lastSeq = e.Seq
					sendIdx[msgKey{r, e.Seq}] = id
				}
			}

			nodes = append(nodes, node{
				rank: r, idx: i,
				dComm: dComm, dComp: dComp,
				phase:    attr,
				progPred: prog, msgPred: -1, ackPred: -1,
				binding: -1,
			})
			prog = id
		}
	}

	// Pass 2: cross-rank edges. A recv completion depends on its
	// send's begin; an ssend completion additionally depends on the
	// matching recv completion (the synchronous ack).
	for gid := range nodes {
		n := &nodes[gid]
		e := perRank[n.rank][n.idx]
		switch e.Kind {
		case obs.EvRecvEnd:
			if e.C < 0 || e.Seq == 0 {
				break // timed-out recv, or pre-seq trace: no edge
			}
			src := int(e.A)
			if sid, ok := sendIdx[msgKey{src, e.Seq}]; ok {
				n.msgPred = sid
			} else {
				rep.Unmatched++
				if !opt.Partial && src >= 0 && src < nranks && dropped[src] == 0 && !anyDropped {
					return nil, fmt.Errorf("analyze: rank %d recv of (src=%d seq=%d) has no matching send and no events were dropped",
						n.rank, src, e.Seq)
				}
			}
			recvIdx[msgKey{int(e.A), e.Seq}] = int32(gid)
		case obs.EvSsendEnd:
			if e.Seq > 0 {
				if rid, ok := recvIdx[msgKey{n.rank, e.Seq}]; ok {
					n.ackPred = rid
				}
			}
		}
	}

	// Kahn topological order over program + message + ack edges.
	indeg := make([]int32, len(nodes))
	succs := make([][]int32, len(nodes))
	addEdge := func(from, to int32) {
		succs[from] = append(succs[from], to)
		indeg[to]++
	}
	for gid := range nodes {
		n := &nodes[gid]
		if n.progPred >= 0 {
			addEdge(n.progPred, int32(gid))
		}
		if n.msgPred >= 0 {
			addEdge(n.msgPred, int32(gid))
		}
		if n.ackPred >= 0 {
			addEdge(n.ackPred, int32(gid))
		}
	}
	queue := make([]int32, 0, len(nodes))
	for gid := range nodes {
		if indeg[gid] == 0 {
			queue = append(queue, int32(gid))
		}
	}
	processed := 0
	for len(queue) > 0 {
		gid := queue[0]
		queue = queue[1:]
		processed++
		n := &nodes[gid]

		// arrival = max over predecessor completion times.
		arrival := 0.0
		progV := 0.0
		n.binding = -1
		if n.progPred >= 0 {
			progV = nodes[n.progPred].v
			arrival = progV
			n.binding = n.progPred
		}
		if n.msgPred >= 0 && nodes[n.msgPred].v > arrival+clockEps {
			arrival = nodes[n.msgPred].v
			n.binding = n.msgPred
			n.ackEdge = false
		}
		if n.ackPred >= 0 && nodes[n.ackPred].v > arrival+clockEps {
			arrival = nodes[n.ackPred].v
			n.binding = n.ackPred
			n.ackEdge = true
		}
		n.idle = arrival - progV
		if n.progPred < 0 {
			n.idle = arrival
		}
		n.v = arrival + n.dComm + n.dComp

		for _, s := range succs[gid] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed != len(nodes) {
		return nil, fmt.Errorf("analyze: causal DAG has a cycle (%d of %d events unreachable); trace is corrupt",
			len(nodes)-processed, len(nodes))
	}

	// Accumulate totals, per-rank, per-(rank,phase).
	type cell struct{ comm, comp, idle float64 }
	rankCells := make([]cell, nranks)
	phaseCells := make([]map[int64]*cell, nranks)
	waitOnMaster := make([]float64, nranks)
	for r := range phaseCells {
		phaseCells[r] = map[int64]*cell{}
	}
	for gid := range nodes {
		n := &nodes[gid]
		rc := &rankCells[n.rank]
		rc.comm += n.dComm
		rc.comp += n.dComp
		rc.idle += n.idle
		pc := phaseCells[n.rank][n.phase]
		if pc == nil {
			pc = &cell{}
			phaseCells[n.rank][n.phase] = pc
		}
		pc.comm += n.dComm
		pc.comp += n.dComp
		pc.idle += n.idle
		e := perRank[n.rank][n.idx]
		if e.Kind == obs.EvRecvEnd && n.idle > 0 {
			if n.rank == 0 {
				rep.MasterIdleSec += n.idle
			} else if e.A == 0 {
				waitOnMaster[n.rank] += n.idle
			}
		}
		rep.EventsTotal++
	}

	for r := 0; r < nranks; r++ {
		rc := rankCells[r]
		final := 0.0
		if len(perRank[r]) > 0 {
			final = nodes[offset[r]+len(perRank[r])-1].v
			raw := perRank[r][len(perRank[r])-1]
			if raw.Comm+raw.Comp > rep.RawMakespanSec {
				rep.RawMakespanSec = raw.Comm + raw.Comp
			}
		}
		rep.RankTotals = append(rep.RankTotals, RankTotal{
			Rank: r, CommSec: rc.comm, CompSec: rc.comp, IdleSec: rc.idle,
			TotalSec: final, WaitOnMasterSec: waitOnMaster[r],
		})
		rep.CommSec += rc.comm
		rep.CompSec += rc.comp
		rep.IdleSec += rc.idle
		if final > rep.MakespanSec {
			rep.MakespanSec = final
			rep.SlowestRank = r
		}
	}

	// Per-phase aggregation in a fixed phase-id order.
	var phaseIDs []int64
	seen := map[int64]bool{}
	for r := 0; r < nranks; r++ {
		for id := range phaseCells[r] {
			if !seen[id] {
				seen[id] = true
				phaseIDs = append(phaseIDs, id)
			}
		}
	}
	sort.Slice(phaseIDs, func(i, j int) bool { return phaseIDs[i] < phaseIDs[j] })
	spanCount := map[int64]int{}
	for _, s := range spans {
		if s.exit >= 0 {
			spanCount[s.phase]++
		}
	}
	for _, id := range phaseIDs {
		ps := PhaseStat{Phase: phaseName(id), Spans: spanCount[id], MaxRank: -1}
		for r := 0; r < nranks; r++ {
			pc := phaseCells[r][id]
			if pc == nil {
				continue
			}
			t := pc.comm + pc.comp + pc.idle
			ps.CommSec += pc.comm
			ps.CompSec += pc.comp
			ps.IdleSec += pc.idle
			ps.RankCount++
			if t > ps.MaxRankSec || ps.MaxRank < 0 {
				ps.MaxRankSec = t
				ps.MaxRank = r
			}
			rep.RankPhases = append(rep.RankPhases, RankPhaseStat{
				Rank: r, Phase: ps.Phase,
				CommSec: pc.comm, CompSec: pc.comp, IdleSec: pc.idle,
			})
		}
		if ps.RankCount > 0 {
			ps.MeanRankSec = (ps.CommSec + ps.CompSec + ps.IdleSec) / float64(ps.RankCount)
			if ps.MeanRankSec > 0 {
				ps.Imbalance = ps.MaxRankSec / ps.MeanRankSec
			}
		}
		rep.Phases = append(rep.Phases, ps)
	}

	// Critical path: backward walk from the sink along binding edges.
	rep.CriticalPath = criticalPath(nodes, offset, perRank, rep.SlowestRank)

	// Slowest spans by synchronized duration, via prefix sums.
	prefComm := make([]float64, len(nodes)+1)
	prefComp := make([]float64, len(nodes)+1)
	for gid := range nodes {
		prefComm[gid+1] = prefComm[gid] + nodes[gid].dComm
		prefComp[gid+1] = prefComp[gid] + nodes[gid].dComp
	}
	var stats []SpanStat
	for _, s := range spans {
		if s.exit < 0 {
			continue
		}
		dur := nodes[s.exit].v - nodes[s.enter].v
		comm := prefComm[s.exit+1] - prefComm[s.enter+1]
		comp := prefComp[s.exit+1] - prefComp[s.enter+1]
		stats = append(stats, SpanStat{
			Rank: s.rank, Phase: phaseName(s.phase), Arg: s.arg,
			StartSec: nodes[s.enter].v, DurSec: dur,
			CommSec: comm, CompSec: comp,
			IdleSec: math.Max(0, dur-comm-comp),
		})
	}
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].DurSec > stats[j].DurSec })
	if len(stats) > opt.TopSpans {
		stats = stats[:opt.TopSpans]
	}
	rep.TopSpans = stats

	return rep, nil
}

// criticalPath walks binding predecessors back from the slowest
// rank's final event and renders the chain root-first.
func criticalPath(nodes []node, offset []int, perRank [][]obs.Event, slowest int) CriticalPath {
	var cp CriticalPath
	if len(nodes) == 0 || len(perRank[slowest]) == 0 {
		return cp
	}
	sink := int32(offset[slowest] + len(perRank[slowest]) - 1)
	cp.LengthSec = nodes[sink].v

	var path []int32
	for n := sink; n >= 0; n = nodes[n].binding {
		path = append(path, n)
	}
	// Reverse to root-first.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}

	phaseSec := map[int64]*CPPhase{}
	var phaseOrder []int64
	var seg *CPSegment
	via := "start"
	for k, gid := range path {
		n := &nodes[gid]
		if seg == nil || seg.Rank != n.rank {
			if seg != nil {
				cp.Hops++
			}
			start := n.v - n.dComm - n.dComp
			cp.Segments = append(cp.Segments, CPSegment{
				Rank: n.rank, StartSec: start, EndSec: n.v,
				FirstEvent: n.idx, LastEvent: n.idx, Via: via,
			})
			seg = &cp.Segments[len(cp.Segments)-1]
		} else {
			seg.EndSec = n.v
			seg.LastEvent = n.idx
		}
		// Label for the edge into the NEXT path node.
		if k+1 < len(path) {
			next := &nodes[path[k+1]]
			if next.rank != n.rank {
				if next.ackEdge {
					via = "ack"
				} else {
					via = "msg"
				}
			}
		}
		p := phaseSec[n.phase]
		if p == nil {
			p = &CPPhase{Phase: phaseName(n.phase)}
			phaseSec[n.phase] = p
			phaseOrder = append(phaseOrder, n.phase)
		}
		p.CommSec += n.dComm
		p.CompSec += n.dComp
		p.Sec += n.dComm + n.dComp
	}
	sort.Slice(phaseOrder, func(i, j int) bool { return phaseOrder[i] < phaseOrder[j] })
	for _, id := range phaseOrder {
		cp.PhaseTotals = append(cp.PhaseTotals, *phaseSec[id])
	}
	return cp
}

// FromTracer analyzes a live tracer's retained events.
func FromTracer(t *obs.Tracer, opt Options) (*Report, error) {
	return Analyze(t.Dump(), opt)
}
