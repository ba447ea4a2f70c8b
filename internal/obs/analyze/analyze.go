// Package analyze checks per-rank trace streams against the runtime's
// stream invariants and, in the same walk, stitches them into a causal
// DAG, from which it derives whole-run performance structure: the
// critical path through the modeled-clock execution, per-rank
// comm/comp/idle decompositions per phase, and straggler reports. The
// walk that explains a run is the one that certifies it lost, invented
// and duplicated no message.
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
	// live status view of its events streams): a receive whose matching
	// send has not been streamed yet is tolerated — counted in
	// Report.Unmatched and analyzed without its message edge (its idle
	// attribution is a lower bound until the sender's stream catches
	// up) — and so are open spans and channels received ahead of their
	// sends, instead of rejecting the dump as corrupt.
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
	// the dump (possible only when the sender's stream is truncated, or
	// under Options.Partial).
	Unmatched int `json:"unmatched,omitempty"`
	// SeqMatched counts receives matched to their exact send by (src,
	// seq), and Faults the fault-model instants (retransmit,
	// corrupt_frame, retry, quarantined): the trust counts, outside the
	// JSON report.
	SeqMatched int `json:"-"`
	Faults     int `json:"-"`
	// DroppedRanks lists ranks whose streams are truncated (a wrapped
	// ring, or a writer that stopped before its final record), so
	// cross-rank edges may be missing.
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

// Analyze checks one dumped run against the stream invariants, builds
// its causal DAG and reports on it. Nothing is derived from a dump it
// rejects, which it does when
//
//   - a rank's modeled clocks decrease (a tracer reused across runs
//     restarts them);
//   - a rank's send seqs are not 1, 2, 3, ... (on a truncated stream:
//     not increasing);
//   - a span ends before it begins, or is left open, on a rank whose
//     stream is whole and does not record its death (the crash or
//     cascade instant a dying rank emits last);
//   - a receive names a (src, seq) no traced send carried, or one an
//     earlier receive consumed: exactly-once delivery;
//   - a (src, dst, tag) channel has more receives than sends.
//
// A truncated stream (Dropped > 0: a wrapped ring, or a writer that
// stopped before its final record) exempts only itself: its own span
// balance, and the receives and channel counts of its sends, which may
// have been evicted. Under Options.Partial unmatched receives, open
// spans and channels received ahead of their sends are tolerated; a
// duplicate delivery is not.
func Analyze(d *obs.Dump, opt Options) (*Report, error) {
	return analyze(d, opt, false)
}

// FromTracer analyzes a live tracer's retained events. Its ranks share
// one wall clock, so it also rejects a receive that completed before
// its send began.
func FromTracer(t *obs.Tracer, opt Options) (*Report, error) {
	return analyze(t.Dump(), opt, true)
}

func analyze(d *obs.Dump, opt Options, sharedClock bool) (*Report, error) {
	if d == nil {
		return nil, fmt.Errorf("analyze: nil dump")
	}
	if len(d.Ranks) == 0 && !opt.Partial {
		return nil, fmt.Errorf("analyze: no ranks in dump")
	}
	if opt.TopSpans == 0 {
		opt.TopSpans = 10
	}
	g, err := load(d)
	if err != nil {
		return nil, err
	}
	rep := &Report{Ranks: len(g.perRank)}
	for r, n := range g.dropped {
		switch {
		case len(g.perRank[r]) == 0:
			rep.EmptyRanks = append(rep.EmptyRanks, r)
		case n > 0:
			rep.DroppedRanks = append(rep.DroppedRanks, r)
		}
	}
	for r := range g.perRank {
		if err := g.walkRank(r, rep, opt); err != nil {
			return nil, err
		}
	}
	if err := g.link(rep, opt, sharedClock); err != nil {
		return nil, err
	}
	if err := g.schedule(); err != nil {
		return nil, err
	}
	g.account(rep)
	rep.CriticalPath = criticalPath(g.nodes, g.offset, g.perRank, rep.SlowestRank)
	rep.TopSpans = g.topSpans(opt.TopSpans)
	return rep, nil
}

// channel is one (src, dst, tag) message stream.
type channel struct{ src, dst, tag int64 }

// bucket is what span balance counts per rank: spans of one opening
// kind, and of one phase for phase spans.
type bucket struct {
	open  obs.Kind
	phase int64
}

// dag is a run's causal DAG with the registries its passes share.
type dag struct {
	perRank [][]obs.Event
	dropped []uint64
	nodes   []node
	offset  []int // global id of rank r's first node
	spans   []span
	sendIdx map[msgKey]int32 // send begins by (rank, seq)
	sends   map[channel]int
	recvs   []int32 // completed receives, in node order
	ssends  []int32 // ssend completions carrying a seq
}

func load(d *obs.Dump) (*dag, error) {
	n := 0
	for _, rd := range d.Ranks {
		if rd.Rank < 0 {
			return nil, fmt.Errorf("analyze: negative rank %d in dump", rd.Rank)
		}
		n = max(n, rd.Rank+1)
	}
	g := &dag{
		perRank: make([][]obs.Event, n), dropped: make([]uint64, n), offset: make([]int, n),
		sendIdx: map[msgKey]int32{}, sends: map[channel]int{},
	}
	for _, rd := range d.Ranks {
		g.perRank[rd.Rank] = rd.Events
		g.dropped[rd.Rank] = rd.Dropped
	}
	return g, nil
}

func (g *dag) event(gid int32) obs.Event {
	return g.perRank[g.nodes[gid].rank][g.nodes[gid].idx]
}

// truncated reports whether rank r's stream lost events. A rank outside
// the dump is not truncated: nothing of it was traced.
func (g *dag) truncated(r int64) bool {
	return r >= 0 && r < int64(len(g.dropped)) && g.dropped[r] > 0
}

// walkRank adds rank r's events in program order — nodes, their
// innermost-phase attribution, phase spans, the send registry — and
// checks the rank's own invariants: clocks, send seqs, span balance.
func (g *dag) walkRank(r int, rep *Report, opt Options) error {
	g.offset[r] = len(g.nodes)
	whole := g.dropped[r] == 0
	var prevComm, prevComp float64
	var lastSeq uint64
	var open []int            // the rank's open phase spans, innermost last
	depth := map[bucket]int{} // open spans per bucket
	var unbalanced error      // the first end before its begin
	died := false
	prog := int32(-1)
	for i, e := range g.perRank[r] {
		id := int32(len(g.nodes))
		dComm, dComp := e.Comm-prevComm, e.Comp-prevComp
		if dComm < -clockEps || dComp < -clockEps {
			return fmt.Errorf("analyze: rank %d event %d: modeled clock decreased (%.9f,%.9f -> %.9f,%.9f); dump contains more than one run",
				r, i, prevComm, prevComp, e.Comm, e.Comp)
		}
		prevComm, prevComp = e.Comm, e.Comp

		// Innermost-phase attribution. Enter charges the outer
		// phase (the span had not started yet); exit charges the
		// exiting phase.
		attr := noPhase
		if n := len(open); n > 0 {
			attr = g.spans[open[n-1]].phase
		}
		switch e.Kind {
		case obs.EvPhaseEnter:
			open = append(open, len(g.spans))
			g.spans = append(g.spans, span{rank: r, phase: e.A, arg: e.B, enter: int(id), exit: -1})
		case obs.EvPhaseExit:
			if n := len(open); n > 0 {
				g.spans[open[n-1]].exit = int(id)
				open = open[:n-1]
			}
		case obs.EvSendBegin, obs.EvSsendBegin:
			g.sends[channel{int64(r), e.A, e.B}]++
			if e.Seq > 0 {
				switch {
				case e.Seq <= lastSeq:
					return fmt.Errorf("analyze: rank %d event %d: send seq %d after %d; dump contains more than one run",
						r, i, e.Seq, lastSeq)
				case whole && e.Seq != lastSeq+1:
					return fmt.Errorf("analyze: rank %d event %d: send seq %d after %d (gap: a send went untraced)",
						r, i, e.Seq, lastSeq)
				}
				lastSeq = e.Seq
				g.sendIdx[msgKey{r, e.Seq}] = id
			}
		case obs.EvRecvEnd:
			if e.C >= 0 { // C == -1: timed out, nothing received
				g.recvs = append(g.recvs, id)
			}
		case obs.EvSsendEnd:
			if e.Seq > 0 {
				g.ssends = append(g.ssends, id)
			}
		case obs.EvFault:
			died = died || e.A == obs.FaultCrash || e.A == obs.FaultCascade
		case obs.EvRetransmit, obs.EvCorruptFrame, obs.EvRetry, obs.EvQuarantine:
			rep.Faults++
		}
		if edge, ok := spanEdges[e.Kind]; ok {
			b := bucket{edge.open, noPhase}
			if b.open == obs.EvPhaseEnter {
				b.phase = e.A // phase spans balance per phase
			}
			if depth[b] += edge.step; depth[b] < 0 && unbalanced == nil {
				unbalanced = fmt.Errorf("analyze: rank %d event %d: %v without its begin", r, i, e.Kind)
			}
		}

		g.nodes = append(g.nodes, node{rank: r, idx: i, dComm: dComm, dComp: dComp, phase: attr,
			progPred: prog, msgPred: -1, ackPred: -1, binding: -1})
		prog = id
	}
	if !whole || died {
		return nil // a truncated or dying stream's spans prove nothing
	}
	if unbalanced != nil {
		return unbalanced
	}
	for b, n := range depth {
		if n != 0 && !opt.Partial {
			return fmt.Errorf("analyze: rank %d: %d unclosed %v span(s) (phase %s) on a rank that did not die",
				r, n, b.open, phaseName(b.phase))
		}
	}
	return nil
}

// link adds the cross-rank edges — a receive completion depends on its
// send's begin, an ssend completion on the receive that consumed it
// (the synchronous ack) — and checks delivery: every receive names a
// traced send, none is consumed twice, no channel is received more
// often than sent.
func (g *dag) link(rep *Report, opt Options, sharedClock bool) error {
	recvIdx := map[msgKey]int32{}
	received := map[channel]int{}
	for _, gid := range g.recvs {
		n, e := &g.nodes[gid], g.event(gid)
		received[channel{e.A, int64(n.rank), e.B}]++
		if e.Seq == 0 {
			continue // pre-seq trace: no edge
		}
		key := msgKey{int(e.A), e.Seq}
		if _, dup := recvIdx[key]; dup {
			return fmt.Errorf("analyze: rank %d event %d: (src=%d seq=%d) delivered more than once",
				n.rank, n.idx, e.A, e.Seq)
		}
		recvIdx[key] = gid
		sid, ok := g.sendIdx[key]
		switch {
		case !ok:
			rep.Unmatched++
			if !opt.Partial && !g.truncated(e.A) {
				return fmt.Errorf("analyze: rank %d event %d: received (src=%d seq=%d) but no such send was traced",
					n.rank, n.idx, e.A, e.Seq)
			}
		case sharedClock && e.Wall < g.event(sid).Wall:
			return fmt.Errorf("analyze: rank %d event %d: (src=%d seq=%d) received at %dns, before its send began at %dns",
				n.rank, n.idx, e.A, e.Seq, e.Wall, g.event(sid).Wall)
		default:
			n.msgPred = sid
			rep.SeqMatched++
		}
	}
	for _, gid := range g.ssends {
		if rid, ok := recvIdx[msgKey{g.nodes[gid].rank, g.event(gid).Seq}]; ok {
			g.nodes[gid].ackPred = rid
		}
	}
	for ch, k := range received {
		if k > g.sends[ch] && !g.truncated(ch.src) && !opt.Partial {
			return fmt.Errorf("analyze: channel %d→%d tag %d: %d receives but only %d sends",
				ch.src, ch.dst, ch.tag, k, g.sends[ch])
		}
	}
	return nil
}

// schedule assigns every node its synchronized time in Kahn
// topological order over program, message and ack edges.
func (g *dag) schedule() error {
	nodes := g.nodes
	indeg := make([]int32, len(nodes))
	succs := make([][]int32, len(nodes))
	for gid, n := range nodes {
		for _, pred := range [...]int32{n.progPred, n.msgPred, n.ackPred} {
			if pred >= 0 {
				succs[pred] = append(succs[pred], int32(gid))
				indeg[gid]++
			}
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
		var arrival, progV float64
		if n.progPred >= 0 {
			progV = nodes[n.progPred].v
			arrival = progV
			n.binding = n.progPred
		}
		if n.msgPred >= 0 && nodes[n.msgPred].v > arrival+clockEps {
			arrival = nodes[n.msgPred].v
			n.binding = n.msgPred
		}
		if n.ackPred >= 0 && nodes[n.ackPred].v > arrival+clockEps {
			arrival = nodes[n.ackPred].v
			n.binding = n.ackPred
			n.ackEdge = true
		}
		n.idle = arrival - progV
		n.v = arrival + n.dComm + n.dComp

		for _, s := range succs[gid] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed != len(nodes) {
		return fmt.Errorf("analyze: causal DAG has a cycle (%d of %d events unreachable); trace is corrupt",
			len(nodes)-processed, len(nodes))
	}
	return nil
}

// account fills the run, per-rank and per-(rank, phase) totals.
func (g *dag) account(rep *Report) {
	nranks := len(g.perRank)
	type cell struct{ comm, comp, idle float64 }
	rankCells := make([]cell, nranks)
	phaseCells := make([]map[int64]*cell, nranks)
	waitOnMaster := make([]float64, nranks)
	for r := range phaseCells {
		phaseCells[r] = map[int64]*cell{}
	}
	for gid := range g.nodes {
		n := &g.nodes[gid]
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
		e := g.perRank[n.rank][n.idx]
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
		if evs := g.perRank[r]; len(evs) > 0 {
			final = g.nodes[g.offset[r]+len(evs)-1].v
			raw := evs[len(evs)-1]
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
	for _, s := range g.spans {
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
}

// topSpans ranks the completed phase spans by synchronized duration,
// via prefix sums, and keeps the k slowest.
func (g *dag) topSpans(k int) []SpanStat {
	prefComm := make([]float64, len(g.nodes)+1)
	prefComp := make([]float64, len(g.nodes)+1)
	for gid, n := range g.nodes {
		prefComm[gid+1] = prefComm[gid] + n.dComm
		prefComp[gid+1] = prefComp[gid] + n.dComp
	}
	var stats []SpanStat
	for _, s := range g.spans {
		if s.exit < 0 {
			continue
		}
		dur := g.nodes[s.exit].v - g.nodes[s.enter].v
		comm := prefComm[s.exit+1] - prefComm[s.enter+1]
		comp := prefComp[s.exit+1] - prefComp[s.enter+1]
		stats = append(stats, SpanStat{
			Rank: s.rank, Phase: phaseName(s.phase), Arg: s.arg,
			StartSec: g.nodes[s.enter].v, DurSec: dur,
			CommSec: comm, CompSec: comp,
			IdleSec: math.Max(0, dur-comm-comp),
		})
	}
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].DurSec > stats[j].DurSec })
	if len(stats) > k {
		stats = stats[:k]
	}
	return stats
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

// spanEdges maps each span event to the kind that opens its span and
// to +1 when it opens it, -1 when it closes it.
var spanEdges = map[obs.Kind]struct {
	open obs.Kind
	step int
}{
	obs.EvSendBegin: {obs.EvSendBegin, 1}, obs.EvSendEnd: {obs.EvSendBegin, -1},
	obs.EvSsendBegin: {obs.EvSsendBegin, 1}, obs.EvSsendEnd: {obs.EvSsendBegin, -1},
	obs.EvRecvBegin: {obs.EvRecvBegin, 1}, obs.EvRecvEnd: {obs.EvRecvBegin, -1},
	obs.EvPhaseEnter: {obs.EvPhaseEnter, 1}, obs.EvPhaseExit: {obs.EvPhaseEnter, -1},
}
