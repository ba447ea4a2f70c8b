package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// WriteText renders the report as a human-readable summary.
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "causal analysis: %d ranks, %d events\n", r.Ranks, r.EventsTotal)
	fmt.Fprintf(bw, "  makespan          %.6fs (synchronized; raw local max %.6fs)\n",
		r.MakespanSec, r.RawMakespanSec)
	total := r.CommSec + r.CompSec + r.IdleSec
	if total > 0 {
		fmt.Fprintf(bw, "  rank-seconds      %.6fs = comm %.6fs (%.1f%%) + comp %.6fs (%.1f%%) + idle %.6fs (%.1f%%)\n",
			total,
			r.CommSec, 100*r.CommSec/total,
			r.CompSec, 100*r.CompSec/total,
			r.IdleSec, 100*r.IdleSec/total)
	}
	if r.CompSec > 0 {
		fmt.Fprintf(bw, "  comm/comp ratio   %.3f\n", r.CommSec/r.CompSec)
	}
	fmt.Fprintf(bw, "  slowest rank      %d\n", r.SlowestRank)
	fmt.Fprintf(bw, "  master idle       %.6fs\n", r.MasterIdleSec)
	if len(r.DroppedRanks) > 0 {
		fmt.Fprintf(bw, "  WARNING: truncated streams on ranks %v (a wrapped ring, or a writer that stopped before its final record); %d recvs unmatched — results are partial\n",
			r.DroppedRanks, r.Unmatched)
	}
	if len(r.EmptyRanks) > 0 {
		fmt.Fprintf(bw, "  no events from ranks %v: nothing traced there, or no dump covers them; %d recvs unmatched\n",
			r.EmptyRanks, r.Unmatched)
	}

	fmt.Fprintf(bw, "\nper-rank decomposition:\n")
	fmt.Fprintf(bw, "  %-5s %12s %12s %12s %12s %14s\n", "rank", "total", "comm", "comp", "idle", "wait-on-master")
	for _, rt := range r.RankTotals {
		fmt.Fprintf(bw, "  %-5d %11.6fs %11.6fs %11.6fs %11.6fs %13.6fs\n",
			rt.Rank, rt.TotalSec, rt.CommSec, rt.CompSec, rt.IdleSec, rt.WaitOnMasterSec)
	}

	fmt.Fprintf(bw, "\nper-phase decomposition (rank-seconds, innermost phase wins):\n")
	fmt.Fprintf(bw, "  %-18s %12s %12s %12s %8s %12s %10s %6s\n",
		"phase", "comm", "comp", "idle", "ranks", "max-rank", "imbalance", "spans")
	for _, ps := range r.Phases {
		fmt.Fprintf(bw, "  %-18s %11.6fs %11.6fs %11.6fs %8d %7.6fs@%-2d %10.3f %6d\n",
			ps.Phase, ps.CommSec, ps.CompSec, ps.IdleSec,
			ps.RankCount, ps.MaxRankSec, ps.MaxRank, ps.Imbalance, ps.Spans)
	}

	fmt.Fprintf(bw, "\ncritical path: %.6fs over %d segment(s), %d cross-rank hop(s)\n",
		r.CriticalPath.LengthSec, len(r.CriticalPath.Segments), r.CriticalPath.Hops)
	for _, s := range r.CriticalPath.Segments {
		fmt.Fprintf(bw, "  %-6s rank %-3d %11.6fs .. %11.6fs  (events %d..%d)\n",
			s.Via, s.Rank, s.StartSec, s.EndSec, s.FirstEvent, s.LastEvent)
	}
	fmt.Fprintf(bw, "critical-path time by phase:\n")
	for _, p := range r.CriticalPath.PhaseTotals {
		fmt.Fprintf(bw, "  %-18s %11.6fs  (comm %.6fs, comp %.6fs)\n",
			p.Phase, p.Sec, p.CommSec, p.CompSec)
	}

	if len(r.TopSpans) > 0 {
		fmt.Fprintf(bw, "\nslowest spans (synchronized duration):\n")
		fmt.Fprintf(bw, "  %-18s %-5s %6s %12s %12s %12s %12s\n",
			"phase", "rank", "arg", "dur", "comm", "comp", "idle")
		for _, s := range r.TopSpans {
			fmt.Fprintf(bw, "  %-18s %-5d %6d %11.6fs %11.6fs %11.6fs %11.6fs\n",
				s.Phase, s.Rank, s.Arg, s.DurSec, s.CommSec, s.CompSec, s.IdleSec)
		}
	}
	return bw.Flush()
}

// WriteJSON writes the report as indented JSON. The report holds only
// structs and slices, so the encoding is byte-deterministic.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteAnnotatedChrome re-exports the dump as Chrome trace_event JSON
// with every event on the critical path carrying a "crit":true
// argument, so the path lights up under a search for "crit" in a
// trace viewer. d must be the dump the report was computed from.
func (r *Report) WriteAnnotatedChrome(w io.Writer, d *obs.Dump) error {
	g, err := load(d)
	if err != nil {
		return err
	}
	// Per-rank inclusive index ranges covered by the path.
	type span struct{ lo, hi int }
	crit := make([][]span, len(g.perRank))
	for _, s := range r.CriticalPath.Segments {
		if s.Rank < len(crit) {
			crit[s.Rank] = append(crit[s.Rank], span{s.FirstEvent, s.LastEvent})
		}
	}
	annotate := func(rank, idx int) map[string]any {
		for _, s := range crit[rank] {
			if idx >= s.lo && idx <= s.hi {
				return map[string]any{"crit": true}
			}
		}
		return nil
	}
	return obs.WriteChromeTraceEvents(w, g.perRank, g.dropped, annotate)
}
