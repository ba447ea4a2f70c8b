package prof

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// PhaseRuntime is the pseudo-phase unlabeled samples rooted in the Go
// runtime's system goroutines (GC workers, sweeper, scavenger) fall
// under: goroutine labels cannot reach them, so they are classified
// rather than miscounted against the labeling contract.
const PhaseRuntime = "(runtime)"

// PhaseUnlabeled is the pseudo-phase for samples with no phase label
// that are not runtime system work (the main goroutine, rank time
// outside any phase span).
const PhaseUnlabeled = "(unlabeled)"

// Options tunes attribution.
type Options struct {
	// Top bounds every ranked list (default 5).
	Top int
}

// CritPhaseSec is one phase's share of an externally computed
// critical path — the analyze report's CriticalPath.PhaseTotals
// carried as plain values so prof stays below analyze in the layer
// graph (par imports prof; analyze's tests import par).
type CritPhaseSec struct {
	Phase string  `json:"phase"`
	Sec   float64 `json:"sec"`
}

// FuncStat is one function's CPU attribution. Flat counts samples
// with the function at the leaf; Cum counts samples with it anywhere
// on the stack.
type FuncStat struct {
	Function  string  `json:"function"`
	FlatNanos int64   `json:"flat_nanos"`
	CumNanos  int64   `json:"cum_nanos"`
	FlatPct   float64 `json:"flat_pct"` // of the list's scope (phase or total)
}

// AllocStat is one allocation site (leaf frame of an alloc stack).
type AllocStat struct {
	Function string `json:"function"`
	File     string `json:"file,omitempty"`
	Line     int64  `json:"line,omitempty"`
	Bytes    int64  `json:"bytes"`
	Objects  int64  `json:"objects"`
	// Phase is the site's attributed phase: the dominant phase of the
	// first caller (leaf to root) that labeled CPU samples also saw.
	// Alloc profiles carry no labels of their own.
	Phase string `json:"phase,omitempty"`
}

// RankNanos is one rank's CPU share of a phase.
type RankNanos struct {
	Rank  string `json:"rank"`
	Nanos int64  `json:"nanos"`
}

// PhaseProf is one phase's CPU attribution across ranks.
type PhaseProf struct {
	Phase   string      `json:"phase"`
	Nanos   int64       `json:"nanos"`
	Pct     float64     `json:"pct"`
	Samples int64       `json:"samples"`
	Ranks   []RankNanos `json:"ranks,omitempty"`
	Funcs   []FuncStat  `json:"funcs,omitempty"`
}

// Report is the merged attribution view asmprof renders: where the
// CPU went per phase per rank, which functions and alloc sites own
// the critical-path phase, and how well-labeled the capture was.
type Report struct {
	CPUProfiles   int   `json:"cpu_profiles"`
	AllocProfiles int   `json:"alloc_profiles"`
	TotalNanos    int64 `json:"total_nanos"`
	TotalSamples  int64 `json:"total_samples"`

	// Label coverage, weighted by sample count. System is the share
	// rooted in runtime system goroutines, which cannot carry labels.
	BothLabeled   int64   `json:"both_labeled"`
	RankLabeled   int64   `json:"rank_labeled"`
	PhaseLabeled  int64   `json:"phase_labeled"`
	SystemSamples int64   `json:"system_samples"`
	LabeledPct    float64 `json:"labeled_pct"`      // both / total
	LabeledUser   float64 `json:"labeled_user_pct"` // both / (total - system)

	// CritPhase names the critical-path phase; CritSource says who
	// named it ("causal-dag" when an analyze report was joined,
	// "cpu-samples" otherwise).
	CritPhase  string  `json:"crit_phase"`
	CritSource string  `json:"crit_source"`
	CritSec    float64 `json:"crit_sec,omitempty"` // causal seconds in that phase

	Phases     []PhaseProf `json:"phases"`
	CritFuncs  []FuncStat  `json:"crit_funcs"`
	CritAllocs []AllocStat `json:"crit_allocs,omitempty"`
	Allocs     []AllocStat `json:"allocs,omitempty"`

	TotalAllocBytes   int64 `json:"total_alloc_bytes,omitempty"`
	TotalAllocObjects int64 `json:"total_alloc_objects,omitempty"`
}

// Attribute joins labeled CPU profiles, alloc profiles and (when
// non-empty) the causal critical-path phase totals into one
// attribution report.
func Attribute(cpus, allocs []*Profile, causal []CritPhaseSec, opt Options) *Report {
	if opt.Top <= 0 {
		opt.Top = 5
	}
	r := &Report{CPUProfiles: len(cpus), AllocProfiles: len(allocs)}

	type phaseAgg struct {
		nanos   int64
		samples int64
		ranks   map[string]int64
		flat    map[string]int64
		cum     map[string]int64
	}
	phases := map[string]*phaseAgg{}
	agg := func(name string) *phaseAgg {
		pa := phases[name]
		if pa == nil {
			pa = &phaseAgg{ranks: map[string]int64{}, flat: map[string]int64{}, cum: map[string]int64{}}
			phases[name] = pa
		}
		return pa
	}
	// funcPhase learns each function's phase distribution from the
	// labeled CPU samples; alloc stacks are attributed through it.
	funcPhase := map[string]map[string]int64{}

	for _, p := range cpus {
		vi := p.valueIndex("cpu")
		si := p.ValueIndex("samples")
		for i := range p.Samples {
			s := &p.Samples[i]
			if vi < 0 || vi >= len(s.Values) {
				continue
			}
			nanos := s.Values[vi]
			count := int64(1)
			if si >= 0 && si < len(s.Values) {
				count = s.Values[si]
			}
			rank := s.Label(LabelRank)
			phase := s.Label(LabelPhase)
			r.TotalNanos += nanos
			r.TotalSamples += count
			system := false
			if rank == "" && phase == "" && isRuntimeRoot(s.Stack) {
				system = true
				r.SystemSamples += count
			}
			if rank != "" {
				r.RankLabeled += count
			}
			if phase != "" {
				r.PhaseLabeled += count
			}
			if rank != "" && phase != "" {
				r.BothLabeled += count
			}
			name := phase
			switch {
			case system:
				name = PhaseRuntime
			case name == "":
				name = PhaseUnlabeled
			}
			pa := agg(name)
			pa.nanos += nanos
			pa.samples += count
			if rank != "" {
				pa.ranks[rank] += nanos
			}
			if len(s.Stack) > 0 {
				pa.flat[s.Stack[0].Function] += nanos
				seen := map[string]bool{}
				for _, fr := range s.Stack {
					if seen[fr.Function] {
						continue
					}
					seen[fr.Function] = true
					pa.cum[fr.Function] += nanos
					if phase != "" {
						fp := funcPhase[fr.Function]
						if fp == nil {
							fp = map[string]int64{}
							funcPhase[fr.Function] = fp
						}
						fp[phase] += nanos
					}
				}
			}
		}
	}
	if r.TotalSamples > 0 {
		r.LabeledPct = 100 * float64(r.BothLabeled) / float64(r.TotalSamples)
	}
	if user := r.TotalSamples - r.SystemSamples; user > 0 {
		r.LabeledUser = 100 * float64(r.BothLabeled) / float64(user)
	}

	// Name the critical-path phase: the causal DAG's verdict when an
	// analyze report rode along, the largest labeled CPU phase
	// otherwise.
	r.CritSource = "cpu-samples"
	for _, cp := range causal {
		if cp.Phase == "(unphased)" {
			continue
		}
		if cp.Sec > r.CritSec {
			r.CritSec = cp.Sec
			r.CritPhase = cp.Phase
			r.CritSource = "causal-dag"
		}
	}
	if r.CritPhase == "" {
		var best int64
		for name, pa := range phases {
			if strings.HasPrefix(name, "(") {
				continue
			}
			if pa.nanos > best {
				best = pa.nanos
				r.CritPhase = name
			}
		}
	}

	// Assemble phase rows, largest first.
	var names []string
	for name := range phases {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if phases[names[i]].nanos != phases[names[j]].nanos {
			return phases[names[i]].nanos > phases[names[j]].nanos
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		pa := phases[name]
		pp := PhaseProf{Phase: name, Nanos: pa.nanos, Samples: pa.samples}
		if r.TotalNanos > 0 {
			pp.Pct = 100 * float64(pa.nanos) / float64(r.TotalNanos)
		}
		var rks []string
		for rk := range pa.ranks {
			rks = append(rks, rk)
		}
		sort.Slice(rks, func(i, j int) bool {
			if len(rks[i]) != len(rks[j]) { // numeric-ish order for numeric ranks
				return len(rks[i]) < len(rks[j])
			}
			return rks[i] < rks[j]
		})
		for _, rk := range rks {
			pp.Ranks = append(pp.Ranks, RankNanos{Rank: rk, Nanos: pa.ranks[rk]})
		}
		pp.Funcs = topFuncs(pa.flat, pa.cum, pa.nanos, opt.Top)
		r.Phases = append(r.Phases, pp)
		if name == r.CritPhase {
			r.CritFuncs = pp.Funcs
		}
	}

	var all []AllocStat
	for _, st := range allocSites(allocs, funcPhase) {
		all = append(all, st)
		r.TotalAllocBytes += st.Bytes
		r.TotalAllocObjects += st.Objects
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		return all[i].Function < all[j].Function
	})
	for _, st := range all {
		if len(r.Allocs) < opt.Top {
			r.Allocs = append(r.Allocs, st)
		}
		if st.Phase == r.CritPhase && len(r.CritAllocs) < opt.Top {
			r.CritAllocs = append(r.CritAllocs, st)
		}
	}
	return r
}

// allocSite keys an allocation site by the function and line of the
// leaf frame of its stacks, not by file: function names are
// module-qualified, while file paths differ between two checkouts of
// one tree.
type allocSite struct {
	fn   string
	line int64
}

// allocSites sums allocated bytes and objects per allocation site
// across ps. A site's phase is the one attributePhase finds for the
// first of its stacks it can place through funcPhase; a nil funcPhase
// places none.
func allocSites(ps []*Profile, funcPhase map[string]map[string]int64) map[allocSite]AllocStat {
	sites := map[allocSite]AllocStat{}
	for _, p := range ps {
		bi := p.valueIndex("alloc_space")
		oi := p.ValueIndex("alloc_objects")
		for i := range p.Samples {
			s := &p.Samples[i]
			if len(s.Stack) == 0 || bi < 0 || bi >= len(s.Values) {
				continue
			}
			leaf := s.Stack[0]
			k := allocSite{leaf.Function, leaf.Line}
			st, ok := sites[k]
			if !ok {
				st = AllocStat{Function: leaf.Function, File: leaf.File, Line: leaf.Line}
			}
			st.Bytes += s.Values[bi]
			if oi >= 0 && oi < len(s.Values) {
				st.Objects += s.Values[oi]
			}
			if st.Phase == "" {
				st.Phase = attributePhase(s.Stack, funcPhase)
			}
			sites[k] = st
		}
	}
	return sites
}

// attributePhase walks an (unlabeled) alloc stack leaf to root to the
// first frame of this module and returns that function's dominant
// phase on the labeled CPU samples; "" when the stack has no module
// frame or its first one never ran on a labeled sample. A library leaf
// (bytes.Fields) never decides, nor does a caller above the first
// module frame: main.main runs under every phase.
func attributePhase(stack []Frame, funcPhase map[string]map[string]int64) string {
	for _, fr := range stack {
		if !moduleFrame(fr.Function) {
			continue
		}
		fp := funcPhase[fr.Function]
		best, bestN := "", int64(-1)
		var keys []string
		for ph := range fp {
			keys = append(keys, ph)
		}
		sort.Strings(keys) // deterministic tie-break
		for _, ph := range keys {
			if fp[ph] > bestN {
				best, bestN = ph, fp[ph]
			}
		}
		return best
	}
	return ""
}

// moduleFrame reports whether a function belongs to this module: a
// repro/... package or a command's main package.
func moduleFrame(fn string) bool {
	return strings.HasPrefix(fn, "repro/") || strings.HasPrefix(fn, "main.")
}

// isRuntimeRoot reports whether a stack is rooted in the Go runtime
// (a system goroutine: GC background worker, sweeper, scavenger,
// finalizer, timer). The root is the last frame (stacks are stored
// leaf-first).
func isRuntimeRoot(stack []Frame) bool {
	if len(stack) == 0 {
		return true // no symbols: not attributable either way
	}
	root := stack[len(stack)-1].Function
	return strings.HasPrefix(root, "runtime.")
}

func topFuncs(flat, cum map[string]int64, scope int64, top int) []FuncStat {
	var fs []FuncStat
	for fn, f := range flat {
		fs = append(fs, FuncStat{Function: fn, FlatNanos: f, CumNanos: cum[fn]})
	}
	// Functions with only cumulative presence still matter (a parent
	// that never samples at the leaf); include them when flat space
	// remains below top.
	for fn, c := range cum {
		if _, ok := flat[fn]; !ok {
			fs = append(fs, FuncStat{Function: fn, CumNanos: c})
		}
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].FlatNanos != fs[j].FlatNanos {
			return fs[i].FlatNanos > fs[j].FlatNanos
		}
		if fs[i].CumNanos != fs[j].CumNanos {
			return fs[i].CumNanos > fs[j].CumNanos
		}
		return fs[i].Function < fs[j].Function
	})
	if len(fs) > top {
		fs = fs[:top]
	}
	for i := range fs {
		if scope > 0 {
			fs[i].FlatPct = 100 * float64(fs[i].FlatNanos) / float64(scope)
		}
	}
	return fs
}

// WriteText renders the report as the asmprof default view.
func (r *Report) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "profiles: %d cpu, %d alloc — %s cpu over %d samples\n",
		r.CPUProfiles, r.AllocProfiles, nanos(r.TotalNanos), r.TotalSamples)
	fmt.Fprintf(bw, "labels:   %.1f%% of samples rank+phase labeled (%.1f%% of labelable; %d runtime-system samples)\n",
		r.LabeledPct, r.LabeledUser, r.SystemSamples)
	if r.CritPhase != "" {
		fmt.Fprintf(bw, "critical-path phase: %s (named by %s", r.CritPhase, r.CritSource)
		if r.CritSec > 0 {
			fmt.Fprintf(bw, ", %.3fs of the path", r.CritSec)
		}
		fmt.Fprintf(bw, ")\n")
	}
	fmt.Fprintf(bw, "\nCPU by phase:\n")
	for _, pp := range r.Phases {
		fmt.Fprintf(bw, "  %-18s %10s  %5.1f%%  %6d samples", pp.Phase, nanos(pp.Nanos), pp.Pct, pp.Samples)
		if len(pp.Ranks) > 0 {
			parts := make([]string, 0, len(pp.Ranks))
			for _, rn := range pp.Ranks {
				parts = append(parts, fmt.Sprintf("r%s %s", rn.Rank, nanos(rn.Nanos)))
			}
			fmt.Fprintf(bw, "  [%s]", strings.Join(parts, " "))
		}
		fmt.Fprintln(bw)
	}
	if len(r.CritFuncs) > 0 {
		fmt.Fprintf(bw, "\ntop functions in %s:\n", r.CritPhase)
		writeFuncs(bw, r.CritFuncs)
	}
	if len(r.CritAllocs) > 0 {
		fmt.Fprintf(bw, "\ntop alloc sites attributed to %s:\n", r.CritPhase)
		writeAllocs(bw, r.CritAllocs)
	}
	if len(r.Allocs) > 0 {
		fmt.Fprintf(bw, "\ntop alloc sites overall (%s, %d objects):\n",
			bytesStr(r.TotalAllocBytes), r.TotalAllocObjects)
		writeAllocs(bw, r.Allocs)
	}
	return bw.err
}

func writeFuncs(w io.Writer, fs []FuncStat) {
	for _, f := range fs {
		fmt.Fprintf(w, "  %10s flat (%5.1f%%)  %10s cum  %s\n",
			nanos(f.FlatNanos), f.FlatPct, nanos(f.CumNanos), f.Function)
	}
}

func writeAllocs(w io.Writer, as []AllocStat) {
	for _, a := range as {
		loc := a.Function
		if a.File != "" {
			loc = fmt.Sprintf("%s (%s:%d)", a.Function, a.File, a.Line)
		}
		ph := a.Phase
		if ph == "" {
			ph = "?"
		}
		fmt.Fprintf(w, "  %10s  %9d objs  phase=%-14s %s\n", bytesStr(a.Bytes), a.Objects, ph, loc)
	}
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}

func nanos(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fs", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fms", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dns", n)
	}
}

func bytesStr(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// ---- diff ----

// FuncDelta is one function's CPU change between two runs.
type FuncDelta struct {
	Function string `json:"function"`
	OldNanos int64  `json:"old_nanos"`
	NewNanos int64  `json:"new_nanos"`
	Delta    int64  `json:"delta_nanos"`
}

// AllocDelta is one alloc site's change between two runs.
type AllocDelta struct {
	Function   string `json:"function"`
	File       string `json:"file,omitempty"`
	Line       int64  `json:"line,omitempty"`
	OldBytes   int64  `json:"old_bytes"`
	NewBytes   int64  `json:"new_bytes"`
	DeltaBytes int64  `json:"delta_bytes"`
	OldObjects int64  `json:"old_objects"`
	NewObjects int64  `json:"new_objects"`
}

// DiffCPU compares per-function flat CPU between two runs, largest
// absolute change first.
func DiffCPU(old, new []*Profile, top int) []FuncDelta {
	flat := func(ps []*Profile) map[string]int64 {
		m := map[string]int64{}
		for _, p := range ps {
			vi := p.valueIndex("cpu")
			for i := range p.Samples {
				s := &p.Samples[i]
				if len(s.Stack) == 0 || vi < 0 || vi >= len(s.Values) {
					continue
				}
				m[s.Stack[0].Function] += s.Values[vi]
			}
		}
		return m
	}
	o, n := flat(old), flat(new)
	return funcDeltas(o, n, top)
}

func funcDeltas(o, n map[string]int64, top int) []FuncDelta {
	seen := map[string]bool{}
	var out []FuncDelta
	add := func(fn string) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		d := FuncDelta{Function: fn, OldNanos: o[fn], NewNanos: n[fn]}
		d.Delta = d.NewNanos - d.OldNanos
		if d.Delta != 0 {
			out = append(out, d)
		}
	}
	for fn := range o {
		add(fn)
	}
	for fn := range n {
		add(fn)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := abs64(out[i].Delta), abs64(out[j].Delta)
		if ai != aj {
			return ai > aj
		}
		return out[i].Function < out[j].Function
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// DiffAllocs compares per-site allocation bytes between two runs,
// largest absolute change first. A row shows the new side's file.
func DiffAllocs(old, new []*Profile, top int) []AllocDelta {
	o, n := allocSites(old, nil), allocSites(new, nil)
	var out []AllocDelta
	add := func(k allocSite) {
		file := n[k].File
		if file == "" {
			file = o[k].File
		}
		d := AllocDelta{
			Function: k.fn, File: file, Line: k.line,
			OldBytes: o[k].Bytes, NewBytes: n[k].Bytes,
			OldObjects: o[k].Objects, NewObjects: n[k].Objects,
		}
		d.DeltaBytes = d.NewBytes - d.OldBytes
		if d.DeltaBytes != 0 || d.NewObjects != d.OldObjects {
			out = append(out, d)
		}
	}
	for k := range o {
		add(k)
	}
	for k := range n {
		if _, ok := o[k]; !ok {
			add(k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := abs64(out[i].DeltaBytes), abs64(out[j].DeltaBytes)
		if ai != aj {
			return ai > aj
		}
		return out[i].Function < out[j].Function
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
