package bench

import (
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/prof"
)

// TestProfileLabelExactness runs the 8-rank cluster workload under a
// profiling session and checks the labeling contract end to end:
// nearly every labelable CPU sample carries both rank and phase
// labels, the critical-path phase is named by the causal DAG, and the
// labeled per-phase CPU totals rank-correlate with the analyze
// compute decomposition of the very same run.
func TestProfileLabelExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled 8-rank workload run")
	}
	dir := t.TempDir()
	rep, arts, err := RunProfile("cluster", Config{Ranks: 8, Iters: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalSamples < 10 {
		t.Skipf("only %d CPU samples on this machine — too few to judge coverage", rep.TotalSamples)
	}

	// ≥90% of labelable samples (runtime system goroutines cannot
	// carry goroutine labels) must be dual-labeled.
	if rep.LabeledUser < 90 {
		t.Errorf("dual-labeled = %.1f%% of labelable samples (%d/%d total, %d system), want ≥90%%",
			rep.LabeledUser, rep.BothLabeled, rep.TotalSamples, rep.SystemSamples)
	}
	if rep.CritSource != "causal-dag" {
		t.Errorf("critical phase named by %q, want causal-dag (events.json join)", rep.CritSource)
	}
	if rep.CritPhase == "" || len(rep.CritFuncs) == 0 {
		t.Fatalf("no critical-phase attribution: phase %q, %d funcs", rep.CritPhase, len(rep.CritFuncs))
	}

	// Correlate labeled CPU nanos per phase with the analyze compute
	// decomposition of the same events.
	cpus, _, err := prof.ParseFiles([]string{arts.CPU})
	if err != nil {
		t.Fatal(err)
	}
	sampled := prof.PhaseCPUNanos(cpus)
	d, err := obs.ReadDumpFile(filepath.Join(dir, "events.json"))
	if err != nil {
		t.Fatal(err)
	}
	arep, err := analyze.Analyze(d, analyze.Options{TopSpans: 1})
	if err != nil {
		t.Fatal(err)
	}
	causal := map[string]float64{}
	for _, ps := range arep.Phases {
		if ps.Phase != "" && ps.Phase != "(unphased)" {
			causal[ps.Phase] = ps.CompSec
		}
	}
	// Ranking host CPU against modeled compute is only meaningful for
	// phases whose modeled compute is charged per unit of the host work
	// they do: characters and suffixes in the GST phases, DP cells in an
	// alignment batch. The others are not: clustering work is booked
	// under align-batch, master and pairgen, so "cluster" has over
	// 100 ms of samples and modeled compute 0, and pairgen is charged a
	// flat cost per pair far below its host time. Ranking those among a
	// few dozen samples of 10 ms made the checks below a coin toss. A
	// phase of the decomposition with no sample counts as zero CPU.
	var shared []string
	for _, ph := range []string{"align-batch", "gst", "gst-fetch", "gst-redistribute"} {
		if _, ok := causal[ph]; ok {
			shared = append(shared, ph)
		}
	}
	if len(shared) < 2 {
		t.Fatalf("only %d per-unit phases in the decomposition %v", len(shared), causal)
	}
	// Both views must agree on the biggest phase, and the rank
	// correlation over shared phases must be positive.
	top := func(score func(string) float64) string {
		best, bestV := "", -1.0
		for _, ph := range shared {
			if v := score(ph); v > bestV {
				best, bestV = ph, v
			}
		}
		return best
	}
	sTop := top(func(ph string) float64 { return float64(sampled[ph]) })
	cTop := top(func(ph string) float64 { return causal[ph] })
	if sTop != cTop {
		t.Errorf("biggest phase by CPU samples (%s) != by causal decomposition (%s)\nsamples %v\ncausal %v",
			sTop, cTop, sampled, causal)
	}
	if r := spearman(shared, func(ph string) float64 { return float64(sampled[ph]) },
		func(ph string) float64 { return causal[ph] }); r <= 0 {
		t.Errorf("rank correlation %0.2f ≤ 0 between labeled CPU and causal compute\nsamples %v\ncausal %v",
			r, sampled, causal)
	}
}

// spearman computes the Spearman rank correlation of two scores over
// the same keys.
func spearman(keys []string, a, b func(string) float64) float64 {
	rank := func(score func(string) float64) map[string]float64 {
		ord := append([]string(nil), keys...)
		sort.SliceStable(ord, func(i, j int) bool { return score(ord[i]) < score(ord[j]) })
		m := make(map[string]float64, len(ord))
		for i, k := range ord {
			m[k] = float64(i)
		}
		return m
	}
	ra, rb := rank(a), rank(b)
	n := float64(len(keys))
	var d2 float64
	for _, k := range keys {
		d := ra[k] - rb[k]
		d2 += d * d
	}
	if n < 2 {
		return 0
	}
	return 1 - 6*d2/(n*(n*n-1))
}
