package sim

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// CampaignOptions configures a campaign run.
type CampaignOptions struct {
	// Out receives progress and failure reports; nil discards them.
	Out io.Writer
	// Verbose prints every case, not just failures.
	Verbose bool
	// Workers runs cases concurrently (default 1). Each case already
	// spins up a multi-rank machine, so a small value saturates hosts.
	Workers int
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Cases    int
	Failed   int
	Failures []Result // the failing cases, in index order

	// Explored-surface counters, summed over all cases.
	FaultCases     int
	PerturbedCases int
	DiskCases      int
	GSTCrashes     int // cases whose GST build really lost a rank
	WorkersLost    int64
	Retransmits    int
	Quarantined    int
}

// Campaign runs cases 0..n-1 of the given campaign seed and collects
// every oracle failure. Failures are printed as they are found, each
// with the command line that replays it.
func Campaign(seed int64, n int, opt CampaignOptions) CampaignResult {
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}

	results := make([]Result, n)
	var mu sync.Mutex // serializes printing only
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res := RunCase(CaseFor(seed, i))
				results[i] = res
				mu.Lock()
				if res.Failed() {
					fmt.Fprint(out, FailureReport(res))
				} else if opt.Verbose {
					fmt.Fprintf(out, "ok   %s (%.1fs)\n", res.Case, res.Wall.Seconds())
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	cr := CampaignResult{Cases: n}
	for i := range results {
		res := &results[i]
		if res.Failed() {
			cr.Failed++
			cr.Failures = append(cr.Failures, *res)
		}
		if res.Case.FaultSpec != "" {
			cr.FaultCases++
		}
		if res.Case.ScheduleSeed != 0 {
			cr.PerturbedCases++
		}
		if res.Case.StoreDisk {
			cr.DiskCases++
		}
		if res.GSTCrashed {
			cr.GSTCrashes++
		}
		cr.WorkersLost += res.WorkersLost
		cr.Retransmits += res.Retransmits
		cr.Quarantined += res.Quarantined
	}
	return cr
}

// FailureReport renders one failing case with its reproduction line.
func FailureReport(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FAIL %s\n", res.Case)
	for _, f := range res.Failures {
		fmt.Fprintf(&b, "     %s\n", f)
	}
	fmt.Fprintf(&b, "     repro: %s\n", res.Case.Repro())
	return b.String()
}

// String renders the campaign summary line recorded in EXPERIMENTS.md.
func (cr CampaignResult) String() string {
	return fmt.Sprintf("%d cases (%d with faults, %d schedule-perturbed, %d out-of-core): %d failed; %d GST-phase crashes fired, %d workers lost, %d retransmits, %d clusters quarantined",
		cr.Cases, cr.FaultCases, cr.PerturbedCases, cr.DiskCases, cr.Failed,
		cr.GSTCrashes, cr.WorkersLost, cr.Retransmits, cr.Quarantined)
}

// Shrink minimizes a failing case: it greedily drops fault-spec fields
// and the schedule perturbation while the case (as judged by fails,
// normally RunCase) keeps failing, iterating to a fixpoint. The
// returned case fails with the smallest fault surface found; the
// second return counts the candidate evaluations spent.
func Shrink(c Case, fails func(Case) bool) (Case, int) {
	evals := 0
	try := func(cand Case) bool {
		evals++
		return fails(cand)
	}
	changed := true
	for changed {
		changed = false
		// Drop one fault-spec field at a time (the trailing seed field
		// only matters while probabilistic fields remain).
		fields := splitSpec(c.FaultSpec)
		for i := 0; i < len(fields); i++ {
			if strings.HasPrefix(fields[i], "seed=") {
				continue
			}
			cand := c
			cand.FaultSpec = joinSpec(append(append([]string{}, fields[:i]...), fields[i+1:]...))
			if try(cand) {
				c = cand
				changed = true
				fields = splitSpec(c.FaultSpec)
				i = -1 // restart over the shorter spec
			}
		}
		if c.ScheduleSeed != 0 {
			cand := c
			cand.ScheduleSeed = 0
			if try(cand) {
				c = cand
				changed = true
			}
		}
	}
	return c, evals
}

// splitSpec splits a fault spec into fields; empty spec → no fields.
func splitSpec(spec string) []string {
	if spec == "" {
		return nil
	}
	return strings.Split(spec, ",")
}

// joinSpec reassembles a spec, collapsing to "" when only the seed
// field is left (a seed alone injects nothing).
func joinSpec(fields []string) string {
	onlySeed := true
	for _, f := range fields {
		if !strings.HasPrefix(f, "seed=") {
			onlySeed = false
		}
	}
	if len(fields) == 0 || onlySeed {
		return ""
	}
	return strings.Join(fields, ",")
}
