// Command simrunner drives the deterministic simulation campaign: it
// expands a campaign seed into randomized pipeline runs — machine
// size, input genome, fault plan, schedule perturbation — and checks
// the serial-equivalence oracles after each one (see internal/sim).
// Every failure prints the (campaign, case) tuple and the exact
// command line that replays it.
//
// Usage:
//
//	simrunner -campaign 1 -seeds 200        # run a 200-case campaign
//	simrunner -campaign 1 -case 137         # replay one case
//	simrunner -campaign 1 -case 137 -shrink # replay and minimize it
//
// Exits non-zero if any oracle fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sim"
)

func main() {
	var (
		campaign = flag.Int64("campaign", 1, "campaign seed; every case derives from (campaign, index)")
		seeds    = flag.Int("seeds", 100, "number of cases to run")
		caseIdx  = flag.Int("case", -1, "replay a single case index instead of a campaign")
		shrink   = flag.Bool("shrink", false, "minimize each failing case's fault surface by greedy field removal")
		events   = flag.String("events-out", "", "with -case: write the clustering run's raw events dump (asmprof checks and explains it)")
		workers  = flag.Int("j", 4, "cases run concurrently")
		verbose  = flag.Bool("v", false, "print every case, not just failures")
	)
	flag.Parse()

	if *caseIdx >= 0 {
		c := sim.CaseFor(*campaign, *caseIdx)
		fmt.Println(c)
		res := sim.RunCase(c)
		if *events != "" && res.Trace != nil {
			f, err := os.Create(*events)
			if err == nil {
				err = res.Trace.WriteEvents(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "simrunner:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *events)
		}
		if !res.Failed() {
			fmt.Printf("ok: all oracles held (%.1fs)\n", res.Wall.Seconds())
			return
		}
		fmt.Print(sim.FailureReport(res))
		if *shrink {
			shrunk(c)
		}
		os.Exit(1)
	}

	fmt.Printf("campaign %d: %d cases, %d workers\n", *campaign, *seeds, *workers)
	cr := sim.Campaign(*campaign, *seeds, sim.CampaignOptions{
		Out: os.Stdout, Verbose: *verbose, Workers: *workers,
	})
	fmt.Println(cr)
	if cr.Failed == 0 {
		return
	}
	if *shrink {
		for _, res := range cr.Failures {
			shrunk(res.Case)
		}
	}
	os.Exit(1)
}

// shrunk minimizes one failing case and prints the smallest
// reproduction found.
func shrunk(c sim.Case) {
	fmt.Printf("shrinking %s ...\n", c.Repro())
	min, evals := sim.Shrink(c, func(x sim.Case) bool {
		r := sim.RunCase(x)
		return r.Failed()
	})
	fmt.Printf("minimal after %d evals: %s\n", evals, min)
}
