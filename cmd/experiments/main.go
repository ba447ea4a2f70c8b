// Command experiments regenerates the paper's tables and figures on
// scaled synthetic workloads.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig5,table1 -scale 500000 -ranks 4,8,16,32,64
//
// Experiments: fig5, fig9, table1, table2, table3, maize, validate,
// masking, filter, comm, granularity, faults, pipelinefaults, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	runList := flag.String("run", "all", "comma-separated experiments (fig5,fig9,table1,table2,table3,maize,validate,masking,filter,comm,granularity,faults,pipelinefaults,all)")
	scale := flag.Int("scale", 250000, "base read volume in bases (the paper's 250 Mbp point)")
	ranks := flag.String("ranks", "4,8,16,32", "comma-separated simulated rank sweep")
	seed := flag.Int64("seed", 20060425, "random seed")
	quick := flag.Bool("quick", false, "shrink sweeps to CI-sized runs")
	obsAddr := flag.String("obs-addr", "", "serve /metrics and /debug/pprof on this host:port while running")
	flag.Parse()

	var rankList []int
	for _, s := range strings.Split(*ranks, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "experiments: bad rank %q\n", s)
			os.Exit(2)
		}
		rankList = append(rankList, v)
	}
	opt := experiments.Options{
		Scale: *scale,
		Ranks: rankList,
		Seed:  *seed,
		Out:   os.Stdout,
		Quick: *quick,
	}

	if *obsAddr != "" {
		opt.Metrics = obs.NewRegistry()
		srv, err := obs.Serve(*obsAddr, opt.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s (/metrics /debug/pprof)\n\n", srv.Addr)
	}
	known := map[string]func(experiments.Options){
		"fig5":           func(o experiments.Options) { experiments.Fig5(o) },
		"fig9":           func(o experiments.Options) { experiments.Fig9(o) },
		"table1":         func(o experiments.Options) { experiments.Table1(o) },
		"table2":         func(o experiments.Options) { experiments.Table2(o) },
		"table3":         func(o experiments.Options) { experiments.Table3(o) },
		"maize":          func(o experiments.Options) { experiments.Maize(o) },
		"validate":       func(o experiments.Options) { experiments.Validation(o) },
		"masking":        func(o experiments.Options) { experiments.Masking(o) },
		"filter":         func(o experiments.Options) { experiments.Filter(o) },
		"comm":           func(o experiments.Options) { experiments.Comm(o) },
		"granularity":    func(o experiments.Options) { experiments.Granularity(o) },
		"faults":         func(o experiments.Options) { experiments.FaultSweep(o) },
		"pipelinefaults": func(o experiments.Options) { experiments.PipelineFaults(o) },
	}
	order := []string{"fig5", "fig9", "table1", "table2", "table3", "maize", "validate", "masking", "filter", "comm", "granularity", "faults", "pipelinefaults"}

	var selected []string
	if *runList == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*runList, ",") {
			name = strings.TrimSpace(name)
			if _, ok := known[name]; !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		fmt.Printf("## %s\n\n", name)
		known[name](opt)
	}
}
