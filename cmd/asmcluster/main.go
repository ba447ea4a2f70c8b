// Command asmcluster runs the parallel clustering phase on a FASTA
// read file and writes the cluster assignment.
//
// Usage:
//
//	asmcluster -in reads.fa -ranks 8 -psi 20 -w 10 -out clusters.tsv
//
// With -ranks 1 clustering runs serially; otherwise on a simulated
// p-rank master–worker machine. The output TSV has one line per
// fragment: name, cluster label (smallest member index of its
// cluster).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/launch"
	"repro/internal/report"
	"repro/internal/seq"
)

func usage(a ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"asmcluster:"}, a...)...)
	os.Exit(2)
}

func main() {
	in := flag.String("in", "", "input FASTA file (required)")
	out := flag.String("out", "clusters.tsv", "output cluster assignment TSV")
	ranks := flag.Int("ranks", 1, "simulated ranks (1 = serial)")
	psi := flag.Int("psi", 20, "minimum maximal-match length ψ")
	w := flag.Int("w", 10, "GST bucket prefix length (≤ ψ)")
	minOverlap := flag.Int("minoverlap", 40, "minimum overlap length")
	minIdentity := flag.Float64("minidentity", 0.90, "minimum overlap identity")
	storeBackend := flag.String("store", "mem", "sequence-store backend: mem (all-RAM) or disk (out-of-core 2-bit packed store in a temp dir)")
	memBudget := flag.Int64("mem-budget", 0, "spilling GST byte budget; 0 builds the full forest in memory")
	faults := flag.String("faults", "", "fault injection spec, e.g. crash=2@5,drop=0.01,seed=7 (see cluster.ParseFaults)")
	lease := flag.Duration("lease", 250*time.Millisecond, "master lease timeout for fault runs")
	so := launch.RegisterFlags(flag.CommandLine, "inproc")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := cluster.DefaultConfig()
	cfg.Psi = *psi
	cfg.W = *w
	cfg.Criteria.MinOverlap = *minOverlap
	cfg.Criteria.MinIdentity = *minIdentity
	cfg.MemBudget = *memBudget
	pcfg := cluster.DefaultParallelConfig(*ranks)
	switch {
	case *faults == "":
	case so.Transport != "inproc":
		usage("-faults injects faults into the simulated in-process machine: it needs -transport inproc")
	case *ranks < 2:
		fmt.Fprintln(os.Stderr, "asmcluster: -faults ignored with -ranks 1 (serial run)")
	default:
		plan, err := cluster.ParseFaults(*faults)
		if err != nil {
			usage(err)
		}
		pcfg.Faults = plan
		pcfg.LeaseTimeout = *lease
	}

	// Under -transport tcp / unix the job root becomes rank 0 and forks
	// the workers; every rank runs this same payload, and only rank 0
	// writes output.
	os.Exit(launch.Run("asmcluster", *ranks, so, func(s *launch.Session) error {
		frags, err := seq.ReadFragmentsFile(*in)
		if err != nil {
			return err
		}
		store, closeStore, err := core.OpenStore(frags, core.StoreConfig{Backend: *storeBackend})
		if err != nil {
			return err
		}
		if closeStore != nil {
			defer closeStore()
		}

		pcfg.Trace, pcfg.Metrics = s.Tracer, s.Registry
		res, _, err := core.ClusterStage(store, core.Config{
			Cluster: cfg, Parallel: pcfg, Transport: s.Transport, TransportRank: s.Rank,
		})
		if err != nil || s.Rank != 0 {
			return err
		}

		sum := res.Summarize()
		tb := report.NewTable("Clustering summary", "metric", "value")
		tb.AddRow("fragments", report.Int(int64(store.N())))
		tb.AddRow("multi-fragment clusters", report.Int(int64(sum.NumClusters)))
		tb.AddRow("singletons", report.Int(int64(sum.NumSingletons)))
		tb.AddRow("mean cluster size", report.F2(sum.MeanSize))
		tb.AddRow("largest cluster", report.Int(int64(sum.MaxSize)))
		tb.AddRow("pairs generated", report.Int(res.Stats.Generated))
		tb.AddRow("pairs aligned", report.Int(res.Stats.Aligned))
		tb.AddRow("alignment savings", report.Pct(res.Stats.SavingsFraction()))
		if *faults != "" {
			tb.AddRow("workers lost", report.Int(res.Stats.WorkersLost))
			tb.AddRow("pairs requeued", report.Int(res.Stats.Requeued))
		}
		tb.Fprint(os.Stdout)

		if err := cluster.WriteTSV(*out, store, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
		return nil
	}))
}
