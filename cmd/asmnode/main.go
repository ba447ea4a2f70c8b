// Command asmnode runs one rank of the parallel clustering engine as
// its own OS process, with ranks wired together over fault-tolerant
// TCP or Unix-domain sockets instead of in-process channels.
//
// Spawn mode forks the whole machine from one invocation — this
// process becomes rank 0 (the master) and re-executes itself once per
// worker rank:
//
//	asmnode -in reads.fa -size 4 -transport tcp -spawn -out clusters.tsv
//
// Manual mode launches each rank by hand (possibly on different
// machines for tcp), rendezvousing through a shared registry
// directory or a static -peers list:
//
//	asmnode -in reads.fa -size 4 -rank 2 -registry /shared/reg
//	asmnode -in reads.fa -size 4 -rank 1 -peers ,host1:9001,host2:9002,host3:9003 -listen :9001
//
// Every rank loads the same input and parameters (deterministic, so
// nothing is shipped over the wire); rank 0 alone writes the cluster
// assignment. Transport runs always use the fault-tolerant lease
// protocol: a SIGKILLed worker is detected by heartbeat timeout and
// its work is re-executed, and -kill-rank/-kill-after inject exactly
// that failure for conformance testing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/launch"
	"repro/internal/report"
	"repro/internal/seq"
)

func usage(a ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"asmnode:"}, a...)...)
	os.Exit(2)
}

func main() {
	in := flag.String("in", "", "input FASTA file (required)")
	out := flag.String("out", "clusters.tsv", "output cluster assignment TSV (rank 0 only)")
	size := flag.Int("size", 2, "total ranks in the machine")
	spawn := flag.Bool("spawn", false, "fork all worker ranks from this process (which becomes rank 0)")
	peers := flag.String("peers", "", "comma-separated peer addresses, index = rank (alternative to -registry)")
	lease := flag.Duration("lease", 250*time.Millisecond, "master lease timeout for re-executing lost work")
	psi := flag.Int("psi", 20, "minimum maximal-match length ψ")
	w := flag.Int("w", 10, "GST bucket prefix length (≤ ψ)")
	minOverlap := flag.Int("minoverlap", 40, "minimum overlap length")
	minIdentity := flag.Float64("minidentity", 0.90, "minimum overlap identity")
	killRank := flag.Int("kill-rank", 0, "spawn mode: SIGKILL this worker rank mid-run (0 disables)")
	killAfter := flag.Duration("kill-after", 200*time.Millisecond, "spawn mode: delay before -kill-rank fires")
	// The manual-rendezvous flags are deployment settings layered on
	// the same run session the other commands use.
	so := launch.RegisterFlags(flag.CommandLine, "tcp")
	flag.IntVar(&so.Rank, "rank", 0, "this process's rank (manual mode)")
	flag.StringVar(&so.Registry, "registry", "", "shared rendezvous directory (spawn mode creates one)")
	flag.StringVar(&so.Listen, "listen", "", "listen address for this rank (default: ephemeral)")
	flag.Uint64Var(&so.Epoch, "epoch", 1, "job epoch guarding against stale incarnations (manual mode)")
	flag.DurationVar(&so.Liveness, "liveness", 0, "declare a silent peer dead after this long (0 = transport default)")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if so.Transport == "inproc" {
		usage("every rank is an OS process here: -transport tcp or unix (asmcluster runs the in-process machine)")
	}
	if *killRank >= *size {
		usage(fmt.Sprintf("-kill-rank %d out of range for size %d", *killRank, *size))
	}
	so.Manual = !*spawn
	if *peers != "" {
		so.Peers = strings.Split(*peers, ",")
	}

	cfg := cluster.DefaultConfig()
	cfg.Psi = *psi
	cfg.W = *w
	cfg.Criteria.MinOverlap = *minOverlap
	cfg.Criteria.MinIdentity = *minIdentity
	pcfg := cluster.DefaultParallelConfig(*size)
	pcfg.LeaseTimeout = *lease

	os.Exit(launch.Run("asmnode", *size, so, func(s *launch.Session) error {
		if *killRank > 0 && *spawn && s.Rank == 0 {
			time.AfterFunc(*killAfter, func() {
				fmt.Fprintf(os.Stderr, "asmnode: injecting SIGKILL into rank %d\n", *killRank)
				_ = s.Kill(*killRank) // the rank may already have exited
			})
		}

		frags, err := seq.ReadFragmentsFile(*in)
		if err != nil {
			return err
		}
		store := seq.NewStore(frags)

		pcfg.Trace, pcfg.Metrics = s.Tracer, s.Registry
		res, _, exit, err := cluster.ParallelRank(store, cfg, pcfg, s.Rank, s.Transport)
		if err == nil && !exit.OK {
			err = fmt.Errorf("rank %d died: %s", s.Rank, exit.Reason)
		}
		if err != nil || s.Rank != 0 {
			return err
		}

		sum := res.Summarize()
		tb := report.NewTable("Clustering summary", "metric", "value")
		tb.AddRow("ranks (OS processes)", report.Int(int64(*size)))
		tb.AddRow("transport", so.Transport)
		tb.AddRow("fragments", report.Int(int64(store.N())))
		tb.AddRow("multi-fragment clusters", report.Int(int64(sum.NumClusters)))
		tb.AddRow("singletons", report.Int(int64(sum.NumSingletons)))
		tb.AddRow("pairs generated", report.Int(res.Stats.Generated))
		tb.AddRow("pairs aligned", report.Int(res.Stats.Aligned))
		tb.AddRow("workers lost", report.Int(res.Stats.WorkersLost))
		tb.AddRow("pairs requeued", report.Int(res.Stats.Requeued))
		tb.Fprint(os.Stdout)

		if err := cluster.WriteTSV(*out, store, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
		return nil
	}))
}
