// Command asmpipeline runs the full cluster-then-assemble pipeline on
// a FASTA read file and writes assembled contigs.
//
// Usage:
//
//	asmpipeline -in reads.fa -out contigs.fa -ranks 8 -mask
//
// -mask enables statistical repeat detection from a 30 % read sample
// followed by masking (the Section 9.1 procedure); trimming and vector
// screening run only when the reads carry qualities / a known vector,
// so plain FASTA input passes through unmodified.
//
// With -workdir the run journals a manifest and checkpoints each phase
// boundary (preprocessed fragments, clustering partition, contigs);
// adding -resume skips phases the manifest records as complete and
// produces byte-identical output. -faults injects a fault plan into
// the parallel clustering engine (see -faults syntax in the error
// message for an empty spec); assembly always runs under a
// retry/quarantine guard, so a pathological cluster degrades to
// single-read contigs instead of aborting the pipeline.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/launch"
	"repro/internal/pipeline"
	"repro/internal/preprocess"
	"repro/internal/seq"
)

func usage(a ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"asmpipeline:"}, a...)...)
	os.Exit(2)
}

func main() {
	in := flag.String("in", "", "input FASTA file (required)")
	qual := flag.String("qual", "", "optional companion .qual file (enables quality trimming)")
	out := flag.String("out", "contigs.fa", "output contig FASTA")
	ranks := flag.Int("ranks", 1, "simulated ranks (1 = serial clustering)")
	psi := flag.Int("psi", 20, "minimum maximal-match length ψ")
	w := flag.Int("w", 10, "GST bucket prefix length (≤ ψ)")
	mask := flag.Bool("mask", false, "statistically detect and mask repeats first")
	seed := flag.Int64("seed", 1, "seed for repeat-detection sampling")
	workdir := flag.String("workdir", "", "directory for the job manifest and phase checkpoints")
	resume := flag.Bool("resume", false, "resume from the workdir's manifest, skipping completed phases")
	faults := flag.String("faults", "", "fault plan for the parallel engine, e.g. crash=2@5,gstcrash=3@1,corrupt=0.01")
	store := flag.String("store", "mem", "sequence-store backend: mem (all-RAM) or disk (out-of-core 2-bit packed store under the workdir)")
	memBudget := flag.Int64("mem-budget", 0, "spilling GST byte budget; 0 builds the full forest in memory")
	retries := flag.Int("assembly-retries", 1, "per-cluster assembly retries before quarantine")
	deadline := flag.Duration("assembly-deadline", 0, "per-attempt assembly wall budget (0 = none)")
	so := launch.RegisterFlags(flag.CommandLine, "inproc")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *workdir == "" {
		usage("-resume requires -workdir")
	}

	cfg := repro.DefaultConfig()
	cfg.Cluster.Psi = *psi
	cfg.Cluster.W = *w
	cfg.Cluster.MemBudget = *memBudget
	cfg.Store = repro.StoreConfig{Backend: *store}
	cfg.PreprocessEnabled = *mask || *qual != ""
	if *ranks >= 2 {
		cfg.Parallel = repro.DefaultParallelConfig(*ranks)
	}
	switch {
	case *faults == "":
	case so.Transport != "inproc":
		usage("-faults is for the simulated in-process machine; use real process kills with -transport", so.Transport)
	case *ranks < 2:
		usage("-faults requires -ranks ≥ 2")
	default:
		plan, err := cluster.ParseFaults(*faults)
		if err != nil {
			usage(err)
		}
		cfg.Parallel.Faults = plan
	}

	// Out-of-core fields join the fingerprint only when set, so
	// existing all-RAM workdirs keep resuming.
	manifestFlags := fmt.Sprintf("psi=%d w=%d ranks=%d mask=%v qual=%v seed=%d",
		*psi, *w, *ranks, *mask, *qual != "", *seed)
	if *store == repro.StoreDisk {
		manifestFlags += " store=disk"
	}
	if *memBudget > 0 {
		manifestFlags += fmt.Sprintf(" membudget=%d", *memBudget)
	}

	// Under -transport tcp / unix the job root becomes rank 0 and forks
	// the workers. Every rank re-reads and re-preprocesses the same
	// input deterministically; only rank 0 assembles and writes output.
	os.Exit(launch.Run("asmpipeline", *ranks, so, func(s *launch.Session) error {
		frags, err := seq.ReadFragmentsFile(*in)
		if err != nil {
			return err
		}
		if *qual != "" {
			qf, err := os.Open(*qual)
			if err != nil {
				return err
			}
			quals, err := seq.ReadQual(qf)
			qf.Close()
			if err == nil {
				err = repro.AttachQuals(frags, quals)
			}
			if err != nil {
				return fmt.Errorf("malformed qualities %s: %w", *qual, err)
			}
		}
		if *mask {
			rng := rand.New(rand.NewSource(*seed))
			sample := preprocess.Sample(rng, frags, 0.3)
			cfg.Preprocess.Repeats = repro.DetectRepeats(sample, 16, 4)
		}
		if *ranks >= 2 {
			cfg.Parallel.Trace, cfg.Parallel.Metrics = s.Tracer, s.Registry
		}
		if s.Transport != nil {
			cfg.Transport = s.Transport
			cfg.TransportRank = s.Rank
		}
		cfg.AssemblyGuard = &assembly.Guard{
			Retries:  *retries,
			Backoff:  10 * time.Millisecond,
			Deadline: *deadline,
			Trace:    s.Tracer,
			Metrics:  s.Registry,
		}

		res, err := pipeline.Run(frags, pipeline.Config{
			Core:    cfg,
			Workdir: *workdir,
			Resume:  *resume,
			Flags:   manifestFlags,
		})
		if err != nil {
			return err
		}
		defer res.Close()
		if s.Rank != 0 {
			// Worker-rank process: clustering is done, the master owns
			// all remaining phases and every output file.
			return nil
		}

		summaryTable(len(frags), res, os.Stdout)

		recs := res.ContigRecords()
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := seq.WriteFASTA(of, recs, 0); err != nil {
			of.Close()
			return err
		}
		if err := of.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d contigs to %s\n", len(recs), *out)
		return nil
	}))
}
