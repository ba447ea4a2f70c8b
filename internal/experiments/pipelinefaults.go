package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/seq"
)

// PipelineFaultArm is one end-to-end fault scenario run against the
// full clustering machine.
type PipelineFaultArm struct {
	Label           string
	Completed       bool
	PartitionMatch  bool // final partition equals the serial reference
	WorkersLost     int64
	Retransmits     int // frames resent by the reliable link (all ranks)
	FramesCorrupted int // frames the CRC32C envelope rejected (all ranks)
}

// PipelineFaultsResult holds the end-to-end fault-model demonstration.
type PipelineFaultsResult struct {
	Ranks int
	Arms  []PipelineFaultArm

	// ResumeBoundaries counts the phase boundaries at which the
	// checkpointed pipeline was "killed" and resumed; ResumeIdentical
	// reports whether every resumed run reproduced the uninterrupted
	// contigs exactly.
	ResumeBoundaries int
	ResumeIdentical  bool

	// Quarantined and DegradedCompleted come from the degraded-assembly
	// arm: a guard whose deadline no cluster can meet must quarantine
	// them all as singletons, never abort the pipeline.
	Quarantined       int
	DegradedCompleted bool
}

// PipelineFaults demonstrates the end-to-end fault model on one
// dataset: (1) a rank crash during GST construction, a worker crash
// during clustering, and a corrupting wire — separately and combined —
// must all leave the partition exactly the serial one; (2) a
// checkpointed pipeline killed at every phase boundary must resume to
// byte-identical contigs; (3) an assembly guard whose budget a cluster
// exhausts must quarantine that cluster and keep going.
func PipelineFaults(opt Options) PipelineFaultsResult {
	opt = opt.withDefaults()
	scale := opt.Scale
	if opt.Quick {
		scale = min(scale, 40000)
	}
	const p = 6
	reads := maizeReads(opt.Seed, scale)
	store := seq.NewStore(reads)
	cfg := clusterConfig()
	want := partitionLabels(cluster.Serial(store, cfg))
	res := PipelineFaultsResult{Ranks: p}

	// (1) Combined-fault clustering arms.
	pcfg := func(spec string) cluster.ParallelConfig {
		c := opt.parallelConfig(p)
		c.BatchSize = 16 // many reports per worker, so report-indexed kills land
		c.LeaseTimeout = 2 * time.Second
		if spec != "" {
			plan, err := cluster.ParseFaults(spec)
			if err != nil {
				panic(err)
			}
			c.Faults = plan
		}
		return c
	}
	arms := []struct{ label, spec string }{
		{"fault-free", ""},
		{"gst crash", fmt.Sprintf("gstcrash=2@2,seed=%d", opt.Seed)},
		{"worker crash", fmt.Sprintf("crash=4@3,seed=%d", opt.Seed)},
		{"corrupt 2%", fmt.Sprintf("corrupt=0.02,seed=%d", opt.Seed)},
		{"all combined", fmt.Sprintf("gstcrash=2@2,crash=4@3,corrupt=0.02,seed=%d", opt.Seed)},
	}
	for _, a := range arms {
		arm := PipelineFaultArm{Label: a.label}
		cres, ph, err := cluster.Parallel(store, cfg, pcfg(a.spec))
		if err == nil {
			arm.Completed = true
			arm.PartitionMatch = matchLabels(partitionLabels(cres), want)
			arm.WorkersLost = cres.Stats.WorkersLost
			arm.Retransmits = ph.GST.TotalRetransmits + ph.Cluster.TotalRetransmits
			arm.FramesCorrupted = ph.GST.TotalFramesCorrupted + ph.Cluster.TotalFramesCorrupted
		}
		res.Arms = append(res.Arms, arm)
	}

	// (2) Kill-and-resume at every phase boundary.
	ccfg := core.DefaultConfig()
	ccfg.PreprocessEnabled = false // reads are already preprocessed
	ccfg.Cluster = cfg
	ccfg.AssemblyWorkers = 4
	workdir, err := os.MkdirTemp("", "pipeline-faults-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(workdir)
	flags := fmt.Sprintf("experiment seed=%d scale=%d", opt.Seed, scale)
	ref, err := pipeline.Run(reads, pipeline.Config{Core: ccfg, Workdir: workdir, Flags: flags})
	if err != nil {
		panic(err)
	}
	res.ResumeIdentical = true
	for keep := 0; keep < len(pipeline.Phases); keep++ {
		if err := pipeline.Rollback(workdir, keep); err != nil {
			panic(err)
		}
		got, err := pipeline.Run(reads, pipeline.Config{Core: ccfg, Workdir: workdir, Resume: true, Flags: flags})
		if err != nil {
			panic(err)
		}
		res.ResumeBoundaries++
		if !contigsEqual(ref, got) {
			res.ResumeIdentical = false
		}
	}

	// (3) Degraded assembly: a deadline no cluster can meet.
	dcfg := ccfg
	dcfg.AssemblyGuard = &assembly.Guard{
		Retries: 1, Backoff: time.Millisecond, Deadline: time.Nanosecond,
		Metrics: opt.Metrics,
	}
	totalClusters := 0
	dres, err := core.Run(reads, dcfg)
	if err == nil {
		res.DegradedCompleted = true
		res.Quarantined = len(dres.Quarantined())
		totalClusters = len(dres.Clusters)
	}

	tb := report.NewTable(
		fmt.Sprintf("End-to-end fault model — %d ranks, %d reads", p, store.N()),
		"scenario", "done", "partition", "lost", "retransmits", "corrupted")
	for _, a := range res.Arms {
		if !a.Completed {
			tb.AddRow(a.Label, "no", "—", "—", "—", "—")
			continue
		}
		match := "exact"
		if !a.PartitionMatch {
			match = "WRONG"
		}
		tb.AddRow(a.Label, "yes", match, report.Int(a.WorkersLost),
			report.Int(int64(a.Retransmits)), report.Int(int64(a.FramesCorrupted)))
	}
	tb.Fprint(opt.Out)

	identical := "byte-identical"
	if !res.ResumeIdentical {
		identical = "DIVERGED"
	}
	fmt.Fprintf(opt.Out, "resume: killed at %d phase boundaries, contigs %s\n",
		res.ResumeBoundaries, identical)
	degraded := "completed"
	if !res.DegradedCompleted {
		degraded = "ABORTED"
	}
	fmt.Fprintf(opt.Out, "degraded assembly: %s with %d/%d clusters quarantined as singletons\n\n",
		degraded, res.Quarantined, totalClusters)
	return res
}

// contigsEqual compares two runs' assembly output (and guard
// outcomes) field by field.
func contigsEqual(a, b *core.Result) bool {
	if len(a.Contigs) != len(b.Contigs) || len(a.AssemblyOutcomes) != len(b.AssemblyOutcomes) {
		return false
	}
	for i := range a.Contigs {
		ca, cb := a.Contigs[i], b.Contigs[i]
		if len(ca) != len(cb) {
			return false
		}
		for j := range ca {
			if string(ca[j].Bases) != string(cb[j].Bases) || ca[j].Depth != cb[j].Depth ||
				len(ca[j].Reads) != len(cb[j].Reads) {
				return false
			}
			for k := range ca[j].Reads {
				if ca[j].Reads[k] != cb[j].Reads[k] {
					return false
				}
			}
		}
	}
	for i := range a.AssemblyOutcomes {
		if a.AssemblyOutcomes[i] != b.AssemblyOutcomes[i] {
			return false
		}
	}
	return true
}
