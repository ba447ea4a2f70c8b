// Package sim is the deterministic simulation campaign driver: it
// runs the full pipeline (GST build → clustering → assembly) across a
// randomized matrix of machine sizes, input genomes, fault plans and
// schedule perturbations, and checks system-wide oracles against
// serial references after every run. Every case is derived entirely
// from a (campaign seed, case index) tuple, so any failure the
// campaign finds is reproducible from the tuple it prints — the
// FoundationDB-style workflow: explore randomly, replay exactly.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// Case is one fully-specified simulation run. All fields are derived
// deterministically from (Campaign, Index) by CaseFor; the pair is the
// reproduction handle printed with every failure.
type Case struct {
	Campaign int64 // campaign seed
	Index    int   // case index within the campaign
	Seed     int64 // master seed derived from (Campaign, Index)

	// Machine and input matrix.
	Ranks        int
	GenomeLen    int
	Coverage     float64
	RepeatCopies int
	Divergence   float64

	// FaultSpec is a cluster.ParseFaults spec; empty = fault-free.
	FaultSpec string
	// ScheduleSeed perturbs message delivery and wildcard-receive
	// order (0 = default FIFO schedule).
	ScheduleSeed int64
	// ResumePhase is the phase boundary the resume oracle rolls the
	// checkpointed pipeline back to, in [0, len(pipeline.Phases)].
	ResumePhase int

	// StoreDisk runs the systems under test — parallel clustering, GST
	// build, checkpointed pipeline — over the disk-backed sequence
	// store with a spilling GST, while every serial reference stays on
	// the in-memory store: the campaign's cross-backend equivalence
	// axis.
	StoreDisk bool
	// MemBudget is the spilling GST byte budget when StoreDisk is set.
	MemBudget int64
}

// mix derives the per-case master seed with a splitmix64-style hash so
// neighbouring indices decorrelate.
func mix(campaign int64, index int) int64 {
	z := uint64(campaign) + uint64(index+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// CaseFor expands a (campaign seed, case index) tuple into a concrete
// Case. The generator only produces survivable fault plans: crashes
// name worker ranks (never the master) and always leave at least one
// worker alive, so any non-completion is an oracle failure, not an
// impossible input.
func CaseFor(campaign int64, index int) Case {
	c := Case{Campaign: campaign, Index: index, Seed: mix(campaign, index)}
	rng := rand.New(rand.NewSource(c.Seed))

	c.Ranks = []int{4, 5, 6, 8}[rng.Intn(4)]
	c.GenomeLen = 3000 + rng.Intn(3001)
	c.Coverage = 2 + rng.Float64()
	c.RepeatCopies = 4 + rng.Intn(6)
	c.Divergence = 0.01 + 0.02*rng.Float64()
	if rng.Intn(10) < 7 {
		c.ScheduleSeed = rng.Int63n(1<<31) + 1
	}
	c.ResumePhase = rng.Intn(len(pipeline.Phases) + 1)

	// Two thirds of cases inject faults.
	var parts []string
	crashed := map[int]bool{}
	crashBudget := 0 // further ranks a faulty case may crash
	if rng.Intn(3) > 0 {
		workers := c.Ranks - 1
		crashBudget = workers - 1 // at least one worker survives
		if crashBudget > 0 && rng.Intn(2) == 0 {
			r := 1 + rng.Intn(workers)
			crashed[r] = true
			crashBudget--
			parts = append(parts, fmt.Sprintf("gstcrash=%d@%d", r, 1+rng.Intn(4)))
		}
		for n := rng.Intn(3); n > 0 && crashBudget > 0; n-- {
			r := 1 + rng.Intn(workers)
			if crashed[r] {
				continue
			}
			crashed[r] = true
			crashBudget--
			parts = append(parts, fmt.Sprintf("crash=%d@%d", r, 1+rng.Intn(5)))
		}
		// Drops always ride the framed retransmitting link. A raw drop
		// can falsely fire a healthy worker (its report silently lost,
		// its lease expired), and the lease protocol never re-admits a
		// fired worker — so raw drops on a crash-shrunken pool can
		// legitimately exhaust every worker, which the campaign would
		// misread as an oracle failure. The 200-case campaign found
		// exactly that before this constraint existed.
		if rng.Intn(10) < 3 {
			parts = append(parts, fmt.Sprintf("drop=%.4f", 0.002+0.008*rng.Float64()), "retransmit")
		}
		if rng.Intn(10) < 3 {
			parts = append(parts, fmt.Sprintf("corrupt=%.4f", 0.005+0.025*rng.Float64()))
		}
		if rng.Intn(10) < 2 {
			parts = append(parts,
				fmt.Sprintf("delayp=%.3f", 0.05+0.15*rng.Float64()),
				fmt.Sprintf("delay=%dms", 1+rng.Intn(5)))
		}
	}

	// Out-of-core axis. New draws are appended at the end so every
	// earlier field keeps its derivation — old (campaign, index)
	// reproduction handles stay valid.
	if rng.Intn(3) == 0 {
		c.StoreDisk = true
		c.MemBudget = []int64{4 << 10, 32 << 10, 1 << 20}[rng.Intn(3)]
	}

	// GST-phase crashes go where they fire. A gstcrash counts
	// all-to-all sends, which only the resident build makes, so a
	// spilling case drops its own; a faulty resident case with crash
	// budget left and none draws one from a second stream, leaving the
	// first stream's draws as they were.
	isGSTCrash := func(f string) bool { return strings.HasPrefix(f, "gstcrash=") }
	if c.StoreDisk {
		parts = slices.DeleteFunc(parts, isGSTCrash)
	} else if crashBudget > 0 && !slices.ContainsFunc(parts, isGSTCrash) {
		g := rand.New(rand.NewSource(mix(c.Seed, 0)))
		var alive []int
		for r := 1; r < c.Ranks; r++ {
			if !crashed[r] {
				alive = append(alive, r)
			}
		}
		parts = append(parts, fmt.Sprintf("gstcrash=%d@%d", alive[g.Intn(len(alive))], 1+g.Intn(4)))
	}
	if len(parts) > 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", c.Seed&0x7fffffff))
		c.FaultSpec = strings.Join(parts, ",")
	}
	return c
}

// String renders the full case matrix so a failure report is
// self-describing.
func (c Case) String() string {
	faults := c.FaultSpec
	if faults == "" {
		faults = "none"
	}
	store := "mem"
	if c.StoreDisk {
		store = fmt.Sprintf("disk/%dB", c.MemBudget)
	}
	return fmt.Sprintf("case(campaign=%d index=%d): p=%d genome=%dbp cov=%.2f repeats=%dx div=%.3f faults=[%s] schedule=%d resume@%d store=%s",
		c.Campaign, c.Index, c.Ranks, c.GenomeLen, c.Coverage, c.RepeatCopies,
		c.Divergence, faults, c.ScheduleSeed, c.ResumePhase, store)
}

// Repro is the command line that replays exactly this case.
func (c Case) Repro() string {
	return fmt.Sprintf("simrunner -campaign=%d -case=%d", c.Campaign, c.Index)
}

// frags synthesizes the case's read set: a repeat-bearing genome
// sampled at the case's coverage, already preprocessed (no vector, so
// the reads enter clustering as-is).
func (c Case) frags() []*seq.Fragment {
	rng := rand.New(rand.NewSource(c.Seed))
	g := simulate.NewGenome(rng, "g", simulate.GenomeConfig{
		Length:  c.GenomeLen,
		Repeats: []simulate.RepeatFamily{{Length: 300, Copies: c.RepeatCopies, Divergence: c.Divergence}},
	})
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 200
	rc.LenSD = 30
	rc.VectorProb = 0
	return simulate.SampleWGS(rng, g, c.Coverage, rc, "r")
}

// gstFaultSpec filters the case's fault spec down to the fields
// meaningful for the standalone GST-build oracle run: GST-phase
// crashes and wire corruption. Report-indexed crashes never fire
// without the clustering protocol, and raw drops without the framed
// link would silently lose exchange data the survivable build has no
// lease protocol to recover — that path belongs to the clustering run.
func (c Case) gstFaultSpec() string {
	if c.FaultSpec == "" {
		return ""
	}
	var keep []string
	meaningful := false
	for _, f := range strings.Split(c.FaultSpec, ",") {
		switch {
		case strings.HasPrefix(f, "gstcrash=") || strings.HasPrefix(f, "corrupt="):
			meaningful = true
			keep = append(keep, f)
		case strings.HasPrefix(f, "seed=") || f == "retransmit":
			keep = append(keep, f)
		}
	}
	if !meaningful {
		return ""
	}
	return strings.Join(keep, ",")
}
