package sim

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestCaseForDeterministic(t *testing.T) {
	a, b := CaseFor(42, 7), CaseFor(42, 7)
	if a != b {
		t.Fatalf("CaseFor not deterministic:\n%v\n%v", a, b)
	}
	if CaseFor(42, 8) == a || CaseFor(43, 7) == a {
		t.Fatal("distinct seed tuples produced identical cases")
	}
}

// TestGeneratorPlansSurvivable: every generated fault plan must parse,
// crash only worker ranks, and leave at least one worker alive — so a
// campaign non-completion is always an oracle failure, never an
// impossible input.
func TestGeneratorPlansSurvivable(t *testing.T) {
	faulty, perturbed := 0, 0
	for i := 0; i < 300; i++ {
		c := CaseFor(1, i)
		if c.Ranks < 4 || c.GenomeLen < 3000 || c.Coverage < 2 {
			t.Fatalf("case %d out of matrix range: %v", i, c)
		}
		if c.ScheduleSeed != 0 {
			perturbed++
		}
		if c.FaultSpec == "" {
			continue
		}
		faulty++
		plan, err := cluster.ParseFaults(c.FaultSpec)
		if err != nil {
			t.Fatalf("case %d: unparsable spec %q: %v", i, c.FaultSpec, err)
		}
		crashed := map[int]bool{}
		for _, cr := range plan.Crashes {
			if cr.Rank < 1 || cr.Rank >= c.Ranks {
				t.Fatalf("case %d: crash names rank %d of %d (master or out of range)", i, cr.Rank, c.Ranks)
			}
			crashed[cr.Rank] = true
		}
		if len(crashed) > c.Ranks-2 {
			t.Fatalf("case %d: %d distinct ranks crash, leaving no worker of %d ranks", i, len(crashed), c.Ranks)
		}
		if plan.DropProb > 0 && !plan.Retransmit {
			t.Fatalf("case %d: spec %q drops messages without the framed link — a healthy worker can be falsely fired", i, c.FaultSpec)
		}
		if spec := c.gstFaultSpec(); spec != "" {
			if _, err := cluster.ParseFaults(spec); err != nil {
				t.Fatalf("case %d: unparsable GST spec %q: %v", i, spec, err)
			}
			if strings.Contains(spec, "drop=") || strings.Contains(spec, "crash=") &&
				!strings.Contains(spec, "gstcrash=") {
				t.Fatalf("case %d: GST spec %q kept a clustering-only fault", i, spec)
			}
		}
	}
	if faulty == 0 || perturbed == 0 {
		t.Fatalf("generator explored nothing: %d faulty, %d perturbed of 300", faulty, perturbed)
	}
}

func TestGSTFaultSpecFilter(t *testing.T) {
	c := Case{FaultSpec: "gstcrash=2@1,crash=3@2,drop=0.005,corrupt=0.0100,delayp=0.1,delay=2ms,seed=9"}
	if got, want := c.gstFaultSpec(), "gstcrash=2@1,corrupt=0.0100,seed=9"; got != want {
		t.Fatalf("gstFaultSpec = %q, want %q", got, want)
	}
	// A spec with no GST-meaningful field collapses to fault-free.
	c = Case{FaultSpec: "crash=1@2,drop=0.005,seed=9"}
	if got := c.gstFaultSpec(); got != "" {
		t.Fatalf("gstFaultSpec = %q, want empty", got)
	}
}

// TestShrink: the shrinker must strip every fault-spec field and the
// schedule seed that the failure does not depend on, and keep the one
// it does.
func TestShrink(t *testing.T) {
	c := Case{
		FaultSpec:    "gstcrash=2@1,crash=3@2,corrupt=0.0100,seed=5",
		ScheduleSeed: 77,
	}
	fails := func(x Case) bool { return strings.Contains(x.FaultSpec, "crash=3@2") }
	min, evals := Shrink(c, fails)
	if min.FaultSpec != "crash=3@2,seed=5" {
		t.Fatalf("shrunk spec = %q, want %q (evals %d)", min.FaultSpec, "crash=3@2,seed=5", evals)
	}
	if min.ScheduleSeed != 0 {
		t.Fatal("shrinker kept an irrelevant schedule seed")
	}
	// A failure independent of the faults shrinks to the empty spec.
	min, _ = Shrink(c, func(Case) bool { return true })
	if min.FaultSpec != "" || min.ScheduleSeed != 0 {
		t.Fatalf("always-failing case did not shrink to nothing: %q/%d", min.FaultSpec, min.ScheduleSeed)
	}
}

// TestRunCaseFaultFree: a small fault-free, schedule-perturbed case
// must pass every oracle.
func TestRunCaseFaultFree(t *testing.T) {
	res := RunCase(Case{
		Campaign: -1, Index: 0, Seed: 12345,
		Ranks: 4, GenomeLen: 3000, Coverage: 2, RepeatCopies: 4, Divergence: 0.02,
		ScheduleSeed: 3, ResumePhase: 1,
	})
	if res.Failed() {
		t.Fatalf("fault-free case failed:\n%s", FailureReport(res))
	}
}

// TestRunCaseWithFaults: a case combining a GST-phase crash, a
// mid-clustering worker crash and wire corruption must still pass
// every oracle.
func TestRunCaseWithFaults(t *testing.T) {
	res := RunCase(Case{
		Campaign: -1, Index: 1, Seed: 999,
		Ranks: 5, GenomeLen: 4000, Coverage: 2.5, RepeatCopies: 6, Divergence: 0.02,
		FaultSpec:    "gstcrash=2@2,crash=3@2,corrupt=0.0200,seed=9",
		ScheduleSeed: 11, ResumePhase: 2,
	})
	if res.Failed() {
		t.Fatalf("fault case failed:\n%s", FailureReport(res))
	}
	if res.Retransmits == 0 {
		t.Error("corrupting wire produced no retransmits — fault injection inert?")
	}
	if !res.GSTCrashed {
		t.Error("gstcrash=2@2 killed no rank during the resident GST build")
	}
}

// TestCampaignSmall: a short campaign with concurrent workers must
// pass and count its explored surface.
func TestCampaignSmall(t *testing.T) {
	var buf strings.Builder
	cr := Campaign(2026, 4, CampaignOptions{Out: &buf, Verbose: true, Workers: 2})
	if cr.Failed != 0 {
		t.Fatalf("campaign failed %d/%d cases:\n%s", cr.Failed, cr.Cases, buf.String())
	}
	if cr.Cases != 4 {
		t.Fatalf("Cases = %d, want 4", cr.Cases)
	}
	if !strings.Contains(cr.String(), "4 cases") || !strings.Contains(cr.String(), "GST-phase crashes fired") {
		t.Fatalf("summary %q missing case or GST-crash count", cr.String())
	}
}

func TestFailureReportCarriesRepro(t *testing.T) {
	res := Result{Case: CaseFor(5, 3)}
	res.failf("partition oracle: %s", "synthetic")
	rep := FailureReport(res)
	if !strings.Contains(rep, "simrunner -campaign=5 -case=3") ||
		!strings.Contains(rep, "synthetic") {
		t.Fatalf("failure report incomplete:\n%s", rep)
	}
}

// TestRunCaseDiskStore: the out-of-core axis — disk-backed store,
// spilling GST at a tight budget — must pass every oracle, including
// the cross-backend contig identity and journaled-store resume.
func TestRunCaseDiskStore(t *testing.T) {
	res := RunCase(Case{
		Campaign: -1, Index: 2, Seed: 777,
		Ranks: 4, GenomeLen: 3000, Coverage: 2, RepeatCopies: 4, Divergence: 0.02,
		ScheduleSeed: 5, ResumePhase: 1,
		StoreDisk: true, MemBudget: 4 << 10,
	})
	if res.Failed() {
		t.Fatalf("disk-store case failed:\n%s", FailureReport(res))
	}
}

// TestRunCaseDiskStoreWithFaults: spilling GST and disk store under a
// crashing, corrupting fault plan — the dead worker's key range is
// adopted as an extra sweep range and every oracle must still hold.
func TestRunCaseDiskStoreWithFaults(t *testing.T) {
	res := RunCase(Case{
		Campaign: -1, Index: 3, Seed: 31337,
		Ranks: 5, GenomeLen: 4000, Coverage: 2.5, RepeatCopies: 6, Divergence: 0.02,
		FaultSpec:    "crash=3@2,corrupt=0.0200,seed=9",
		ScheduleSeed: 11, ResumePhase: 2,
		StoreDisk: true, MemBudget: 32 << 10,
	})
	if res.Failed() {
		t.Fatalf("disk-store fault case failed:\n%s", FailureReport(res))
	}
}

// TestCaseForDrawsDiskAxis: the generator must actually explore the
// out-of-core axis (about a third of cases).
func TestCaseForDrawsDiskAxis(t *testing.T) {
	disk := 0
	for i := 0; i < 60; i++ {
		c := CaseFor(7, i)
		if c.StoreDisk {
			disk++
			if c.MemBudget <= 0 {
				t.Fatalf("case %d: StoreDisk with budget %d", i, c.MemBudget)
			}
		}
	}
	if disk < 5 || disk > 40 {
		t.Fatalf("%d/60 cases drew the disk axis; generator skewed", disk)
	}
}
