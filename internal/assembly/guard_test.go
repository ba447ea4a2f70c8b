package assembly

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/simulate"
)

func guardStore(t *testing.T) (*seq.Store, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	g := simulate.NewGenome(rng, "g", simulate.GenomeConfig{Length: 1500})
	frags := tiledReads(rng, g.Seq, 300, 150, 0)
	members := make([]int, len(frags))
	for i := range members {
		members[i] = i
	}
	return seq.NewStore(frags), members
}

// TestGuardHealthyPassthrough: a guard around a healthy cluster
// changes nothing — same contigs as the unguarded assembler, one
// attempt, no quarantine.
func TestGuardHealthyPassthrough(t *testing.T) {
	st, members := guardStore(t)
	want := AssembleCluster(st, members, Config{})
	got, out := AssembleClusterGuarded(st, 0, members, Config{}, Guard{Retries: 2})
	if out.Quarantined || out.Attempts != 1 || out.Err != "" {
		t.Fatalf("healthy cluster outcome: %+v", out)
	}
	if len(got) != len(want) {
		t.Fatalf("%d contigs, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].Bases) != string(want[i].Bases) {
			t.Fatalf("contig %d differs under guard", i)
		}
	}
}

// TestGuardDeadlineQuarantines: a cluster that cannot finish inside
// its deadline is retried, then quarantined as singleton contigs, with
// retry and quarantine events traced and counted — and the failure
// never propagates as a panic or error.
func TestGuardDeadlineQuarantines(t *testing.T) {
	st, members := guardStore(t)
	tr := obs.NewTracer(1, 0)
	reg := obs.NewRegistry()
	// Every attempt hangs until the test is over, so the deadline
	// decides each one however fast the real assembler is.
	release := make(chan struct{})
	assembleCluster = func(seq.Seqs, []int, Config) []Contig {
		<-release
		return nil
	}
	t.Cleanup(func() {
		close(release)
		assembleCluster = AssembleCluster
	})
	g := Guard{Retries: 2, Backoff: time.Microsecond, Deadline: 10 * time.Millisecond, Trace: tr, Metrics: reg}
	contigs, out := AssembleClusterGuarded(st, 7, members, Config{}, g)
	if !out.Quarantined || out.Attempts != 3 || out.Err == "" {
		t.Fatalf("outcome = %+v, want quarantined after 3 attempts", out)
	}
	if len(contigs) != len(members) {
		t.Fatalf("%d singleton contigs, want %d", len(contigs), len(members))
	}
	for i, c := range contigs {
		if len(c.Reads) != 1 || c.Reads[0].Frag != members[i] {
			t.Fatalf("contig %d is not read %d's singleton: %+v", i, members[i], c.Reads)
		}
		if string(c.Bases) != string(st.Fragment(members[i]).Bases) {
			t.Fatalf("singleton %d lost bases", i)
		}
	}
	var retries, quarantines int
	for _, e := range tr.Events(0) {
		switch e.Kind {
		case obs.EvRetry:
			retries++
			if e.A != 7 {
				t.Errorf("retry event names cluster %d, want 7", e.A)
			}
		case obs.EvQuarantine:
			quarantines++
			if e.A != 7 || e.B != int64(len(members)) {
				t.Errorf("quarantine event = %+v", e)
			}
		}
	}
	if retries != 2 || quarantines != 1 {
		t.Errorf("traced %d retries and %d quarantines, want 2 and 1", retries, quarantines)
	}
	if v := reg.Counter("assembly_retries").Value(); v != 2 {
		t.Errorf("assembly_retries = %d, want 2", v)
	}
	if v := reg.Counter("assembly_quarantined").Value(); v != 1 {
		t.Errorf("assembly_quarantined = %d, want 1", v)
	}
}

// TestGuardContainsPanic: an assembler panic becomes an error inside
// one attempt, never an unwinding goroutine.
func TestGuardContainsPanic(t *testing.T) {
	if _, err := attemptCluster(nil, []int{0}, Config{}, 0); err == nil {
		t.Error("panicking attempt returned no error")
	}
}

// TestGuardAllOutcomesOrdered: AssembleAllGuarded returns one outcome
// per cluster in input order.
func TestGuardAllOutcomesOrdered(t *testing.T) {
	st, members := guardStore(t)
	clusters := [][]int{members[:2], members[2:4], members[4:]}
	contigs, outs := AssembleAllGuarded(st, clusters, Config{}, 2, Guard{})
	if len(contigs) != 3 || len(outs) != 3 {
		t.Fatalf("got %d contig sets, %d outcomes", len(contigs), len(outs))
	}
	for i, o := range outs {
		if o.Quarantined || o.Attempts != 1 {
			t.Errorf("cluster %d outcome %+v", i, o)
		}
	}
}
