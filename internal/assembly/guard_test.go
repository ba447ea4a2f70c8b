package assembly

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/align"
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
	// decides each one however fast the real assembler is. Each hands
	// over its stop flag, which the deadline must have set.
	release := make(chan struct{})
	stops := make(chan *atomic.Bool, 3)
	assembleCluster = func(_ seq.Seqs, _ []int, _ Config, stop *atomic.Bool) []Contig {
		stops <- stop
		<-release
		return nil
	}
	t.Cleanup(func() {
		close(release)
		assembleCluster = assemble
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
	for k := 0; k < 3; k++ {
		if !(<-stops).Load() {
			t.Errorf("attempt %d was abandoned with its stop flag clear", k)
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

// TestStoppedAttemptAlignsNoFurtherAnchor: once an attempt's stop flag
// is set, no anchor alignment starts. Only those already running
// finish, at most one per other pool goroutine, and the attempt
// returns no contigs. The flag is set from inside the stopAt-th
// alignment, so the bound holds however the goroutines are scheduled.
func TestStoppedAttemptAlignsNoFurtherAnchor(t *testing.T) {
	st := seq.NewStore(wgsLike(rand.New(rand.NewSource(1))))
	m := members(st)
	t.Cleanup(func() { alignAnchor = align.AnchoredOverlap })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// run assembles on procs cores, setting the stop flag inside the
	// stopAt-th alignment (never, for 0), and counts the alignments.
	run := func(procs int, stopAt int64) (int64, []Contig) {
		runtime.GOMAXPROCS(procs)
		var stop atomic.Bool
		var aligned atomic.Int64
		alignAnchor = func(a, b []byte, apos, bpos, mlen, band int, sc align.Scoring, c align.Criteria) (align.Result, bool) {
			if aligned.Add(1) == stopAt {
				stop.Store(true)
			}
			return align.AnchoredOverlap(a, b, apos, bpos, mlen, band, sc, c)
		}
		contigs := assemble(st, m, DefaultConfig(), &stop)
		return aligned.Load(), contigs
	}
	const stopAt = 100
	if n, contigs := run(1, 0); contigs == nil || n < 10*stopAt {
		t.Fatalf("a full run aligned %d anchors into %d contigs", n, len(contigs))
	}
	for _, procs := range []int{1, 4} {
		n, contigs := run(procs, stopAt)
		if contigs != nil {
			t.Errorf("GOMAXPROCS %d: a stopped attempt returned %d contigs", procs, len(contigs))
		}
		if n < stopAt || n > stopAt+int64(procs-1) {
			t.Errorf("GOMAXPROCS %d: %d anchors aligned, want %d to %d", procs, n, stopAt, stopAt+procs-1)
		}
	}
}
