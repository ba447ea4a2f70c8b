package pgst

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs/prof"
	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/suffixtree"
)

// recordingSink keeps every sub-forest a producer makes, each in fresh
// storage, grouped by segment with the segment's cost.
type recordingSink struct {
	segs []recordedSegment
	open []*suffixtree.Tree
}

type recordedSegment struct {
	pieces []*suffixtree.Tree
	cost   float64
}

func (r *recordingSink) storage() (*suffixtree.Tree, bool) { return nil, true }
func (r *recordingSink) put(t *suffixtree.Tree) bool       { r.open = append(r.open, t); return true }
func (r *recordingSink) end(cost float64) bool {
	r.segs = append(r.segs, recordedSegment{r.open, cost})
	r.open = nil
	return true
}

// pairs generates the segment's pair stream from its sub-forests.
func (sg recordedSegment) pairs(psi, n int) []pairgen.Pair {
	var out []pairgen.Pair
	pairgen.GenerateSweep(func(add func(*suffixtree.Tree), end func(float64) bool) bool {
		for _, t := range sg.pieces {
			add(t)
		}
		return end(sg.cost)
	}, pairgen.Config{Psi: psi, NumFragments: n}, func(p pairgen.Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// countingSink counts the sub-forests a producer has built.
type countingSink struct {
	sweepSink
	built *atomic.Int64
}

func (c countingSink) put(t *suffixtree.Tree) bool {
	c.built.Add(1)
	return c.sweepSink.put(t)
}

// TestHalfCut: a segment is cut at the bucket boundary nearest half its
// records — after its first bucket or before its last when those hold
// most of it — and a segment of one bucket, or none, is not cut.
func TestHalfCut(t *testing.T) {
	keyed := func(keys ...seq.Kmer) []suffixtree.Keyed {
		ks := make([]suffixtree.Keyed, len(keys))
		for i, k := range keys {
			ks[i].Key = k
		}
		return ks
	}
	for _, tc := range []struct {
		keys []seq.Kmer
		want int
	}{
		{nil, 0},
		{[]seq.Kmer{4}, 1},
		{[]seq.Kmer{4, 4, 4, 4}, 4},
		{[]seq.Kmer{1, 2}, 1},
		{[]seq.Kmer{1, 2, 3, 4}, 2},
		{[]seq.Kmer{1, 1, 2, 3}, 2},
		{[]seq.Kmer{1, 2, 2, 2, 2, 2}, 1},    // after the first bucket
		{[]seq.Kmer{1, 1, 1, 1, 1, 2}, 5},    // before the last
		{[]seq.Kmer{1, 1, 2, 2, 2, 2, 3}, 2}, // 2 and 6 as near: the lower
		{[]seq.Kmer{1, 2, 2, 2, 3, 3, 3}, 4},
	} {
		if got := halfCut(keyed(tc.keys...)); got != tc.want {
			t.Errorf("halfCut(%v) = %d, want %d", tc.keys, got, tc.want)
		}
	}
}

// TestSortBinMatchesStableSort: a bin's counting sort orders its
// records, whose keys agree above shift, exactly as a stable comparison
// sort by key does, for shifts of no digit, part of one, one and
// several.
func TestSortBinMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	r := &spillRuns{}
	for _, shift := range []uint{0, 3, 8, 11, 20} {
		for _, n := range []int{2, 7, 300} {
			ks := make([]suffixtree.Keyed, n)
			for i := range ks {
				key := seq.Kmer(5<<shift | rng.Int63n(1<<shift))
				ks[i] = suffixtree.Keyed{Key: key, Suf: suffixtree.Suffix{Sid: int32(i)}}
			}
			want := slices.Clone(ks)
			slices.SortStableFunc(want, func(x, y suffixtree.Keyed) int { return cmp.Compare(x.Key, y.Key) })
			r.sortBin(ks, shift)
			if !slices.Equal(ks, want) {
				t.Fatalf("shift %d, %d records: counting sort differs from a stable sort", shift, n)
			}
		}
	}
}

// TestSweepMatchesSerialGenerate is the pipelined sweep's differential
// test: its pair stream and Stats are SweepSerial's forests through
// Generate, pair for pair in order, and its segments cost what
// Forests's do, bit for bit — over the in-memory and the disk store, at
// budgets from one bucket per segment to one segment and without one,
// at GOMAXPROCS 1 and 4, for the whole store and for each owner rank of
// a spilling build. The budgets must between them sweep segments built
// whole (one bucket) and segments cut after their first bucket and
// before their last.
func TestSweepMatchesSerialGenerate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	mem := testStore(3, 3000, 3.0)
	disk, err := diskstore.Create(t.TempDir(), mem.Fragments(), diskstore.Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	stores := []struct {
		name string
		st   seq.Seqs
	}{{"mem", mem}, {"disk", disk}}

	var whole, first, last int
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, s := range stores {
			for _, c := range []struct {
				w      int
				budget int64
			}{{6, 0}, {6, 2 << 10}, {8, 2 << 10}, {8, 1 << 30}, {12, 16 << 10}} {
				cfg := Config{W: c.w, MinLen: 12, SpillBytes: c.budget}.withDefaults()
				name := fmt.Sprintf("GOMAXPROCS %d %s w=%d budget %d", procs, s.name, c.w, c.budget)
				for _, dedup := range []bool{false, true} {
					pg := pairgen.Config{Psi: 12, NumFragments: s.st.N(), DuplicateElimination: dedup}
					checkSweepStream(t, fmt.Sprintf("%s dedup=%t", name, dedup), pg,
						func(yield func(*suffixtree.Tree) bool) { SweepSerial(s.st, cfg, yield) },
						func(add func(*suffixtree.Tree), end func(float64) bool) bool { return Sweep(s.st, cfg, add, end) })
				}
				l := &Local{Cfg: cfg} // no splitters: owner rank 0 holds every key
				checkSweepCosts(t, name, s.st, l, 0)

				rec := &recordingSink{}
				sweepFiltered(s.st, cfg, nil, true, rec)
				for _, sg := range rec.segs {
					switch {
					case len(sg.pieces) == 1 && len(sg.pieces[0].Roots) == 1:
						whole++
					case len(sg.pieces) == 2 && len(sg.pieces[0].Roots) == 1:
						first++
					case len(sg.pieces) == 2 && len(sg.pieces[1].Roots) == 1:
						last++
					}
				}
			}
		}
	}
	t.Logf("%d one-bucket segments, %d cut after the first bucket, %d before the last", whole, first, last)
	if whole == 0 || first == 0 || last == 0 {
		t.Fatalf("%d one-bucket segments, %d cut after the first bucket, %d before the last; want each; weak test", whole, first, last)
	}

	// Each owner rank's range of a spilling build, as a worker sweeps it.
	const p = 3
	locals := make([]*Local, p)
	par.Run(par.DefaultConfig(p), func(c *par.Comm) {
		locals[c.Rank()] = Build(c, mem, Config{W: 8, MinLen: 12, FirstOwner: 1, Seed: 7, SpillBytes: 4 << 10})
	})
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for r := range p { // from rank 0, as an adopter would
			l := locals[0]
			name := fmt.Sprintf("GOMAXPROCS %d owner %d", procs, r)
			pg := pairgen.Config{Psi: 12, NumFragments: mem.N(), DuplicateElimination: true}
			checkSweepStream(t, name, pg,
				func(yield func(*suffixtree.Tree) bool) {
					l.Forests(mem, r, func(t *suffixtree.Tree, _ float64) bool { return yield(t) })
				},
				func(add func(*suffixtree.Tree), end func(float64) bool) bool { return l.Sweep(mem, r, add, end) })
			checkSweepCosts(t, name, mem, l, r)
		}
	}
}

// checkSweepStream requires sweep's pair stream and Stats to be those of
// forests' forests through Generate.
func checkSweepStream(t *testing.T, name string, pg pairgen.Config, forests func(func(*suffixtree.Tree) bool), sweep pairgen.Sweep) {
	t.Helper()
	var want, got []pairgen.Pair
	var wantStats pairgen.Stats
	forests(func(f *suffixtree.Tree) bool {
		st := pairgen.Generate(f, pg, func(p pairgen.Pair) bool { want = append(want, p); return true })
		wantStats.Emitted += st.Emitted
		wantStats.Skipped += st.Skipped
		wantStats.NodesVisited += st.NodesVisited
		return true
	})
	gotStats := pairgen.GenerateSweep(sweep, pg, func(p pairgen.Pair) bool { got = append(got, p); return true })
	if !slices.Equal(got, want) || gotStats != wantStats {
		t.Fatalf("%s: sweep streams %d pairs %+v, forests %d pairs %+v", name, len(got), gotStats, len(want), wantStats)
	}
}

// checkSweepCosts requires l's Sweep of owner rank r to cost what its
// Forests do, segment by segment.
func checkSweepCosts(t *testing.T, name string, st seq.Seqs, l *Local, r int) {
	t.Helper()
	var want, got []float64
	l.Forests(st, r, func(_ *suffixtree.Tree, cost float64) bool { want = append(want, cost); return true })
	l.Sweep(st, r, func(*suffixtree.Tree) {}, func(cost float64) bool { got = append(got, cost); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: sweep segments cost %v, forests %v", name, got, want)
	}
}

// TestSweepProducerLabelled: under a profiling session a pipelined
// sweep's producer goroutine carries the gst phase label and its
// rank's label, while the consumer keeps its own labels.
func TestSweepProducerLabelled(t *testing.T) {
	s, err := prof.Start(prof.Config{Dir: t.TempDir(), Name: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	st := testStore(7, 6000, 3.0)
	l := &Local{rank: 2, Cfg: Config{W: 6, MinLen: 8, SpillBytes: 4 << 10}.withDefaults()}
	prof.ApplyLabels(2, "pairgen")
	defer prof.ClearLabels()
	var producer, consumer [2]string
	l.Sweep(st, 0, func(*suffixtree.Tree) {}, func(float64) bool {
		producer, consumer = goroutineLabels(t, "pgst.sweepFiltered"), goroutineLabels(t, "pgst.goroutineLabels")
		return false
	})
	if producer != [2]string{"2", "gst"} {
		t.Errorf("producer labelled rank %q phase %q, want rank 2 phase gst", producer[0], producer[1])
	}
	if consumer != [2]string{"2", "pairgen"} {
		t.Errorf("consumer labelled rank %q phase %q, want rank 2 phase pairgen", consumer[0], consumer[1])
	}
}

// goroutineLabels returns the rank and phase labels of the goroutine
// whose stack runs fn, from a goroutine profile.
func goroutineLabels(t *testing.T, fn string) [2]string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := prof.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Samples {
		sm := &p.Samples[i]
		for _, f := range sm.Stack {
			if strings.HasSuffix(f.Function, fn) {
				return [2]string{sm.Label(prof.LabelRank), sm.Label(prof.LabelPhase)}
			}
		}
	}
	t.Fatalf("no goroutine runs %s", fn)
	return [2]string{}
}
