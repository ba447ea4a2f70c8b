package pgst

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/simulate"
	"repro/internal/suffixtree"
)

func testStore(seed int64, genomeLen int, coverage float64) *seq.Store {
	rng := rand.New(rand.NewSource(seed))
	g := simulate.NewGenome(rng, "g", simulate.GenomeConfig{
		Length:  genomeLen,
		Repeats: []simulate.RepeatFamily{{Length: 300, Copies: 8, Divergence: 0.02}},
	})
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 200
	rc.LenSD = 30
	rc.VectorProb = 0
	reads := simulate.SampleWGS(rng, g, coverage, rc, "r")
	return seq.NewStore(reads)
}

func serialTree(st *seq.Store, w, minLen int) *suffixtree.Tree {
	acc := func(sid int32) []byte { return st.Seq(int(sid)) }
	sids := make([]int32, st.NumSeqs())
	for i := range sids {
		sids[i] = int32(i)
	}
	return suffixtree.Build(acc, suffixtree.EnumerateSuffixes(acc, sids, minLen), w)
}

// treeSignature wraps the exported TreeSignature in the (nodes, sufs)
// shape the older tests were written against.
func treeSignature(trees ...*suffixtree.Tree) (nodes map[string]int, sufs []string) {
	sig := TreeSignature(trees...)
	return sig.Nodes, sig.Suffixes
}

// forestsOf is every forest l hands out for its own rank's range.
func forestsOf(st seq.Seqs, l *Local) (trees []*suffixtree.Tree) {
	l.Forests(st, l.rank, func(t *suffixtree.Tree, _ float64) bool {
		trees = append(trees, t.Clone())
		return true
	})
	return trees
}

// localPairs is the pair list generated from l's own range.
func localPairs(st seq.Seqs, l *Local, psi int) (out []string) {
	for _, t := range forestsOf(st, l) {
		out = append(out, collectPairs(t, psi, st.N())...)
	}
	return out
}

func collectPairs(tree *suffixtree.Tree, psi, n int) []string {
	var out []string
	pairgen.Generate(tree, pairgen.Config{Psi: psi, NumFragments: n}, func(p pairgen.Pair) bool {
		out = append(out, fmt.Sprintf("%d/%d/%d/%d/%d", p.ASid, p.BSid, p.APos, p.BPos, p.MatchLen))
		return true
	})
	return out
}

// TestParallelMatchesSerial is the key equivalence test: for several
// rank counts, batch budgets, and both Alltoallv variants, on one core
// and on four (each batch's AddKeyed splitting across them), the union
// of the per-rank subtrees must be exactly the serial GST, and pair
// generation over the distributed forest must emit exactly the serial
// pair multiset.
func TestParallelMatchesSerial(t *testing.T) {
	st := testStore(1, 6000, 3.0)
	const w, psi = 6, 8
	ref := serialTree(st, w, psi)
	wantNodes, wantSufs := treeSignature(ref)
	wantPairs := collectPairs(ref, psi, st.N())
	sort.Strings(wantPairs)
	if len(wantPairs) == 0 {
		t.Fatal("test input generates no pairs; weak test")
	}

	cases := []struct {
		p          int
		firstOwner int
		batch      int
		staged     bool
	}{
		{1, 0, 1 << 20, false},
		{2, 0, 1 << 20, false},
		{4, 0, 4096, false}, // small batches force many fetch rounds
		{4, 0, 1 << 20, true},
		{5, 1, 1 << 20, false}, // master-worker layout: rank 0 owns nothing
		{7, 1, 8192, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			name := fmt.Sprintf("p=%d first=%d batch=%d staged=%v GOMAXPROCS=%d", tc.p, tc.firstOwner, tc.batch, tc.staged, procs)
			locals := make([]*Local, tc.p)
			par.Run(par.DefaultConfig(tc.p), func(c *par.Comm) {
				locals[c.Rank()] = Build(c, st, Config{
					W: w, MinLen: psi, FirstOwner: tc.firstOwner,
					BatchBytes: tc.batch, Staged: tc.staged, Seed: 7,
				})
			})
			var trees []*suffixtree.Tree
			var gotPairs []string
			rounds := 0
			for r, l := range locals {
				trees = append(trees, forestsOf(st, l)...)
				gotPairs = append(gotPairs, localPairs(st, l, psi)...)
				if l.FetchRounds > rounds {
					rounds = l.FetchRounds
				}
				if r < tc.firstOwner && l.Buckets != 0 {
					t.Errorf("%s: rank %d below FirstOwner owns %d buckets", name, r, l.Buckets)
				}
			}
			gotNodes, gotSufs := treeSignature(trees...)
			if len(gotSufs) != len(wantSufs) {
				t.Fatalf("%s: %d leaf suffixes, want %d", name, len(gotSufs), len(wantSufs))
			}
			for i := range wantSufs {
				if gotSufs[i] != wantSufs[i] {
					t.Fatalf("%s: leaf suffix %d = %s, want %s", name, i, gotSufs[i], wantSufs[i])
				}
			}
			for k, v := range wantNodes {
				if gotNodes[k] != v {
					t.Fatalf("%s: node sig %q count %d, want %d", name, k, gotNodes[k], v)
				}
			}
			sort.Strings(gotPairs)
			if len(gotPairs) != len(wantPairs) {
				t.Fatalf("%s: %d pairs, want %d", name, len(gotPairs), len(wantPairs))
			}
			for i := range wantPairs {
				if gotPairs[i] != wantPairs[i] {
					t.Fatalf("%s: pair %d = %s, want %s", name, i, gotPairs[i], wantPairs[i])
				}
			}
			if tc.batch <= 8192 && rounds < 2 {
				t.Errorf("%s: expected multiple fetch rounds, got %d", name, rounds)
			}
		}
	}
}

func TestLoadBalance(t *testing.T) {
	st := testStore(2, 12000, 4.0)
	const p = 6
	locals := make([]*Local, p)
	par.Run(par.DefaultConfig(p), func(c *par.Comm) {
		locals[c.Rank()] = Build(c, st, Config{W: 6, MinLen: 8, Seed: 3})
	})
	total, maxOwn := 0, 0
	for _, l := range locals {
		total += l.SuffixesOwned
		if l.SuffixesOwned > maxOwn {
			maxOwn = l.SuffixesOwned
		}
	}
	mean := total / p
	if maxOwn > 3*mean {
		t.Errorf("imbalanced: max %d vs mean %d suffixes", maxOwn, mean)
	}
}

func TestComputeAndCommCharged(t *testing.T) {
	st := testStore(3, 5000, 3.0)
	stats := par.Run(par.DefaultConfig(4), func(c *par.Comm) {
		Build(c, st, Config{W: 6, MinLen: 8, Seed: 1})
	})
	agg := par.Summarize(stats)
	if agg.MaxComp <= 0 {
		t.Error("no modeled compute charged")
	}
	if agg.MaxComm <= 0 {
		t.Error("no modeled communication charged")
	}
	if agg.TotalBytes == 0 {
		t.Error("no bytes exchanged")
	}
}

// TestStrongScaling checks the Fig. 5 shape: modeled construction time
// decreases as ranks are added.
func TestStrongScaling(t *testing.T) {
	st := testStore(4, 20000, 4.0)
	modeled := func(p int) float64 {
		stats := par.Run(par.DefaultConfig(p), func(c *par.Comm) {
			Build(c, st, Config{W: 6, MinLen: 8, Seed: 1})
		})
		return par.Summarize(stats).MaxModeled
	}
	t1, t4 := modeled(1), modeled(4)
	if t4 >= t1 {
		t.Errorf("no speedup: p=1 %.4fs, p=4 %.4fs", t1, t4)
	}
	if t1/t4 < 1.8 {
		t.Errorf("weak scaling efficiency: %.2fx on 4 ranks", t1/t4)
	}
}

func TestOwnerBounds(t *testing.T) {
	st := testStore(5, 4000, 2.0)
	bounds := ownerBounds(st, 4)
	if bounds[0] != 0 || bounds[4] != st.N() {
		t.Fatalf("bounds = %v", bounds)
	}
	for i := 0; i < 4; i++ {
		if bounds[i] > bounds[i+1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
	}
	for fid := 0; fid < st.N(); fid += 17 {
		r := ownerOf(bounds, fid)
		if fid < bounds[r] || fid >= bounds[r+1] {
			t.Fatalf("ownerOf(%d) = %d with bounds %v", fid, r, bounds)
		}
	}
}

func TestDestOf(t *testing.T) {
	spl := []seq.Kmer{10, 20, 30}
	cases := map[seq.Kmer]int{5: 0, 10: 1, 15: 1, 20: 2, 25: 2, 30: 3, 99: 3}
	for key, want := range cases {
		if got := destOf(spl, key, 0); got != want {
			t.Errorf("destOf(%d) = %d, want %d", key, got, want)
		}
	}
	if destOf(nil, 5, 2) != 2 {
		t.Error("empty splitters must map to firstOwner")
	}
}

func TestMoreRanksThanFragments(t *testing.T) {
	// Three tiny fragments on an 8-rank machine: several ranks own no
	// fragments and possibly no buckets, yet construction must agree
	// with the serial tree.
	frags := []*seq.Fragment{
		{Name: "a", Bases: []byte("ACGTACGTACGTACGTACGT")},
		{Name: "b", Bases: []byte("CGTACGTACGTACGTACGTT")},
		{Name: "c", Bases: []byte("TTTTACGTACGTACGTAAAA")},
	}
	st := seq.NewStore(frags)
	const w, psi = 4, 6
	ref := serialTree(st, w, psi)
	wantPairs := collectPairs(ref, psi, st.N())
	sort.Strings(wantPairs)

	locals := make([]*Local, 8)
	par.Run(par.DefaultConfig(8), func(c *par.Comm) {
		locals[c.Rank()] = Build(c, st, Config{W: w, MinLen: psi, Seed: 5})
	})
	var got []string
	for _, l := range locals {
		got = append(got, localPairs(st, l, psi)...)
	}
	sort.Strings(got)
	if len(got) != len(wantPairs) {
		t.Fatalf("%d pairs, want %d", len(got), len(wantPairs))
	}
	for i := range wantPairs {
		if got[i] != wantPairs[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestEmptyStore(t *testing.T) {
	st := seq.NewStore(nil)
	locals := make([]*Local, 3)
	par.Run(par.DefaultConfig(3), func(c *par.Comm) {
		locals[c.Rank()] = Build(c, st, Config{W: 4, MinLen: 6, Seed: 1})
	})
	for r, l := range locals {
		if l.Buckets != 0 || len(localPairs(st, l, 6)) != 0 {
			t.Errorf("rank %d built %d buckets from nothing", r, l.Buckets)
		}
	}
}

// TestForestsOfAnotherRank: a survivor asking its Local for a dead
// rank's range — adoption — gets, from the shared store, exactly the
// pairs the dead rank's own resident tree would have generated, in one
// forest (no budget: a one-segment sweep) whose modeled cost it is told;
// its own resident range comes back as it stands, already paid for.
func TestForestsOfAnotherRank(t *testing.T) {
	st := testStore(2, 6000, 3.0)
	const w, psi = 6, 8
	const p = 4

	locals := make([]*Local, p)
	par.Run(par.DefaultConfig(p), func(c *par.Comm) {
		locals[c.Rank()] = Build(c, st, Config{
			W: w, MinLen: psi, FirstOwner: 1, BatchBytes: 1 << 20, Seed: 7,
		})
	})
	survivor := locals[2] // an arbitrary survivor adopts

	for _, dead := range []int{1, 3} {
		want := localPairs(st, locals[dead], psi)
		sort.Strings(want)
		if dead == 1 && len(want) == 0 {
			t.Fatal("dead rank generates no pairs; weak test")
		}

		var got []string
		forests, cost := 0, 0.0
		survivor.Forests(st, dead, func(tr *suffixtree.Tree, c float64) bool {
			got = append(got, collectPairs(tr, psi, st.N())...)
			forests++
			cost += c
			return true
		})
		sort.Strings(got)
		if forests != 1 || cost <= 0 {
			t.Fatalf("dead=%d: %d forests at modeled cost %g, want one paid-for segment", dead, forests, cost)
		}
		if len(got) != len(want) {
			t.Fatalf("dead=%d: swept range yields %d pairs, original %d", dead, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dead=%d: pair %d differs: %s != %s", dead, i, got[i], want[i])
			}
		}
	}

	survivor.Forests(st, 2, func(tr *suffixtree.Tree, c float64) bool {
		if tr != survivor.tree || c != 0 {
			t.Errorf("own range: a rebuilt forest at cost %g, want the resident tree at 0", c)
		}
		return true
	})

	// Rank 0 owns no buckets under FirstOwner=1: its range must yield an
	// empty forest, not a crash.
	locals[1].Forests(st, 0, func(tr *suffixtree.Tree, _ float64) bool {
		if n := len(collectPairs(tr, psi, st.N())); n != 0 {
			t.Errorf("range of bucketless rank 0 generated %d pairs", n)
		}
		return true
	})
}

// TestSeqTable: the access table serves, for all 2n sequence IDs, the
// bytes st.Seq does — from the mem and the disk store, and from
// fetched forward fragments completed with their reverse complements
// and a dead owner's fragments read from the store — and a bounded
// table never holds more bytes than its cap resident, except a single
// sequence longer than the cap.
func TestSeqTable(t *testing.T) {
	mem := testStore(9, 4000, 3.0)
	disk, err := diskstore.Create(t.TempDir(), mem.Fragments(), diskstore.Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	n := mem.N()
	rng := rand.New(rand.NewSource(4))

	checkAll := func(name string, tb *seqTable, st seq.Seqs) {
		t.Helper()
		for _, i := range rng.Perm(3 * 2 * n) {
			sid := i % (2 * n) // every ID three times: hits and misses
			if got := tb.Seq(int32(sid)); !bytes.Equal(got, st.Seq(sid)) {
				t.Fatalf("%s: sid %d differs from the store", name, sid)
			}
			if tb.seqs[sid] == nil {
				t.Fatalf("%s: sid %d not resident right after its lookup", name, sid)
			}
			resident, held := 0, 0
			for _, s := range tb.seqs {
				if s != nil {
					resident++
					held += len(s)
				}
			}
			if resident != len(tb.live) || held != tb.bytes {
				t.Fatalf("%s: %d sequences of %d bytes resident, %d of %d tracked", name, resident, held, len(tb.live), tb.bytes)
			}
			if tb.maxBytes > 0 && held > tb.maxBytes && resident > 1 {
				t.Fatalf("%s: %d bytes in %d sequences resident, cap %d", name, held, resident, tb.maxBytes)
			}
		}
	}

	for name, st := range map[string]seq.Seqs{"mem": mem, "disk": disk} {
		if tb := newStoreTable(st); tb.maxBytes != seqTableBytes {
			t.Fatalf("store table cap %d bytes, want %d", tb.maxBytes, seqTableBytes)
		}
		// Seven reads' bytes, far below the store's, so the walk crosses
		// the bound often; then a cap below any one read, which the table
		// still admits one at a time.
		for _, cap := range []int{7 * 200, 50} {
			tb := newStoreTable(st)
			tb.maxBytes = cap
			checkAll(fmt.Sprintf("%s cap %d", name, cap), tb, st)
		}
	}

	// Fetched batch: owners served the even fragments, a dead owner
	// never served the odd ones; complete derives every reverse
	// complement and reads the odd fragments from the store.
	all := make([]int32, 2*n)
	for i := range all {
		all[i] = int32(i)
	}
	serve := func(tb *seqTable) {
		for fid := 0; fid < n; fid += 2 {
			tb.put(int32(fid), append([]byte(nil), mem.Seq(fid)...))
		}
	}
	ft := newFetchTable(mem)
	serve(ft)
	ft.complete(mem, all, true)
	if len(ft.live) != 2*n {
		t.Fatalf("completed table holds %d sequences, want all %d", len(ft.live), 2*n)
	}
	checkAll("fetched+fallback", ft, mem)
	ft.reset()
	if len(ft.live) != 0 || ft.seqs[0] != nil {
		t.Fatal("reset left fragments resident")
	}

	strict := newFetchTable(mem)
	serve(strict)
	strict.complete(mem, []int32{2, int32(n + 2)}, false)
	if !bytes.Equal(strict.Seq(int32(n+2)), mem.Seq(n+2)) {
		t.Fatal("reverse complement of a served fragment differs from the store")
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal(what)
			}
		}()
		fn()
	}
	mustPanic("a lookup of a sequence the batch never fetched", func() { strict.Seq(int32(n + 4)) })
	mustPanic("an unserved fragment completed without fallback", func() { strict.complete(mem, []int32{int32(n + 1)}, false) })
}

// TestBuildHoldsTwoSequences: each builder worker keeps at most two
// sequence slices in hand at a time and reads only through its own
// table, so access tables over a disk store that may forget everything
// but about two reads' bytes on any lookup still yield the serial
// forest node for node, on one core and split across four.
func TestBuildHoldsTwoSequences(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	mem := testStore(10, 4000, 3.0)
	disk, err := diskstore.Create(t.TempDir(), mem.Fragments(), diskstore.Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	cfg := Config{W: 6, MinLen: 8}
	want := serialTree(mem, cfg.W, cfg.MinLen)

	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var ks []suffixtree.Keyed
		suffixtree.Scan(disk, 0, disk.NumSeqs(), cfg.W, cfg.MinLen, nil, func(k suffixtree.Keyed) { ks = append(ks, k) })
		suffixtree.SortKeyed(ks)
		var (
			tables []*seqTable
			over   atomic.Int64
		)
		access := func(k int) suffixtree.Access {
			if k != len(tables) {
				t.Fatalf("GOMAXPROCS %d: worker %d's access asked for after %d others", procs, k, len(tables))
			}
			tb := newStoreTable(disk)
			tb.maxBytes = 2 * disk.TotalBases() / disk.N()
			tables = append(tables, tb)
			return func(sid int32) []byte {
				s := tb.Seq(sid)
				if tb.bytes > tb.maxBytes && len(tb.live) > 1 {
					over.Add(1)
				}
				return s
			}
		}
		ib := suffixtree.NewIncrementalBuilder(cfg.W)
		if ib.AddKeyed(access, ks) == 0 || tables[0].bytes == 0 {
			t.Fatal("nothing built; weak test")
		}
		if procs > 1 && len(tables) < 2 {
			t.Fatalf("GOMAXPROCS %d: %d worker tables over %d suffixes; the build did not split", procs, len(tables), len(ks))
		}
		if n := over.Load(); n > 0 {
			t.Fatalf("GOMAXPROCS %d: %d lookups left more than %d bytes in more than one sequence resident", procs, n, tables[0].maxBytes)
		}
		if !reflect.DeepEqual(ib.Tree(), want) {
			t.Fatalf("GOMAXPROCS %d: forest through two-read tables differs from the serial tree (%d vs %d nodes)",
				procs, ib.Tree().NumNodes(), want.NumNodes())
		}
	}
}
