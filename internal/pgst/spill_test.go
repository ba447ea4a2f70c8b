package pgst

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/suffixtree"
)

// sweepPairs generates the pair multiset of a serial sweep.
func sweepPairs(st seq.Seqs, cfg Config, psi int) (pairs []string, segments int) {
	SweepSerial(st, cfg, func(t *suffixtree.Tree) bool {
		segments++
		pairs = append(pairs, collectPairs(t, psi, st.N())...)
		return true
	})
	return pairs, segments
}

// TestSweepSerialMatchesSerial: the union of the sweep's segment
// forests — and the pair multiset generated from them — must equal the
// monolithic serial tree's exactly, at budgets from "one segment per
// bucket bin" up to "everything in one segment", over the in-memory and
// the disk-backed store. Without a budget the sweep is the tree build:
// one forest, node for node the reference tree, so its pairs come out
// in the reference order too.
func TestSweepSerialMatchesSerial(t *testing.T) {
	mem := testStore(3, 6000, 3.0)
	disk, err := diskstore.Create(t.TempDir(), mem.Fragments(), diskstore.Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	const w, psi = 6, 8
	ref := serialTree(mem, w, psi)
	want := TreeSignature(ref)
	wantSeq := collectPairs(ref, psi, mem.N())
	wantPairs := append([]string(nil), wantSeq...)
	sort.Strings(wantPairs)
	if len(wantPairs) == 0 {
		t.Fatal("test input generates no pairs; weak test")
	}

	for name, st := range map[string]seq.Seqs{"mem": mem, "disk": disk} {
		for _, budget := range []int64{0, 1, 64 << 10, 1 << 20, 1 << 30} {
			cfg := Config{W: w, MinLen: psi, SpillBytes: budget}
			var forests []*suffixtree.Tree
			var gotSeq []string
			SweepSerial(st, cfg, func(tr *suffixtree.Tree) bool {
				forests = append(forests, tr.Clone())
				gotSeq = append(gotSeq, collectPairs(tr, psi, st.N())...)
				return true
			})
			segments := len(forests)
			if !TreeSignature(forests...).Equal(want) {
				t.Fatalf("%s budget %d: sweep union signature differs from serial tree", name, budget)
			}
			gotPairs := append([]string(nil), gotSeq...)
			sort.Strings(gotPairs)
			if fmt.Sprint(gotPairs) != fmt.Sprint(wantPairs) {
				t.Fatalf("%s budget %d: sweep pair multiset differs (%d vs %d pairs)",
					name, budget, len(gotPairs), len(wantPairs))
			}
			if budget == 1 && segments < 8 {
				t.Fatalf("%s budget 1 produced only %d segments; spilling is not segmenting", name, segments)
			}
			if budget == 1<<30 && segments != 1 {
				t.Fatalf("%s huge budget produced %d segments, want 1", name, segments)
			}
			if budget == 0 {
				if segments != 1 || !reflect.DeepEqual(forests[0], ref) {
					t.Fatalf("%s no budget: %d forests, want the reference tree itself", name, segments)
				}
				if fmt.Sprint(gotSeq) != fmt.Sprint(wantSeq) {
					t.Fatalf("%s no budget: pair sequence differs from the reference tree's", name)
				}
			}
		}
	}
}

// TestSweepBudgetBounds: every segment's suffix count must respect the
// byte budget up to one histogram bin's excess (the planning granule).
func TestSweepBudgetBounds(t *testing.T) {
	st := testStore(4, 8000, 4.0)
	cfg := Config{W: 6, MinLen: 8, SpillBytes: 32 << 10}
	cfg = cfg.withDefaults()

	shift := spillBinShift(cfg.W)
	hist := make([]int64, 1<<spillBinBits(cfg.W))
	suffixtree.Scan(st, 0, st.NumSeqs(), cfg.W, cfg.MinLen, nil,
		func(k suffixtree.Keyed) { hist[k.Key>>shift]++ })
	var maxBin int64
	for _, h := range hist {
		if h > maxBin {
			maxBin = h
		}
	}
	limit := cfg.SpillBytes/spillBytesPerSuffix + maxBin

	SweepSerial(st, cfg, func(tr *suffixtree.Tree) bool {
		var n int64
		for u := range tr.Nodes {
			if tr.IsLeaf(int32(u)) {
				n += int64(len(tr.LeafSuffixes(int32(u))))
			}
		}
		if n > limit {
			t.Fatalf("segment holds %d suffixes, budget allows %d", n, limit)
		}
		return true
	})
}

// TestBudgetedSweepChargesHistogram: a budgeted sweep's summed cost is
// its two scans of the store — the histogram pass and the distribution
// pass — plus every segment's sort and build: the scans are charged to
// whoever pulls the sweep, not dropped. A range that plans no segment
// runs no distribution pass, and one empty forest carries the
// histogram scan.
func TestBudgetedSweepChargesHistogram(t *testing.T) {
	st := testStore(4, 8000, 4.0)
	cfg := Config{W: 6, MinLen: 8, SpillBytes: 32 << 10}.withDefaults()
	l := &Local{Cfg: cfg} // no splitters: owner rank 0 holds every key
	for _, tc := range []struct {
		name  string
		r     int
		empty bool
	}{
		{"every key", 0, false},
		{"empty owner", 1, true},
	} {
		var got float64
		segments, sufs := 0, 0
		l.Forests(st, tc.r, func(f *suffixtree.Tree, cost float64) bool {
			got += cost
			segments++
			sufs += len(f.Sufs)
			return true
		})

		own := ownedBy(l.Splitters, cfg.FirstOwner, tc.r)
		shift := spillBinShift(cfg.W)
		hist := make([]int64, 1<<spillBinBits(cfg.W))
		chars := suffixtree.Scan(st, 0, st.NumSeqs(), cfg.W, cfg.MinLen, own,
			func(k suffixtree.Keyed) { hist[k.Key>>shift]++ })
		segs := planSpillSegments(hist, cfg.SpillBytes)
		scans := 2
		if len(segs) == 0 {
			scans = 1
		}
		want := float64(scans) * float64(chars) * costChar
		for _, sg := range segs {
			var ks []suffixtree.Keyed
			suffixtree.Scan(st, 0, st.NumSeqs(), cfg.W, cfg.MinLen, func(k seq.Kmer) bool {
				bin := int(k >> shift)
				return bin >= sg.loBin && bin < sg.hiBin && own(k)
			}, func(k suffixtree.Keyed) { ks = append(ks, k) })
			suffixtree.SortKeyed(ks)
			ib := suffixtree.NewIncrementalBuilder(cfg.W)
			ib.AddKeyed(workerTables(st), ks)
			want += float64(len(ks))*(costSuf+log2f(len(ks))*costSort) + float64(ib.Work())*costChar
		}
		if tc.empty && (len(segs) != 0 || segments != 1 || sufs != 0) {
			t.Fatalf("%s: %d planned, %d swept with %d suffixes; want none planned, one empty forest", tc.name, len(segs), segments, sufs)
		}
		if !tc.empty && (segments != len(segs) || segments < 2) {
			t.Fatalf("%s: %d segments swept, %d planned; want the same, at least 2", tc.name, segments, len(segs))
		}
		if want <= 0 || math.Abs(got-want) > 1e-9*want {
			t.Fatalf("%s: sweep charged %.9g s, %d scans plus the segments cost %.9g s", tc.name, got, scans, want)
		}
	}
}

// countingSeqs counts the Seq calls made on a store.
type countingSeqs struct {
	seq.Seqs
	calls int
}

func (c *countingSeqs) Seq(sid int) []byte {
	c.calls++
	return c.Seqs.Seq(sid)
}

// TestSweepScansStoreTwice: a budgeted sweep of many segments reads the
// store in two scans, whatever the segment count, and decodes each
// sequence once more for its tries when the store fits the access
// table — at most 3·2n Seq calls on either backend, where a scan per
// segment makes (S+2)·2n. The store has more than 256 sequences, so a
// table capped by sequence count would reload them segment by segment.
func TestSweepScansStoreTwice(t *testing.T) {
	mem := testStore(11, 10000, 4.0)
	disk, err := diskstore.Create(t.TempDir(), mem.Fragments(), diskstore.Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if mem.NumSeqs() <= 256 || 2*mem.TotalBases() > seqTableBytes {
		t.Fatalf("store of %d sequences, %d bases: want over 256 that fit the table; weak test", mem.NumSeqs(), 2*mem.TotalBases())
	}
	for name, st := range map[string]seq.Seqs{"mem": mem, "disk": disk} {
		cs := &countingSeqs{Seqs: st}
		segments := 0
		SweepSerial(cs, Config{W: 6, MinLen: 8, SpillBytes: 64 << 10}, func(*suffixtree.Tree) bool {
			segments++
			return true
		})
		if segments < 8 {
			t.Fatalf("%s: %d segments; want at least 8", name, segments)
		}
		if limit := 3 * st.NumSeqs(); cs.calls > limit {
			t.Fatalf("%s: %d segments made %d Seq calls, want at most %d (two scans, one decode each)", name, segments, cs.calls, limit)
		}
	}
}

// runFiles counts this process's open files named like a sweep's run
// file in dir (Linux: via /proc/self/fd; -1 where that is unavailable).
func runFiles(dir string) int {
	links, ok := runFileLinks(dir)
	if !ok {
		return -1
	}
	return len(links)
}

// runFileLinks returns the /proc/self/fd links of this process's open
// files named like a sweep's run file in dir; ok is false where
// /proc/self/fd is unavailable.
func runFileLinks(dir string) (links []string, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	for _, fd := range fds {
		link := filepath.Join("/proc/self/fd", fd.Name())
		if name, err := os.Readlink(link); err == nil && strings.HasPrefix(name, filepath.Join(dir, "asmsweep-")) {
			links = append(links, link)
		}
	}
	return links, true
}

// TestSweepLeavesNoRunFile: a budgeted sweep's run file is created in
// TMPDIR and unlinked at once, so the directory is empty while a forest
// is consumed, after a full sweep, after the consumer closes the stream
// early, after a panicking consumer and after a run read that fails —
// and the file is closed, and a pipelined sweep's producer gone, once
// the sweep ends, however it ends.
func TestSweepLeavesNoRunFile(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	st := testStore(7, 6000, 3.0)
	cfg := Config{W: 6, MinLen: 8, SpillBytes: 1}
	goroutines := runtime.NumGoroutine()
	check := func(when string, open int) {
		t.Helper()
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("%s: TMPDIR holds %d entries (%v)", when, len(ents), err)
		}
		if n := runFiles(dir); n >= 0 && n != open {
			t.Fatalf("%s: %d run files open, want %d", when, n, open)
		}
		if open == 0 {
			if n := settledGoroutines(goroutines); n != goroutines {
				t.Fatalf("%s: %d goroutines, %d before the sweeps", when, n, goroutines)
			}
		}
	}
	// mustPanic runs f and returns its panic's text.
	mustPanic := func(what string, f func()) (msg string) {
		t.Helper()
		defer func() {
			if p := recover(); p == nil {
				t.Fatalf("%s: the panic did not reach the caller", what)
			} else {
				msg = fmt.Sprint(p)
			}
		}()
		f()
		return ""
	}

	SweepSerial(st, cfg, func(*suffixtree.Tree) bool {
		check("inside yield", 1)
		return true
	})
	check("after a full sweep", 0)
	added := 0
	Sweep(st, cfg, func(*suffixtree.Tree) {
		if added++; added == 1 { // the producer may finish before the last ones
			check("inside the first add", 1)
		}
	}, func(float64) bool { return true })
	check("after a full pipelined sweep", 0)

	s := pairgen.NewSweep(func(add func(*suffixtree.Tree), end func(float64) bool) bool {
		return Sweep(st, cfg, add, end)
	}, pairgen.Config{Psi: 8, NumFragments: st.N()})
	if got, _ := s.Take(nil, 1); len(got) == 0 {
		t.Fatal("stream produced nothing")
	}
	s.Close()
	check("after an early stop", 0)

	mustPanic("a panicking yield", func() {
		SweepSerial(st, cfg, func(*suffixtree.Tree) bool { panic("consumer failed") })
	})
	check("after a panicking yield", 0)
	mustPanic("a panicking add", func() {
		Sweep(st, cfg, func(*suffixtree.Tree) { panic("consumer failed") }, func(float64) bool { return true })
	})
	check("after a panicking add", 0)
	segments := 0
	mustPanic("a panicking end", func() {
		Sweep(st, cfg, func(*suffixtree.Tree) {}, func(float64) bool {
			if segments++; segments == 3 {
				panic("consumer failed")
			}
			return true
		})
	})
	check("after a panicking end", 0)

	// Cut the run file short under the producer: its next read fails,
	// and the failure reaches the consumer.
	if runFiles(dir) < 0 {
		t.Log("no /proc/self/fd: run-read failure not injected")
		return
	}
	cut := false
	msg := mustPanic("a failing run read", func() {
		Sweep(st, cfg, func(*suffixtree.Tree) {
			if !cut {
				cut = true
				truncateRunFile(t, dir)
			}
		}, func(float64) bool { return true })
	})
	if !strings.Contains(msg, "pgst: sweep run file") {
		t.Fatalf("a failing run read panicked with %q", msg)
	}
	check("after a failing run read", 0)
}

// truncateRunFile empties the one open run file in dir through its
// /proc/self/fd link.
func truncateRunFile(t *testing.T, dir string) {
	t.Helper()
	links, _ := runFileLinks(dir)
	if len(links) != 1 {
		t.Fatalf("%d run files open, want 1", len(links))
	}
	if err := os.Truncate(links[0], 0); err != nil {
		t.Fatal(err)
	}
}

// settledGoroutines returns the goroutine count once it is want, or
// what it still is after a second: a joined goroutine may take a moment
// to exit after its last signal.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpillBuildMatchesSerial: the distributed spilling build — no
// redistribution, no resident forests, ranks sweeping their splitter
// ranges — must union to the serial tree and generate the serial pair
// multiset, across machine shapes and budgets.
func TestSpillBuildMatchesSerial(t *testing.T) {
	st := testStore(5, 6000, 3.0)
	const w, psi = 6, 8
	ref := serialTree(st, w, psi)
	want := TreeSignature(ref)
	wantPairs := collectPairs(ref, psi, st.N())
	sort.Strings(wantPairs)

	cases := []struct {
		p          int
		firstOwner int
		budget     int64
	}{
		{1, 0, 64 << 10},
		{2, 0, 1},
		{4, 0, 64 << 10},
		{5, 1, 32 << 10}, // master–worker layout: rank 0 owns nothing
	}
	for _, tc := range cases {
		name := fmt.Sprintf("p=%d first=%d budget=%d", tc.p, tc.firstOwner, tc.budget)
		locals := make([]*Local, tc.p)
		par.Run(par.DefaultConfig(tc.p), func(c *par.Comm) {
			locals[c.Rank()] = Build(c, st, Config{
				W: w, MinLen: psi, FirstOwner: tc.firstOwner,
				Seed: 7, SpillBytes: tc.budget,
			})
		})
		for r, l := range locals {
			if l.tree != nil {
				t.Fatalf("%s: rank %d holds a resident tree in spilling mode", name, r)
			}
			if r < tc.firstOwner && len(localPairs(st, l, psi)) != 0 {
				t.Fatalf("%s: non-owner rank %d generates pairs", name, r)
			}
		}
		if !UnionSignatureOf(st, locals).Equal(want) {
			t.Fatalf("%s: spill union signature differs from serial tree", name)
		}
		var gotPairs []string
		for _, l := range locals {
			gotPairs = append(gotPairs, localPairs(st, l, psi)...)
		}
		sort.Strings(gotPairs)
		if fmt.Sprint(gotPairs) != fmt.Sprint(wantPairs) {
			t.Fatalf("%s: pair multiset differs (%d vs %d)", name, len(gotPairs), len(wantPairs))
		}
	}
}

// TestSpillBuildSurvivesCrash: a rank killed during the spilling
// build's splitter agreement must leave each survivor serving its own
// range alone — no survivor takes on the dead range during the build —
// and the survivors' ranges plus the dead range swept by whichever rank
// adopts it must union to exactly the serial GST.
func TestSpillBuildSurvivesCrash(t *testing.T) {
	st := testStore(1, 6000, 3.0)
	const w, psi = 6, 8
	want := TreeSignature(serialTree(st, w, psi))

	const p, crashed = 5, 2
	locals := make([]*Local, p)
	cfg := par.DefaultConfig(p)
	cfg.Faults = &par.FaultPlan{
		Seed:    5,
		Crashes: []par.Crash{{Rank: crashed, AfterSends: 1, Tag: par.AnyTag}},
	}
	_, exits := par.RunStatus(cfg, func(c *par.Comm) {
		locals[c.Rank()] = Build(c, st, Config{
			W: w, MinLen: psi, Seed: 7, SpillBytes: 32 << 10,
		})
	})
	if !exits[crashed].FaultKilled {
		t.Fatalf("rank %d was not fault-killed: %+v", crashed, exits[crashed])
	}
	for r, l := range locals {
		if r == crashed {
			if l != nil {
				t.Fatalf("dead rank %d produced a local", crashed)
			}
			continue
		}
		if !exits[r].OK {
			t.Fatalf("survivor %d died: %+v", r, exits[r])
		}
		if l.tree != nil {
			t.Fatalf("survivor %d holds a resident tree in spilling mode", r)
		}
		if l.rank != r {
			t.Fatalf("survivor %d serves the range of rank %d", r, l.rank)
		}
	}
	// The survivors' own ranges and the dead range partition the
	// suffixes: nothing the build hands out covers the dead range twice.
	var survivors []*suffixtree.Tree
	for _, l := range locals {
		if l != nil {
			survivors = append(survivors, forestsOf(st, l)...)
		}
	}
	var adopted []*suffixtree.Tree
	locals[0].Forests(st, crashed, func(tr *suffixtree.Tree, _ float64) bool {
		adopted = append(adopted, tr.Clone())
		return true
	})
	own, dead := TreeSignature(survivors...), TreeSignature(adopted...)
	if len(dead.Suffixes) == 0 || len(own.Suffixes)+len(dead.Suffixes) != len(want.Suffixes) {
		t.Fatalf("survivors serve %d suffixes and the dead range %d, the serial tree has %d",
			len(own.Suffixes), len(dead.Suffixes), len(want.Suffixes))
	}
	if !UnionSignatureOf(st, locals).Equal(want) {
		t.Fatal("survivor union signature differs from serial tree after crash")
	}
}

// TestSweepOnDiskStore: the sweep over a disk-backed store must equal
// the sweep over the in-memory store — the full out-of-core stack
// (paged bases + spilling construction) against the all-RAM reference.
func TestSweepOnDiskStore(t *testing.T) {
	mem := testStore(6, 5000, 3.0)
	frags := mem.Fragments()
	disk, err := diskstore.Create(t.TempDir(), frags, diskstore.Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	cfg := Config{W: 6, MinLen: 8, SpillBytes: 64 << 10}
	wantPairs, wantSegs := sweepPairs(mem, cfg, 8)
	gotPairs, gotSegs := sweepPairs(disk, cfg, 8)
	if wantSegs != gotSegs {
		t.Fatalf("segment count differs: disk %d, mem %d", gotSegs, wantSegs)
	}
	sort.Strings(wantPairs)
	sort.Strings(gotPairs)
	if fmt.Sprint(gotPairs) != fmt.Sprint(wantPairs) {
		t.Fatalf("disk-backed sweep pairs differ (%d vs %d)", len(gotPairs), len(wantPairs))
	}
}

// TestSweepStreamStopsEarly: a stream starts its sweep with the first
// pull and builds at most one segment's sub-forests ahead of the pulls,
// so a worker told to shut down does not keep paying for construction:
// closing before any pull builds nothing, and one pull then Close
// builds the sub-forests up to and including the first segment that
// yields a pair, and at most two more.
func TestSweepStreamStopsEarly(t *testing.T) {
	st := testStore(7, 6000, 3.0)
	cfg := Config{W: 6, MinLen: 8, SpillBytes: 1}
	cfg = cfg.withDefaults()
	total, firstPaired := 0, 0
	split := &recordingSink{}
	sweepFiltered(st, cfg, nil, true, split)
	for _, sg := range split.segs {
		total += len(sg.pieces)
		if firstPaired == 0 && len(sg.pairs(8, st.N())) > 0 {
			firstPaired = total
		}
	}
	if firstPaired == 0 || firstPaired+2 >= total {
		t.Fatalf("weak input: first paired segment ends at sub-forest %d of %d", firstPaired, total)
	}
	var built atomic.Int64
	stream := func() *pairgen.Stream {
		built.Store(0)
		return pairgen.NewSweep(func(add func(*suffixtree.Tree), end func(float64) bool) bool {
			return pipelined(0, func(s sweepSink) bool {
				return sweepFiltered(st, cfg, nil, true, countingSink{s, &built})
			}, add, end)
		}, pairgen.Config{Psi: 8, NumFragments: st.N()})
	}

	stream().Close()
	if n := built.Load(); n != 0 {
		t.Fatalf("closing before any pull built %d sub-forests", n)
	}
	s := stream()
	if got, _ := s.Take(nil, 1); len(got) != 1 {
		t.Fatal("stream produced nothing")
	}
	s.Close()
	if n := built.Load(); n < int64(firstPaired) || n > int64(firstPaired)+2 {
		t.Fatalf("one pull then Close built %d sub-forests, want %d to %d of %d", n, firstPaired, firstPaired+2, total)
	}
}
