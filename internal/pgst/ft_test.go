package pgst

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/seq"
)

// unionSignature wraps UnionSignatureOf in the (nodes, sufs) shape the
// older tests were written against.
func unionSignature(st seq.Seqs, locals []*Local) (map[string]int, []string) {
	sig := UnionSignatureOf(st, locals)
	return sig.Nodes, sig.Suffixes
}

// checkUnion verifies that the union of what the locals hand out — dead
// ranks' ranges swept, as an adopter would — carries the reference
// signature.
func checkUnion(t *testing.T, name string, st seq.Seqs, locals []*Local, wantNodes map[string]int, wantSufs []string) {
	t.Helper()
	gotNodes, gotSufs := unionSignature(st, locals)
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
}

// TestFTBuildMatchesSerial: the build on a survivable machine with no
// fault injected (an empty plan) must produce exactly the serial GST —
// survivability changes the message pattern, never the content.
func TestFTBuildMatchesSerial(t *testing.T) {
	st := testStore(1, 6000, 3.0)
	const w, psi = 6, 8
	wantNodes, wantSufs := treeSignature(serialTree(st, w, psi))

	const p = 5
	locals := make([]*Local, p)
	cfg := par.DefaultConfig(p)
	cfg.Faults = &par.FaultPlan{}
	par.Run(cfg, func(c *par.Comm) {
		if !c.Survivable() {
			t.Error("a machine with a fault plan must be survivable")
		}
		locals[c.Rank()] = Build(c, st, Config{
			W: w, MinLen: psi, BatchBytes: 1 << 20, Seed: 7,
		})
	})
	checkUnion(t, "ft fault-free", st, locals, wantNodes, wantSufs)
}

// splitSuffixes is twice suffixtree's minChunkSuffixes: a batch at
// least this large is built by more than one AddKeyed worker on more
// than one core.
const splitSuffixes = 2 * 4096

// TestFTBuildSurvivesCrash is the survivable build's contract: a rank
// killed mid-construction (before its first send, during redistribution
// or fragment fetch, with or without frame corruption on the wire) must
// leave the survivors handing out, in union with the dead rank's range
// swept from the store, exactly the fault-free GST. A survivor whose
// redistribution the death severed keeps no resident tree; one the dead
// rank reached before dying keeps its own. The fetch-phase crash runs
// on a store large enough that every survivor's one batch is split
// across AddKeyed workers, so at GOMAXPROCS 4 several of them read a
// table whose dead owner's fragments the fallback filled.
func TestFTBuildSurvivesCrash(t *testing.T) {
	const w, psi = 6, 8
	type input struct {
		st        *seq.Store
		wantNodes map[string]int
		wantSufs  []string
	}
	inputs := map[int]*input{}
	inputOf := func(genomeLen int) *input {
		if in := inputs[genomeLen]; in != nil {
			return in
		}
		st := testStore(1, genomeLen, 3.0)
		nodes, sufs := treeSignature(serialTree(st, w, psi))
		inputs[genomeLen] = &input{st, nodes, sufs}
		return inputs[genomeLen]
	}

	const p = 5
	cases := []struct {
		name      string
		genomeLen int
		plan      *par.FaultPlan
		severed   []int // survivors the death severs
		split     bool  // every survivor's batch is split across workers
	}{
		{"dies before its first send", 6000, &par.FaultPlan{
			Seed: 5, Crashes: []par.Crash{par.CrashAtAlltoallSend(2, 1)}}, []int{0, 1, 3, 4}, false},
		{"redistribution crash", 6000, &par.FaultPlan{
			Seed: 5, Crashes: []par.Crash{par.CrashAtAlltoallSend(2, 2)}}, []int{1, 3, 4}, false},
		{"fetch crash", 15000, &par.FaultPlan{
			Seed: 5, Crashes: []par.Crash{par.CrashAtAlltoallSend(3, 5)}}, nil, true},
		{"crash with corrupting wire", 6000, &par.FaultPlan{
			Seed: 5, Crashes: []par.Crash{par.CrashAtAlltoallSend(2, 3)},
			Retransmit: true, CorruptProb: 0.05}, []int{3, 4}, false},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			name := fmt.Sprintf("%s (GOMAXPROCS %d)", tc.name, procs)
			in := inputOf(tc.genomeLen)
			locals := make([]*Local, p)
			cfg := par.DefaultConfig(p)
			cfg.Faults = tc.plan
			_, exits := par.RunStatus(cfg, func(c *par.Comm) {
				locals[c.Rank()] = Build(c, in.st, Config{
					W: w, MinLen: psi, BatchBytes: 1 << 20, Seed: 7,
				})
			})
			crashed := tc.plan.Crashes[0].Rank
			if !exits[crashed].FaultKilled {
				t.Fatalf("%s: rank %d was not fault-killed: %+v", name, crashed, exits[crashed])
			}
			for r, e := range exits {
				if r != crashed && !e.OK {
					t.Fatalf("%s: survivor %d died: %+v", name, r, e)
				}
			}
			alive := 0
			for _, l := range locals {
				if l != nil {
					alive++
				}
			}
			if alive != p-1 {
				t.Fatalf("%s: %d survivors, want %d", name, alive, p-1)
			}
			for r, l := range locals {
				if l != nil && (l.tree == nil) != slices.Contains(tc.severed, r) {
					t.Fatalf("%s: survivor %d resident %v, severed survivors %v", name, r, l.tree != nil, tc.severed)
				}
				if l != nil && tc.split && (l.FetchRounds != 1 || l.SuffixesOwned < splitSuffixes) {
					t.Fatalf("%s: survivor %d builds %d suffixes in %d rounds, want one batch of at least %d",
						name, r, l.SuffixesOwned, l.FetchRounds, splitSuffixes)
				}
			}
			checkUnion(t, name, in.st, locals, in.wantNodes, in.wantSufs)
		}
	}
}

// TestFTBuildDeterminism: two builds under the same crashing,
// corrupting plan must produce identical survivor forests.
func TestFTBuildDeterminism(t *testing.T) {
	st := testStore(2, 4000, 2.5)
	const w, psi = 6, 8
	const p = 4
	run := func() (map[string]int, []string) {
		locals := make([]*Local, p)
		cfg := par.DefaultConfig(p)
		cfg.Faults = &par.FaultPlan{
			Seed:       13,
			Crashes:    []par.Crash{par.CrashAtAlltoallSend(2, 1)},
			Retransmit: true, CorruptProb: 0.1,
		}
		par.RunStatus(cfg, func(c *par.Comm) {
			locals[c.Rank()] = Build(c, st, Config{
				W: w, MinLen: psi, BatchBytes: 1 << 20, Seed: 7,
			})
		})
		return unionSignature(st, locals)
	}
	n1, s1 := run()
	n2, s2 := run()
	if fmt.Sprint(n1) != fmt.Sprint(n2) || fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Error("build not deterministic under a fixed fault plan")
	}
}
