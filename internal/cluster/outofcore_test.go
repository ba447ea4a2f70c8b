package cluster

import (
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/seq/diskstore"
	"repro/internal/suffixtree"
)

// TestSerialMemBudgetMatchesUnbounded: the out-of-core serial driver
// (build, generate and drop one bounded GST segment at a time) must
// produce exactly the unbounded driver's partition. Pair order changes
// across segments — so Aligned/Skipped shift — but the transitive
// closure cannot.
func TestSerialMemBudgetMatchesUnbounded(t *testing.T) {
	st, _ := islandStore(11, 3, 2200, 120)
	cfg := testConfig()
	ref := Serial(st, cfg)
	want := clusterLabels(ref)

	for _, budget := range []int64{1, 64 << 10, 1 << 30} {
		bcfg := cfg
		bcfg.MemBudget = budget
		res := Serial(st, bcfg)
		got := clusterLabels(res)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("budget %d: fragment %d in cluster %d, unbounded says %d",
					budget, i, got[i], want[i])
			}
		}
		if res.Stats.Generated != ref.Stats.Generated {
			t.Errorf("budget %d: generated %d != unbounded %d",
				budget, res.Stats.Generated, ref.Stats.Generated)
		}
		if res.Stats.Merges != ref.Stats.Merges {
			t.Errorf("budget %d: merges %d != unbounded %d",
				budget, res.Stats.Merges, ref.Stats.Merges)
		}
		if res.Stats.Aligned+res.Stats.Skipped != res.Stats.Generated {
			t.Errorf("budget %d: pair accounting broken: %+v", budget, res.Stats)
		}
	}
}

// TestParallelMemBudgetMatchesSerial: the full out-of-core stack —
// disk-backed store, spilling distributed GST, worker sweeps — must
// produce exactly the all-RAM serial clustering.
func TestParallelMemBudgetMatchesSerial(t *testing.T) {
	mem, _ := islandStore(12, 3, 2200, 120)
	cfg := testConfig()
	ref := Serial(mem, cfg)
	want := clusterLabels(ref)

	disk, err := diskstore.Create(t.TempDir(), mem.Fragments(),
		diskstore.Options{CacheBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	for _, p := range []int{2, 4} {
		bcfg := cfg
		bcfg.MemBudget = 32 << 10
		pcfg := DefaultParallelConfig(p)
		pcfg.BatchSize = 16
		res, _, err := Parallel(disk, bcfg, pcfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		got := clusterLabels(res)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: fragment %d in cluster %d, serial says %d",
					p, i, got[i], want[i])
			}
		}
		if res.Stats.Generated != ref.Stats.Generated {
			t.Errorf("p=%d: generated %d != serial %d", p, res.Stats.Generated, ref.Stats.Generated)
		}
		if res.Stats.Merges != ref.Stats.Merges {
			t.Errorf("p=%d: merges %d != serial %d", p, res.Stats.Merges, ref.Stats.Merges)
		}
	}
}

// TestParallelChargesSweeps: under a memory budget the workers build
// their forests segment by segment while clustering, inside their pulls
// from their pair streams — and the modeled clock of the clustering phase
// must pay for that: the ranks' compute is at least what the same
// build's sweeps cost.
func TestParallelChargesSweeps(t *testing.T) {
	st, _ := islandStore(12, 3, 2200, 120)
	cfg := testConfig()
	cfg.MemBudget = 32 << 10
	const p = 3
	pcfg := DefaultParallelConfig(p)
	_, ph, err := Parallel(st, cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var sweeps float64
	par.Run(par.DefaultConfig(p), func(c *par.Comm) {
		local := pgst.Build(c, st, pgst.Config{ // as rankBody builds it
			W: cfg.W, MinLen: cfg.Psi, FirstOwner: 1, BatchBytes: pcfg.BatchBytes, Seed: 12345, SpillBytes: cfg.MemBudget,
		})
		local.Forests(st, c.Rank(), func(_ *suffixtree.Tree, cost float64) bool {
			mu.Lock()
			sweeps += cost
			mu.Unlock()
			return true
		})
	})
	if sweeps <= 0 {
		t.Fatal("the sweeps cost nothing; weak test")
	}
	if ph.Cluster.SumComp < sweeps {
		t.Fatalf("clustering-phase compute %.6g s over all ranks, the sweeps alone cost %.6g s", ph.Cluster.SumComp, sweeps)
	}
	t.Logf("clustering-phase compute %.6g s, of which sweeps %.6g s", ph.Cluster.SumComp, sweeps)
}
