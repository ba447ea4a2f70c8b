package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/seq"
	"repro/internal/simulate"
)

// islandStore builds reads from k well-separated genomic islands, so
// the correct clustering is known: reads co-cluster iff they share an
// island (with enough coverage that each island is connected).
func islandStore(seed int64, islands, islandLen int, reads int) (*seq.Store, []int) {
	rng := rand.New(rand.NewSource(seed))
	genomes := make([]*simulate.Genome, islands)
	for i := range genomes {
		genomes[i] = simulate.NewGenome(rng, fmt.Sprintf("isl%d", i),
			simulate.GenomeConfig{Length: islandLen})
	}
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 300
	rc.LenSD = 30
	rc.VectorProb = 0
	var frags []*seq.Fragment
	var truth []int
	for i := 0; i < reads; i++ {
		gi := i % islands
		g := genomes[gi]
		// Evenly spread starts so islands are connected end to end.
		start := (i / islands * 137) % (islandLen - rc.MeanLen)
		f := simulate.SampleAt(rng, g, rc, start, fmt.Sprintf("r%04d", i))
		frags = append(frags, f)
		truth = append(truth, gi)
	}
	return seq.NewStore(frags), truth
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Psi = 16
	cfg.W = 8
	return cfg
}

func TestSerialClustersIslands(t *testing.T) {
	st, truth := islandStore(1, 4, 3000, 160)
	res := Serial(st, testConfig())

	// No cluster may mix islands (correctness: false joins would merge
	// contigs that cannot overlap).
	for _, cl := range res.Clusters() {
		first := truth[cl[0]]
		for _, f := range cl[1:] {
			if truth[f] != first {
				t.Fatalf("cluster mixes islands %d and %d", first, truth[f])
			}
		}
	}
	// Each island's reads must form essentially one cluster (sampling
	// is dense and uniform).
	sum := res.Summarize()
	if sum.NumClusters > 8 {
		t.Errorf("%d clusters for 4 islands; sampling should connect each island", sum.NumClusters)
	}
	if sum.NumClusters < 4 {
		t.Errorf("only %d clusters for 4 distinct islands", sum.NumClusters)
	}
	if res.Stats.Generated == 0 || res.Stats.Aligned == 0 || res.Stats.Accepted == 0 {
		t.Errorf("stats look empty: %+v", res.Stats)
	}
}

// TestHeuristicSavesAlignments: processing pairs in decreasing match
// order with the same-cluster test must skip a meaningful share of
// alignments on redundantly covered data (the Table 1 effect).
func TestHeuristicSavesAlignments(t *testing.T) {
	st, _ := islandStore(2, 2, 2500, 180)
	res := Serial(st, testConfig())
	if res.Stats.SavingsFraction() < 0.2 {
		t.Errorf("savings %.2f; expected ≥0.2 on densely covered islands (paper: 0.44–0.65)",
			res.Stats.SavingsFraction())
	}
	if res.Stats.Generated != res.Stats.Aligned+res.Stats.Skipped {
		t.Errorf("generated %d != aligned %d + skipped %d",
			res.Stats.Generated, res.Stats.Aligned, res.Stats.Skipped)
	}
	if res.Stats.Accepted > res.Stats.Aligned {
		t.Error("accepted > aligned")
	}
	if res.Stats.Merges > res.Stats.Accepted {
		t.Error("merges > accepted")
	}
}

func clusterLabels(res *Result) []int {
	labels := make([]int, res.N)
	smallest := make(map[int]int)
	for i := 0; i < res.N; i++ {
		r := res.UF.Find(i)
		if _, ok := smallest[r]; !ok {
			smallest[r] = i
		}
		labels[i] = smallest[r]
	}
	return labels
}

// TestParallelMatchesSerial: the master–worker implementation must
// produce exactly the serial clustering (transitive closure is
// order-independent) and generate the same number of promising pairs.
func TestParallelMatchesSerial(t *testing.T) {
	st, _ := islandStore(3, 3, 2200, 120)
	cfg := testConfig()
	serial := Serial(st, cfg)
	want := clusterLabels(serial)

	for _, p := range []int{2, 3, 5, 8} {
		for _, ssend := range []bool{true, false} {
			pcfg := DefaultParallelConfig(p)
			pcfg.BatchSize = 16
			pcfg.UseSsend = ssend
			res, _, err := Parallel(st, cfg, pcfg)
			if err != nil {
				t.Fatalf("p=%d ssend=%v: %v", p, ssend, err)
			}
			got := clusterLabels(res)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d ssend=%v: fragment %d in cluster %d, serial says %d",
						p, ssend, i, got[i], want[i])
				}
			}
			if res.Stats.Generated != serial.Stats.Generated {
				t.Errorf("p=%d: generated %d != serial %d", p, res.Stats.Generated, serial.Stats.Generated)
			}
			// Merges = n − final components is order-independent, so it
			// must agree exactly even though Aligned/Skipped may differ
			// with scheduling.
			if res.Stats.Merges != serial.Stats.Merges {
				t.Errorf("p=%d: merges %d != serial %d", p, res.Stats.Merges, serial.Stats.Merges)
			}
			if res.Stats.Aligned+res.Stats.Skipped != res.Stats.Generated {
				t.Errorf("p=%d: pair accounting broken: %+v", p, res.Stats)
			}
		}
	}
}

func TestParallelPhaseStats(t *testing.T) {
	st, _ := islandStore(4, 2, 2000, 80)
	res, ph, err := Parallel(st, testConfig(), DefaultParallelConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if ph.GST.MaxModeled <= 0 {
		t.Error("GST phase has no modeled time")
	}
	if ph.Cluster.MaxModeled <= 0 {
		t.Error("cluster phase has no modeled time")
	}
	if res.Stats.GSTSeconds <= 0 || res.Stats.ClusterSeconds <= 0 {
		t.Errorf("phase seconds missing: %+v", res.Stats)
	}
	if ph.MasterAvailability < 0 || ph.MasterAvailability > 1 {
		t.Errorf("master availability %.2f out of range", ph.MasterAvailability)
	}
}

// TestParallelScaling checks the Fig. 9 shape: modeled clustering time
// shrinks as workers are added.
//
// The modeled makespan of one run is not a function of the input alone:
// which worker's report the master sees first is the host scheduler's
// choice, and that decides both who gets the next batch and how many
// pairs are aligned before the union that would have skipped them
// arrives. So the assertion must not hinge on one run of a marginal
// input. Two things keep it schedule-independent in practice: many
// small islands, where concurrency inflates the alignment work 1.6×
// (not the 2.5× of a few large ones) and seven workers share it, so
// p=8 sits near a third of p=2 while the scheduler moves it by ±10 %;
// and the median of three runs per machine size, so one outlier
// schedule cannot decide the outcome.
//
// The race detector is a different regime, not noise: its
// serialization lets whichever worker wakes first claim most of the
// demand-driven batches, so one rank carries nearly all the modeled
// work at any p and no max-based metric can show a speedup.
func TestParallelScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("demand-driven work distribution degenerates under the race detector")
	}
	st, _ := islandStore(5, 30, 1500, 300)
	cfg := testConfig()
	modeled := func(p int) float64 {
		runs := make([]float64, 3)
		for i := range runs {
			_, ph, err := Parallel(st, cfg, DefaultParallelConfig(p))
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = ph.Cluster.MaxModeled
		}
		sort.Float64s(runs)
		return runs[1]
	}
	t2, t8 := modeled(2), modeled(8)
	if t8 >= t2 {
		t.Errorf("no speedup: median of 3 runs p=2 %.4fs vs p=8 %.4fs", t2, t8)
	}
}

// TestMaskedRepeatsDontMerge: two islands carrying the same repeat
// must not merge when the repeat is masked.
func TestMaskedRepeatsDontMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	repeat := make([]byte, 500)
	for i := range repeat {
		repeat[i] = seq.Base(rng.Intn(4))
	}
	mkIsland := func(name string) *simulate.Genome {
		g := simulate.NewGenome(rng, name, simulate.GenomeConfig{Length: 2500})
		copy(g.Seq[1000:1500], repeat)
		return g
	}
	g1, g2 := mkIsland("a"), mkIsland("b")
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 300
	rc.VectorProb = 0
	var frags []*seq.Fragment
	var truth []int
	for i := 0; i < 60; i++ {
		g, gi := g1, 0
		if i%2 == 1 {
			g, gi = g2, 1
		}
		start := (i / 2 * 73) % (2500 - 300)
		frags = append(frags, simulate.SampleAt(rng, g, rc, start, fmt.Sprintf("r%d", i)))
		truth = append(truth, gi)
	}
	// Mask the repeat in every read.
	for _, f := range frags {
		maskExact(f.Bases, repeat)
	}
	st := seq.NewStore(frags)
	res := Serial(st, testConfig())
	for _, cl := range res.Clusters() {
		first := truth[cl[0]]
		for _, f := range cl[1:] {
			if truth[f] != first {
				t.Fatalf("repeat-induced merge across islands despite masking")
			}
		}
	}
}

// maskExact masks occurrences of pattern (or its RC) in b by direct
// substring search — a test stand-in for the preprocess masker.
func maskExact(b, pattern []byte) {
	for _, pat := range [][]byte{pattern, seq.ReverseComplement(pattern)} {
		for i := 0; i+50 <= len(b); i++ {
			// Seed on 50-mers of the pattern.
			for j := 0; j+50 <= len(pat); j += 25 {
				if string(b[i:i+50]) == string(pat[j:j+50]) {
					for k := i; k < i+50; k++ {
						b[k] = seq.Masked
					}
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for W > Psi")
		}
	}()
	cfg := Config{Psi: 8, W: 12}
	cfg.withDefaults()
}

func TestParallelNeedsTwoRanks(t *testing.T) {
	st, _ := islandStore(7, 1, 1500, 20)
	if _, _, err := Parallel(st, testConfig(), DefaultParallelConfig(1)); err == nil {
		t.Error("expected error for 1-rank parallel run")
	}
}
