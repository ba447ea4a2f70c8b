package pairgen

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pgst"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/suffixtree"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// corpusInput is one seeded read set shaped like a benchmark workload.
type corpusInput struct {
	name  string
	reads func(rng *rand.Rand) []*seq.Fragment
	seed  int64
}

// wgsShaped is a uniform 8.8× shotgun of a 4 kbp genome with the
// wgs_serial repeat families scaled to its length.
func wgsShaped(rng *rand.Rand) []*seq.Fragment {
	l := 4000.0
	g := simulate.NewGenome(rng, "wgs", simulate.GenomeConfig{
		Length: int(l),
		Repeats: []simulate.RepeatFamily{
			{Length: 400, Copies: int(0.10 * l / 400), Divergence: 0.04},
			{Length: 150, Copies: int(0.05 * l / 150), Divergence: 0.05},
		},
	})
	return maskSome(rng, simulate.SampleWGS(rng, g, 8.8, simulate.DefaultReadConfig(), "wgs"))
}

// maizeShaped shotguns a repeat-rich maize-like genome at 1.1×, as
// maize_p4 does.
func maizeShaped(rng *rand.Rand) []*seq.Fragment {
	g := simulate.MaizeLike(rng, 30_000).Genome
	return maskSome(rng, simulate.SampleWGS(rng, g, 1.1, simulate.DefaultReadConfig(), "mz"))
}

// envShaped is an environmental sample of three small genomes sharing
// a low-copy repeat family, as env_ooc's input is.
func envShaped(rng *rand.Rand) []*seq.Fragment {
	genomes := simulate.NewGenomeSet(rng, 3, 8_000, 10_000, simulate.GenomeConfig{
		Repeats: []simulate.RepeatFamily{{Length: 800, Copies: 3, Divergence: 0.03}},
	})
	return maskSome(rng, simulate.SampleEnvironmental(rng, genomes, 1.0, 50, simulate.DefaultReadConfig(), "env"))
}

// maskSome masks isolated bases and the odd short run, as quality and
// vector trimming leave them, so that the forests hold masked
// singletons and λ suffixes after a mask.
func maskSome(rng *rand.Rand, frags []*seq.Fragment) []*seq.Fragment {
	for _, f := range frags {
		for i := range f.Bases {
			if rng.Float64() < 0.002 {
				for k := i; k < min(i+1+rng.Intn(3), len(f.Bases)); k++ {
					f.Bases[k] = seq.Masked
				}
			}
		}
	}
	return frags
}

var corpus = []corpusInput{
	{"wgs-1", wgsShaped, 1}, {"wgs-2", wgsShaped, 2},
	{"maize-1", maizeShaped, 1}, {"maize-2", maizeShaped, 2},
	{"env-1", envShaped, 1}, {"env-2", envShaped, 2},
}

// corpusConfigs are the (ψ, w) shapes every input runs under: ψ > w,
// the production shape, leaves internal nodes below ψ; ψ = w does not.
var corpusConfigs = []struct{ psi, w int }{{20, 10}, {12, 12}}

// streamHash digests the ordered pair stream.
type streamHash struct {
	h   hash.Hash64
	buf [20]byte
}

func newStreamHash() *streamHash { return &streamHash{h: fnv.New64a()} }

func (s *streamHash) add(p Pair) {
	for i, v := range [5]int32{p.ASid, p.BSid, p.APos, p.BPos, p.MatchLen} {
		binary.LittleEndian.PutUint32(s.buf[4*i:], uint32(v))
	}
	s.h.Write(s.buf[:])
}

func (s *streamHash) String() string { return fmt.Sprintf("%016x", s.h.Sum64()) }

// TestGenerateCorpusGolden pins the ordered pair stream and the Stats
// of seeded forests shaped like the benchmark workloads to
// testdata/corpus.golden: every input under ψ > w and ψ = w, with
// duplicate elimination on and off, once stopped halfway, and one
// multi-segment sweep. A change to pair generation meant to keep the
// stream must leave every line alone; regenerate with `go test -run
// CorpusGolden -update ./internal/pairgen` only after a change meant to
// move it. Every stream is generated in each of splits, so the golden
// also holds whatever the core count.
func TestGenerateCorpusGolden(t *testing.T) {
	golden := filepath.Join("testdata", "corpus.golden")
	for i, sp := range splits {
		var got []byte
		sp.run(func() { got = corpusStreams(t) })
		if *update && i == 0 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: pair stream drifted from golden.\n--- got ---\n%s--- want ---\n%s", sp, got, want)
		}
	}
}

// corpusStreams renders every stream TestGenerateCorpusGolden pins, and
// fails t unless one of its forests is large enough for the first pass
// to split on four cores at its own chunk minimum.
func corpusStreams(t *testing.T) []byte {
	var got bytes.Buffer
	largest := 0
	for _, in := range corpus {
		st := seq.NewStore(in.reads(rand.New(rand.NewSource(in.seed))))
		for _, c := range corpusConfigs {
			var tree *suffixtree.Tree
			pgst.SweepSerial(st, pgst.Config{W: c.w, MinLen: c.psi}, func(f *suffixtree.Tree) bool {
				tree = f
				return true
			})
			largest = max(largest, tree.NumNodes())
			for _, dedup := range []bool{false, true} {
				cfg := Config{Psi: c.psi, NumFragments: st.N(), DuplicateElimination: dedup}
				h := newStreamHash()
				stats := Generate(tree, cfg, func(p Pair) bool { h.add(p); return true })
				fmt.Fprintf(&got, "%s psi=%d w=%d dedup=%t nodes=%d %+v %s\n",
					in.name, c.psi, c.w, dedup, tree.NumNodes(), stats, h)
				if !dedup || c.psi == c.w {
					continue
				}
				// Stopped at half the stream: pins NodesVisited on a stop.
				h, k := newStreamHash(), stats.Emitted/2+1
				stats = Generate(tree, cfg, func(p Pair) bool { h.add(p); k--; return k > 0 })
				fmt.Fprintf(&got, "%s psi=%d w=%d dedup=%t stopped %+v %s\n", in.name, c.psi, c.w, dedup, stats, h)
			}
		}
	}

	// One multi-segment sweep: a forest per segment, one stream.
	st := seq.NewStore(envShaped(rand.New(rand.NewSource(3))))
	cfg := Config{Psi: 20, NumFragments: st.N(), DuplicateElimination: true}
	h, segs, total := newStreamHash(), 0, Stats{}
	pgst.SweepSerial(st, pgst.Config{W: 10, MinLen: 20, SpillBytes: 200_000}, func(f *suffixtree.Tree) bool {
		segs++
		total = total.add(Generate(f, cfg, func(p Pair) bool { h.add(p); return true }))
		return true
	})
	fmt.Fprintf(&got, "env-3 sweep segments=%d %+v %s\n", segs, total, h)
	if largest < 4*minChunkNodes {
		t.Fatalf("largest forest has %d nodes: none splits in four; weak test", largest)
	}
	return got.Bytes()
}

// BenchmarkGenerate generates every pair of one wgs_serial-shaped
// forest (8 kbp genome, 8.8×, ψ = 20, w = 10, duplicate elimination)
// and reports the cost per forest node. Run with -benchmem: bytes and
// allocations per forest are half the story.
func BenchmarkGenerate(b *testing.B) {
	tree, cfg := benchForest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = Generate(tree, cfg, func(Pair) bool { return true })
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tree.NumNodes()), "ns/node")
}

// BenchmarkGenerateStages times BenchmarkGenerate's two passes apart:
// collect-ms is the first pass (split across cores), emit-ms the
// second (on the caller's goroutine).
func BenchmarkGenerateStages(b *testing.B) {
	tree, cfg := benchForest()
	var collect, emit time.Duration
	for i := 0; i < b.N; i++ {
		s := segment{cfg: cfg}
		t0 := time.Now()
		s.add(tree)
		t1 := time.Now()
		benchStats, _ = s.emit(func(Pair) bool { return true })
		collect, emit = collect+t1.Sub(t0), emit+time.Since(t1)
	}
	b.ReportMetric(float64(collect.Microseconds())/1e3/float64(b.N), "collect-ms")
	b.ReportMetric(float64(emit.Microseconds())/1e3/float64(b.N), "emit-ms")
}

// benchForest is the forest and configuration of BenchmarkGenerate.
func benchForest() (*suffixtree.Tree, Config) {
	l := 8000.0
	rng := rand.New(rand.NewSource(1))
	g := simulate.NewGenome(rng, "wgs", simulate.GenomeConfig{
		Length: int(l),
		Repeats: []simulate.RepeatFamily{
			{Length: 400, Copies: int(0.10 * l / 400), Divergence: 0.04},
			{Length: 150, Copies: int(0.05 * l / 150), Divergence: 0.05},
		},
	})
	st := seq.NewStore(maskSome(rng, simulate.SampleWGS(rng, g, 8.8, simulate.DefaultReadConfig(), "wgs")))
	var tree *suffixtree.Tree
	pgst.SweepSerial(st, pgst.Config{W: 10, MinLen: 20}, func(f *suffixtree.Tree) bool {
		tree = f
		return true
	})
	return tree, Config{Psi: 20, NumFragments: st.N(), DuplicateElimination: true}
}

// benchStats keeps the benchmarked call from being optimised away.
var benchStats Stats
