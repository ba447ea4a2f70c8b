package assembly

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/seq"
	"repro/internal/simulate"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// corpusInput is one seeded read set assembled as a single cluster.
type corpusInput struct {
	name  string
	reads func(rng *rand.Rand) []*seq.Fragment
	seed  int64
}

// wgsLike is a uniform 8.8× shotgun of an 8 kbp genome whose repeat
// families are scaled to its length: the wgs_serial benchmark input.
func wgsLike(rng *rand.Rand) []*seq.Fragment {
	l := 8000.0
	g := simulate.NewGenome(rng, "wgs", simulate.GenomeConfig{
		Length: int(l),
		Repeats: []simulate.RepeatFamily{
			{Length: 400, Copies: int(0.10 * l / 400), Divergence: 0.04},
			{Length: 150, Copies: int(0.05 * l / 150), Divergence: 0.05},
		},
	})
	return simulate.SampleWGS(rng, g, 8.8, simulate.DefaultReadConfig(), "wgs")
}

// maizeIslands is the island-biased part of a small maize-like read
// mixture (methyl-filtrated and High-C0t reads): gene islands at high
// depth among young, long repeats.
func maizeIslands(rng *rand.Rand) []*seq.Fragment {
	m := simulate.MaizeLike(rng, 80_000)
	return append(append([]*seq.Fragment(nil), m.MF...), m.HC...)
}

// envLike is an environmental sample of three ~30 kbp genomes sharing
// nothing but a low-copy repeat family, read counts falling off as
// 1/rank: the job-sized input of the service benchmark.
func envLike(rng *rand.Rand) []*seq.Fragment {
	genomes := simulate.NewGenomeSet(rng, 3, 28_000, 32_000, simulate.GenomeConfig{
		Repeats: []simulate.RepeatFamily{{Length: 800, Copies: 3, Divergence: 0.03}},
	})
	return simulate.SampleEnvironmental(rng, genomes, 1.0, 60, simulate.DefaultReadConfig(), "env")
}

var corpus = []corpusInput{
	{"wgs-1", wgsLike, 1}, {"wgs-2", wgsLike, 2}, {"wgs-3", wgsLike, 3},
	{"maize-1", maizeIslands, 1}, {"maize-2", maizeIslands, 2}, {"maize-3", maizeIslands, 3},
	{"env-1", envLike, 1}, {"env-2", envLike, 2}, {"env-3", envLike, 3},
}

// hashContigs digests every contig's bases, read placements and depth.
func hashContigs(contigs []Contig) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range contigs {
		put(uint64(len(c.Bases)))
		h.Write(c.Bases)
		put(uint64(len(c.Reads)))
		for _, p := range c.Reads {
			rev := uint64(0)
			if p.Reverse {
				rev = 1
			}
			put(uint64(p.Frag))
			put(uint64(int64(p.Offset)))
			put(rev)
		}
		put(math.Float64bits(c.Depth))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestAssembleCorpusGolden pins the contigs of a seeded corpus, each
// input assembled as one cluster, to testdata/corpus.golden: a change
// to overlap detection, layout or consensus that is meant to be
// byte-identical must leave every line alone. Regenerate with `go test
// -run CorpusGolden -update ./internal/assembly` only after a change
// that is meant to move contigs.
//
// The corpus is assembled twice, on one core and on four, and both
// must match: the pool inside a cluster may not move a byte, and the
// four-core pass runs anchor alignments and fits side by side under
// the race detector on any host.
func TestAssembleCorpusGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var got bytes.Buffer
		for _, in := range corpus {
			reads := in.reads(rand.New(rand.NewSource(in.seed)))
			st := seq.NewStore(reads)
			contigs := AssembleCluster(st, members(st), DefaultConfig())
			fmt.Fprintf(&got, "%s reads=%d contigs=%d %s\n", in.name, len(reads), len(contigs), hashContigs(contigs))
		}
		golden := filepath.Join("testdata", "corpus.golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("GOMAXPROCS %d: contigs drifted from golden.\n--- got ---\n%s--- want ---\n%s", procs, got.Bytes(), want)
		}
	}
}

// BenchmarkAssembleCluster assembles one wgs_serial-shaped input (8 kbp
// genome, 8.8×, scaled repeat families) as a single cluster. Run with
// -benchmem: bytes and allocations per cluster are half the story.
func BenchmarkAssembleCluster(b *testing.B) {
	st := seq.NewStore(wgsLike(rand.New(rand.NewSource(1))))
	m := members(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchContigs = AssembleCluster(st, m, DefaultConfig())
	}
}

// BenchmarkAssembleStages times the three stages of
// BenchmarkAssembleCluster's cluster apart, each on the previous stage's
// output: overlap detection, layout, and consensus over every layout
// group. With -cpu 1,2 it shows which stages the pool spreads.
func BenchmarkAssembleStages(b *testing.B) {
	st := seq.NewStore(wgsLike(rand.New(rand.NewSource(1))))
	m := members(st)
	cfg := DefaultConfig()
	reads := make([][]byte, len(m))
	lengths := make([]int, len(m))
	for i, fid := range m {
		reads[i] = st.Seq(fid)
		lengths[i] = len(reads[i])
	}
	seqs, rcs := strands(reads)
	get := func(i int, rev bool) []byte {
		if rev {
			return rcs[i]
		}
		return seqs[i]
	}
	var stop atomic.Bool
	overlaps := findOverlaps(seqs, rcs, cfg, &stop)
	layout := buildLayout(len(m), lengths, overlaps, cfg)
	b.Run("overlap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchOverlaps = findOverlaps(seqs, rcs, cfg, &stop)
		}
	})
	b.Run("layout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchLayout = buildLayout(len(m), lengths, overlaps, cfg)
		}
	})
	b.Run("consensus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, group := range layout {
				benchContigs = append(benchContigs[:0], consensus(group, m, get, cfg, &stop))
			}
		}
	})
}

// benchContigs, benchOverlaps and benchLayout keep the benchmarked calls
// from being optimised away.
var (
	benchContigs  []Contig
	benchOverlaps []overlap
	benchLayout   [][]placed
)
