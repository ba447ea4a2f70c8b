package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// A workload is one kind of input plus one way of driving a program
// over it. A run measures a sequence of units, each a fresh input
// drawn from (seed, unit index): the inputs are small, so one input's
// cost depends heavily on where its repeats and reads happen to fall,
// and only the median over several inputs is steady from seed to seed.
type workload struct {
	name string
	// generate draws one input's reads. Batch workloads draw one read
	// set per unit, serve_mix one per job.
	generate func(rng *rand.Rand) []*seq.Fragment
	// qual writes the companion .qual file and passes it to the
	// program, which turns on quality trimming.
	qual bool
	// prog and args name the program and its flags; -in/-out (and
	// -qual) are added per unit.
	prog string
	args []string
	// clusterOnly marks workloads whose output is the partition TSV of
	// asmcluster; the others produce contigs.
	clusterOnly bool
	// outOfCore marks the workload whose flags select the disk store
	// and the spill budget, so the replay takes the same path.
	outOfCore bool
	// jobs > 0 makes this the service workload: each unit is one
	// asmserve process given that many distinct jobs, then resubmits.
	jobs, resubmits int
	// sized is the measured duration of one unit on the 2-core sizing
	// host; a unit still running after 10× this is killed and counted
	// as failed.
	sized time.Duration
}

// Sizes. One unit is sized to about a second so that a run measures
// several distinct inputs; README.md records the measurements.
const (
	wgsGenomeLen   = 8_000
	wgsCoverage    = 8.8
	maizeGenomeLen = 90_000
	maizeCoverage  = 1.1
	envSpecies     = 4
	envReads       = 150
	envMinGenome   = 28_000
	envMaxGenome   = 32_000
	// envMemBudget forces the spilling GST through ~30 segments on the
	// env input (2 suffixes per base × 96 B each ≈ 20 MB unspilled).
	envMemBudget = 600_000
	jobSpecies   = 3
	jobReads     = 60
)

var workloads = []workload{
	{
		name:     "wgs_serial",
		generate: wgsReads,
		qual:     true,
		prog:     "asmpipeline",
		args:     []string{"-ranks", "1"},
		sized:    1200 * time.Millisecond,
	},
	{
		name:        "maize_p4",
		generate:    maizeReads,
		prog:        "asmcluster",
		args:        []string{"-ranks", "4", "-transport", "inproc"},
		clusterOnly: true,
		sized:       1200 * time.Millisecond,
	},
	{
		name:        "maize_p4_tcp",
		generate:    maizeReads,
		prog:        "asmcluster",
		args:        []string{"-ranks", "4", "-transport", "tcp"},
		clusterOnly: true,
		sized:       1500 * time.Millisecond,
	},
	{
		name:      "env_ooc",
		generate:  func(rng *rand.Rand) []*seq.Fragment { return envSample(rng, envSpecies, envReads) },
		prog:      "asmpipeline",
		args:      []string{"-ranks", "1", "-store", "disk", "-mem-budget", fmt.Sprint(envMemBudget), "-workdir", "work"},
		outOfCore: true,
		sized:     1200 * time.Millisecond,
	},
	{
		name:      "serve_mix",
		generate:  func(rng *rand.Rand) []*seq.Fragment { return envSample(rng, jobSpecies, jobReads) },
		prog:      "asmserve",
		jobs:      12,
		resubmits: 4,
		sized:     3 * time.Second,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// gridReads draws n reads from g with read starts on a jittered grid
// (one read per cell, uniform within it) instead of fully random
// starts. Coverage is then even, so two seeds give inputs of nearly
// equal cost; base content, read lengths, strands and errors still
// vary with the seed.
func gridReads(rng *rand.Rand, g *simulate.Genome, n int, prefix string) []*seq.Fragment {
	rc := simulate.DefaultReadConfig()
	cell := float64(len(g.Seq)) / float64(n)
	reads := make([]*seq.Fragment, n)
	for i := range reads {
		start := int((float64(i) + rng.Float64()) * cell)
		if start >= len(g.Seq) {
			start = len(g.Seq) - 1
		}
		reads[i] = simulate.SampleAt(rng, g, rc, start, fmt.Sprintf("%s_%06d", prefix, i))
	}
	return reads
}

// shotgun is gridReads to a coverage, in shuffled file order so that
// neighbouring IDs do not overlap by construction.
func shotgun(rng *rand.Rand, g *simulate.Genome, coverage float64, prefix string) []*seq.Fragment {
	n := int(coverage * float64(len(g.Seq)) / float64(simulate.DefaultReadConfig().MeanLen))
	reads := gridReads(rng, g, n, prefix)
	rng.Shuffle(n, func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	return reads
}

// wgsReads is a uniform 8.8× shotgun of a genome with the repeat
// families of simulate.DrosophilaLike scaled to the genome length.
// (DrosophilaLike itself adds 15 copies per family at any length, which
// at 10 kbp makes the genome mostly repeats and one unit take 13 s.)
func wgsReads(rng *rand.Rand) []*seq.Fragment {
	l := float64(wgsGenomeLen)
	g := simulate.NewGenome(rng, "wgs", simulate.GenomeConfig{
		Length: wgsGenomeLen,
		Repeats: []simulate.RepeatFamily{
			{Length: 400, Copies: int(0.10 * l / 400), Divergence: 0.04},
			{Length: 150, Copies: int(0.05 * l / 150), Divergence: 0.05},
		},
	})
	return shotgun(rng, g, wgsCoverage, "wgs")
}

// maizeReads shotguns the repeat-rich genome of simulate.MaizeLike at
// its 1.1× total coverage. MaizeLike's own read mixture (gene-enriched
// and BAC reads) is left out: at this size a couple of BACs landing on
// or off a repeat block moves the alignment count by 2×.
func maizeReads(rng *rand.Rand) []*seq.Fragment {
	g := simulate.MaizeLike(rng, maizeGenomeLen).Genome
	return shotgun(rng, g, maizeCoverage, "mz")
}

// envSample is an environmental sample in the manner of
// simulate.SargassoLike: small genomes with one low-copy repeat
// family, read counts falling off as 1/rank. It differs in two ways
// that keep the cost of an input steady from seed to seed: genome
// lengths come from a narrower range (SargassoLike's 15–60 kbp puts
// the dominant species anywhere between 0.8× and 3.4× coverage at this
// size), and reads start on a jittered grid.
func envSample(rng *rand.Rand, species, reads int) []*seq.Fragment {
	genomes := simulate.NewGenomeSet(rng, species, envMinGenome, envMaxGenome, simulate.GenomeConfig{
		Repeats: []simulate.RepeatFamily{{Length: 800, Copies: 3, Divergence: 0.03}},
	})
	harmonic := 0.0
	for i := range genomes {
		harmonic += 1 / float64(i+1)
	}
	var out []*seq.Fragment
	for i, g := range genomes {
		n := int(float64(reads) / float64(i+1) / harmonic)
		out = append(out, gridReads(rng, g, n, fmt.Sprintf("env%d", i))...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// unitRNG derives the generator for one unit of one run.
func unitRNG(seed int64, unit int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(unit)))
}

// input is one read set on disk, as a program receives it.
type input struct {
	fasta, qual string // qual is "" when not written
	reads       int
}

// writeInput writes reads as FASTA (and .qual) under dir.
func writeInput(dir, stem string, reads []*seq.Fragment, withQual bool) (input, error) {
	in := input{fasta: filepath.Join(dir, stem+".fa"), reads: len(reads)}
	recs := make([]seq.Record, len(reads))
	quals := make([]seq.QualRecord, len(reads))
	for i, r := range reads {
		recs[i] = seq.Record{Name: r.Name, Bases: r.Bases}
		quals[i] = seq.QualRecord{Name: r.Name, Quals: r.Qual}
	}
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, recs, 0); err != nil {
		return in, err
	}
	if err := os.WriteFile(in.fasta, buf.Bytes(), 0o644); err != nil {
		return in, err
	}
	if withQual {
		in.qual = filepath.Join(dir, stem+".qual")
		buf.Reset()
		if err := seq.WriteQual(&buf, quals, 0); err != nil {
			return in, err
		}
		if err := os.WriteFile(in.qual, buf.Bytes(), 0o644); err != nil {
			return in, err
		}
	}
	return in, nil
}

// readInput parses an input back from its files, exactly as the
// programs do, so references are computed over what was delivered.
func readInput(in input) ([]*seq.Fragment, error) {
	f, err := os.Open(in.fasta)
	if err != nil {
		return nil, err
	}
	frags, err := repro.ReadFASTA(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if in.qual != "" {
		qf, err := os.Open(in.qual)
		if err != nil {
			return nil, err
		}
		quals, err := seq.ReadQual(qf)
		qf.Close()
		if err == nil {
			err = seq.AttachQuals(frags, quals)
		}
		if err != nil {
			return nil, err
		}
	}
	return frags, nil
}

// pipelineConfig is the configuration asmpipeline and the job runner
// build from default flags: preprocessing only with qualities, serial
// clustering, guarded assembly. Store and spill settings are left at
// the all-RAM defaults on purpose — the out-of-core run must produce
// the same bytes.
func pipelineConfig(withQual bool, assemblyWorkers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.PreprocessEnabled = withQual
	cfg.AssemblyWorkers = assemblyWorkers
	cfg.AssemblyGuard = &assembly.Guard{Retries: 1, Backoff: 10 * time.Millisecond}
	return cfg
}

// clusterConfig is what asmcluster builds from default flags.
func clusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Criteria.MinOverlap = 40
	cfg.Criteria.MinIdentity = 0.90
	return cfg
}

// contigsFASTA renders contigs the way asmpipeline and the job runner
// write them.
func contigsFASTA(contigs [][]assembly.Contig) ([]byte, error) {
	var recs []seq.Record
	for ci, cs := range contigs {
		for ki, c := range cs {
			recs = append(recs, seq.Record{
				Name:  fmt.Sprintf("contig_%d_%d len=%d reads=%d depth=%.1f", ci, ki, len(c.Bases), len(c.Reads), c.Depth),
				Bases: c.Bases,
			})
		}
	}
	var buf bytes.Buffer
	err := seq.WriteFASTA(&buf, recs, 0)
	return buf.Bytes(), err
}

// partitionTSV renders a clustering the way asmcluster writes it: one
// line per fragment, name and the smallest member of its cluster.
func partitionTSV(store seq.Seqs, labels []int) []byte {
	var buf bytes.Buffer
	for i, l := range labels {
		fmt.Fprintf(&buf, "%s\t%d\n", store.FragName(i), l)
	}
	return buf.Bytes()
}

// reference computes, in process and serially, the bytes the program
// must have written for this input: the contigs of the all-RAM serial
// pipeline, or the partition of serial clustering.
func (w *workload) reference(in input) ([]byte, error) {
	frags, err := readInput(in)
	if err != nil {
		return nil, err
	}
	if w.clusterOnly {
		store := seq.NewStore(frags)
		res := cluster.Serial(store, clusterConfig())
		return partitionTSV(store, cluster.PartitionLabels(res)), nil
	}
	res, err := core.Run(frags, pipelineConfig(in.qual != "", 1))
	if err != nil {
		return nil, err
	}
	return contigsFASTA(res.Contigs)
}

// unit is one prepared input (or, for serve_mix, one server with its
// jobs) and, once run, what it produced.
type unit struct {
	dir    string
	inputs []input // one, or one per job
	server *server // serve_mix only

	outputs [][]byte // per input: the bytes the program produced
	failed  []bool   // per input: the program itself reported failure
}

// prepare is the set-up of one unit: generate the inputs from the
// seed, write them, and for serve_mix start the server and wait until
// it is ready.
func (w *workload) prepare(ctx context.Context, binDir, scratch string, seed int64, index int) (*unit, error) {
	u := &unit{dir: filepath.Join(scratch, fmt.Sprintf("unit%03d", index))}
	if err := os.MkdirAll(u.dir, 0o755); err != nil {
		return nil, err
	}
	rng := unitRNG(seed, index)
	n := 1
	if w.jobs > 0 {
		n = w.jobs
	}
	for j := 0; j < n; j++ {
		in, err := writeInput(u.dir, fmt.Sprintf("reads%02d", j), w.generate(rng), w.qual)
		if err != nil {
			return nil, err
		}
		u.inputs = append(u.inputs, in)
	}
	u.outputs = make([][]byte, n)
	u.failed = make([]bool, n)
	if w.jobs > 0 {
		srv, err := startServer(ctx, filepath.Join(binDir, w.prog), u.dir)
		if err != nil {
			return nil, err
		}
		u.server = srv
	}
	return u, nil
}

// sample is what one unit contributes to the end-to-end metrics.
type sample struct {
	procStats
	reads     int
	latencies []float64 // per job, submit (or exec) → result in hand
	service   serviceStats
}

// run drives the program over one prepared unit.
func (w *workload) run(ctx context.Context, binDir string, u *unit) (sample, error) {
	if w.jobs > 0 {
		return w.runService(ctx, u)
	}
	in := u.inputs[0]
	outName := "contigs.fa"
	if w.clusterOnly {
		outName = "clusters.tsv"
	}
	args := append([]string{"-in", in.fasta, "-out", outName}, w.args...)
	if in.qual != "" {
		args = append(args, "-qual", in.qual)
	}
	ps, err := runProgram(ctx, 10*w.sized, u.dir, filepath.Join(binDir, w.prog), args...)
	if err != nil {
		u.failed[0] = true
		return sample{}, err
	}
	if u.outputs[0], err = os.ReadFile(filepath.Join(u.dir, outName)); err != nil {
		u.failed[0] = true
		return sample{}, err
	}
	return sample{procStats: ps, reads: in.reads, latencies: []float64{ps.wall}}, nil
}

// verify recomputes every input's reference and compares bytes. It
// returns how many of the unit's jobs failed or produced wrong output.
func (w *workload) verify(u *unit) (failed int, firstErr error) {
	for j, in := range u.inputs {
		if u.failed[j] {
			failed++
			continue
		}
		want, err := w.reference(in)
		if err == nil && !bytes.Equal(u.outputs[j], want) {
			err = fmt.Errorf("%s: output of %s differs from the serial in-process reference (%d vs %d bytes)",
				w.name, filepath.Base(in.fasta), len(u.outputs[j]), len(want))
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return failed, firstErr
}
