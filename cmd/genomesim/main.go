// Command genomesim synthesizes the paper's evaluation workloads as
// FASTA files: a maize-like gene-enriched mixture, a uniformly
// shotgunned genome, or an environmental community sample.
//
// Usage:
//
//	genomesim -kind maize -len 200000 -out maize      # maize_reads.fa + maize_genome.fa
//	genomesim -kind wgs -len 100000 -coverage 8.8 -out fly
//	genomesim -kind env -species 20 -reads 3000 -out sea
//
// Read headers carry the ground-truth origin
// (source/start/end/strand) so downstream validation can recover it.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/seq"
	"repro/internal/simulate"
)

func main() {
	kind := flag.String("kind", "maize", "workload: maize | wgs | env")
	length := flag.Int("len", 200000, "genome length (maize, wgs)")
	coverage := flag.Float64("coverage", 8.8, "shotgun coverage (wgs)")
	species := flag.Int("species", 20, "community size (env)")
	reads := flag.Int("reads", 3000, "total reads (env)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "sim", "output file prefix")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var frags []*seq.Fragment
	var genomes []*simulate.Genome

	switch *kind {
	case "maize":
		m := simulate.MaizeLike(rng, *length)
		frags = m.All()
		genomes = []*simulate.Genome{m.Genome}
	case "wgs":
		g, r := simulate.DrosophilaLike(rng, *length)
		// DrosophilaLike fixes coverage at 8.8×; resample when asked
		// for something else.
		if *coverage != 8.8 {
			r = simulate.SampleWGS(rng, g, *coverage, simulate.DefaultReadConfig(), "wgs")
		}
		frags = r
		genomes = []*simulate.Genome{g}
	case "env":
		gs, r := simulate.SargassoLike(rng, *species, *reads)
		frags = r
		genomes = gs
	default:
		fmt.Fprintf(os.Stderr, "genomesim: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	writeFasta := func(path string, recs []seq.Record) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "genomesim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := seq.WriteFASTA(f, recs, 0); err != nil {
			fmt.Fprintln(os.Stderr, "genomesim:", err)
			os.Exit(1)
		}
	}

	readRecs := make([]seq.Record, len(frags))
	qualRecs := make([]seq.QualRecord, 0, len(frags))
	for i, fr := range frags {
		name := fr.Name
		if o := fr.Origin; o != nil {
			strand := "+"
			if o.Reverse {
				strand = "-"
			}
			name = fmt.Sprintf("%s source=%s start=%d end=%d strand=%s", fr.Name, o.Source, o.Start, o.End, strand)
		}
		readRecs[i] = seq.Record{Name: name, Bases: fr.Bases}
		if fr.Qual != nil {
			qualRecs = append(qualRecs, seq.QualRecord{Name: name, Quals: fr.Qual})
		}
	}
	writeFasta(*out+"_reads.fa", readRecs)
	if len(qualRecs) > 0 {
		qf, err := os.Create(*out + "_reads.qual")
		if err != nil {
			fmt.Fprintln(os.Stderr, "genomesim:", err)
			os.Exit(1)
		}
		if err := seq.WriteQual(qf, qualRecs, 0); err != nil {
			fmt.Fprintln(os.Stderr, "genomesim:", err)
			os.Exit(1)
		}
		qf.Close()
	}

	genomeRecs := make([]seq.Record, len(genomes))
	for i, g := range genomes {
		genomeRecs[i] = seq.Record{Name: g.Name, Bases: g.Seq}
	}
	writeFasta(*out+"_genome.fa", genomeRecs)

	total := 0
	for _, fr := range frags {
		total += len(fr.Bases)
	}
	fmt.Printf("wrote %d reads (%d bases) to %s_reads.fa and %d source sequences to %s_genome.fa\n",
		len(frags), total, *out, len(genomes), *out)
}
