// Package repro is a from-scratch Go implementation of the massively
// parallel cluster-then-assemble genome assembly framework of
// Kalyanaraman, Emrich, Schnable and Aluru ("Assembling genomes on
// large-scale parallel computers", IPPS 2006 / JPDC 67 (2007)
// 1240–1255).
//
// The framework partitions shotgun sequencing fragments into clusters
// using a generalized suffix tree that streams promising pairs —
// pairs sharing a maximal exact match of length ≥ ψ — in decreasing
// match-length order and linear space, aligns a pair only when its
// fragments are in different clusters, and then assembles each
// cluster independently with a conventional overlap–layout–consensus
// assembler. Clustering runs either serially or on an in-process
// message-passing machine with one master and p−1 worker ranks.
//
// This package is the high-level entry point; the building blocks
// live under internal/ (par, seq, simulate, preprocess, suffixtree,
// pgst, pairgen, align, cluster, assembly, validate, experiments).
package repro

import (
	"io"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/preprocess"
	"repro/internal/scaffold"
	"repro/internal/seq"
)

// Re-exported pipeline types.
type (
	// Config configures the full cluster-then-assemble pipeline.
	Config = core.Config
	// Result is a completed pipeline run.
	Result = core.Result
	// Fragment is one sequencing read.
	Fragment = seq.Fragment
	// Store indexes fragments and their reverse complements.
	Store = seq.Store
	// ClusterConfig holds the clustering parameters (ψ, w, band,
	// overlap criteria).
	ClusterConfig = cluster.Config
	// ParallelConfig sizes the master–worker machine.
	ParallelConfig = cluster.ParallelConfig
	// AssemblyConfig holds the per-cluster assembler parameters.
	AssemblyConfig = assembly.Config
	// Contig is one assembled contiguous sequence.
	Contig = assembly.Contig
	// PreprocessConfig drives trimming, vector screening and masking.
	PreprocessConfig = preprocess.Config
	// RepeatDB is a repeat k-mer database for masking.
	RepeatDB = preprocess.RepeatDB
	// StoreConfig selects the sequence-store backend (in-memory, or
	// the out-of-core disk store).
	StoreConfig = core.StoreConfig
)

// Store backend names for StoreConfig.Backend.
const (
	StoreMem  = core.StoreMem
	StoreDisk = core.StoreDisk
)

// DefaultConfig returns a serial pipeline with paper-like parameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultParallelConfig returns a p-rank master–worker configuration.
func DefaultParallelConfig(p int) ParallelConfig { return cluster.DefaultParallelConfig(p) }

// Run executes preprocess → cluster → assemble on the fragments. It
// returns an error when the parallel machine is misconfigured or a
// fault-injection run loses too many workers to finish.
func Run(frags []*Fragment, cfg Config) (*Result, error) { return core.Run(frags, cfg) }

// NewStore indexes fragments (and their reverse complements) for
// direct use of the clustering and assembly engines.
func NewStore(frags []*Fragment) *Store { return seq.NewStore(frags) }

// ReadFASTA parses FASTA records into fragments.
func ReadFASTA(r io.Reader) ([]*Fragment, error) { return seq.ReadFragments(r) }

// WriteFASTA writes fragments as FASTA.
func WriteFASTA(w io.Writer, frags []*Fragment) error {
	recs := make([]seq.Record, len(frags))
	for i, f := range frags {
		recs[i] = seq.Record{Name: f.Name, Bases: f.Bases}
	}
	return seq.WriteFASTA(w, recs, 0)
}

// DetectRepeats builds a repeat database by statistical
// over-representation of k-mers in a read sample (Section 9.1).
func DetectRepeats(sample []*Fragment, k, minCount int) *RepeatDB {
	return preprocess.DetectRepeats(sample, k, minCount)
}

// AttachQuals attaches .qual records (seq.ReadQual) to fragments by
// name, enabling quality trimming during preprocessing.
func AttachQuals(frags []*Fragment, quals []seq.QualRecord) error {
	return seq.AttachQuals(frags, quals)
}

// Scaffolding re-exports.
type (
	// MateLink is a clone whose paired reads landed in two contigs.
	MateLink = scaffold.MateLink
	// Scaffold is an ordered, oriented contig chain.
	Scaffold = scaffold.Scaffold
	// ScaffoldConfig parameterizes scaffolding.
	ScaffoldConfig = scaffold.Config
)

// BuildScaffolds orders and orients contigs along the chromosome using
// clone-mate links (the paper's downstream scaffolding stage).
func BuildScaffolds(contigs []Contig, links []MateLink, cfg ScaffoldConfig) []Scaffold {
	return scaffold.Build(contigs, links, cfg)
}
