// Package core is the public face of the framework: the
// cluster-then-assemble pipeline of Fig. 1. Input fragments are
// preprocessed (trimmed, vector-screened, repeat-masked), partitioned
// into clusters by the parallel (or serial) clustering engine, and
// each cluster is assembled independently into contigs.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/preprocess"
	"repro/internal/seq"
)

// Config assembles the per-stage configurations.
type Config struct {
	// Preprocess runs when Enabled; otherwise fragments enter
	// clustering as-is.
	Preprocess        preprocess.Config
	PreprocessEnabled bool

	// Store selects the sequence-store backend (in-memory, or the
	// out-of-core disk store).
	Store StoreConfig

	// Cluster holds the algorithmic clustering parameters.
	Cluster cluster.Config
	// Parallel enables the master–worker engine when Ranks ≥ 2;
	// otherwise clustering runs serially.
	Parallel cluster.ParallelConfig

	// Assembly holds the per-cluster assembler parameters.
	Assembly assembly.Config
	// AssemblyGuard, when non-nil, assembles each cluster under a
	// retry/quarantine budget: a panicking or deadline-blowing
	// cluster is retried with backoff, then emitted as singleton
	// contigs instead of aborting the pipeline.
	AssemblyGuard *assembly.Guard
	// AssemblyWorkers farms clusters over this many goroutines
	// (default: GOMAXPROCS).
	AssemblyWorkers int
	// SkipAssembly stops after clustering (the paper reports
	// clustering and assembly separately).
	SkipAssembly bool

	// Transport, when non-nil, runs the parallel clustering as one
	// rank of a multi-process machine: this process executes only
	// TransportRank, reaching its peers through the transport (each
	// rank is its own OS process). Worker ranks (TransportRank ≠ 0)
	// stop after clustering with a nil Clustering result — only the
	// master carries the partition forward into assembly.
	Transport par.Transport
	// TransportRank is this process's rank when Transport is set.
	TransportRank int
}

// DefaultConfig returns a serial pipeline with paper-like parameters.
func DefaultConfig() Config {
	return Config{
		Preprocess:        preprocess.Config{Trim: preprocess.DefaultTrimConfig()},
		PreprocessEnabled: true,
		Cluster:           cluster.DefaultConfig(),
		Assembly:          assembly.DefaultConfig(),
	}
}

// Result is everything a pipeline run produces.
type Result struct {
	// PreprocessStats is zero unless preprocessing ran.
	PreprocessStats preprocess.Stats
	// Store holds the fragments that entered clustering.
	Store seq.Seqs
	// Clustering is the raw clustering result with its statistics.
	Clustering *cluster.Result
	// Phases carries per-phase machine statistics for parallel runs.
	Phases cluster.PhaseStats
	// Clusters and Singletons partition the fragments.
	Clusters   [][]int
	Singletons []int
	// Contigs per cluster (same order as Clusters); nil when assembly
	// was skipped.
	Contigs [][]assembly.Contig
	// AssemblyOutcomes has one entry per cluster when a guard ran;
	// nil otherwise.
	AssemblyOutcomes []assembly.Outcome

	// closeStore releases the store backend (disk backend only).
	closeStore func() error
}

// SetStoreCloser registers the cleanup Close runs — for wrappers (the
// checkpointed pipeline) that open the store themselves. A nil closer
// leaves Close a no-op.
func (r *Result) SetStoreCloser(c func() error) { r.closeStore = c }

// Close releases the store backend's resources: a no-op for the
// in-memory backend; for the disk backend it closes the store files
// and removes them if they lived in a run-private temp dir. Idempotent.
func (r *Result) Close() error {
	if r.closeStore == nil {
		return nil
	}
	c := r.closeStore
	r.closeStore = nil
	return c()
}

// Quarantined lists the cluster indices whose assembly was
// quarantined (empty without a guard).
func (r *Result) Quarantined() []int {
	var out []int
	for i, o := range r.AssemblyOutcomes {
		if o.Quarantined {
			out = append(out, i)
		}
	}
	return out
}

// ContigsPerCluster returns the mean number of contigs per
// multi-fragment cluster, the paper's 1.1 specificity indicator
// (Section 8).
func (r *Result) ContigsPerCluster() float64 {
	if len(r.Contigs) == 0 {
		return 0
	}
	total := 0
	for _, cs := range r.Contigs {
		total += len(cs)
	}
	return float64(total) / float64(len(r.Contigs))
}

// TotalContigs counts contigs across clusters.
func (r *Result) TotalContigs() int {
	total := 0
	for _, cs := range r.Contigs {
		total += len(cs)
	}
	return total
}

// ContigRecords renders the contigs as FASTA records in cluster order,
// named contig_<cluster>_<k> with length, read count and depth — the
// one naming the CLI, the job service and their checks share.
func (r *Result) ContigRecords() []seq.Record {
	recs := make([]seq.Record, 0, r.TotalContigs())
	for ci, cs := range r.Contigs {
		for ki, c := range cs {
			recs = append(recs, seq.Record{
				Name:  fmt.Sprintf("contig_%d_%d len=%d reads=%d depth=%.1f", ci, ki, len(c.Bases), len(c.Reads), c.Depth),
				Bases: c.Bases,
			})
		}
	}
	return recs
}

// Run executes the pipeline on the given fragments. It returns an
// error when the parallel machine is misconfigured or a fault run
// loses so many workers the clustering cannot finish.
func Run(frags []*seq.Fragment, cfg Config) (*Result, error) {
	res := &Result{}
	if cfg.PreprocessEnabled {
		frags, res.PreprocessStats = preprocess.Run(frags, cfg.Preprocess)
	}
	var err error
	if res.Store, res.closeStore, err = OpenStore(frags, cfg.Store); err != nil {
		return nil, err
	}

	if res.Clustering, res.Phases, err = ClusterStage(res.Store, cfg); err != nil {
		res.Close() // a failed run must not leave its store's temp dir behind
		return nil, err
	}
	if res.Clustering == nil {
		return res, nil // worker process: clustering only
	}
	res.Clusters = res.Clustering.Clusters()
	res.Singletons = res.Clustering.Singletons()

	if !cfg.SkipAssembly {
		res.Contigs, res.AssemblyOutcomes = AssembleStage(res.Store, res.Clusters, cfg)
	}
	return res, nil
}

// ClusterStage runs the clustering stage the configuration selects:
// serially, on the in-process master–worker machine, or as this
// process's rank of a multi-process machine. A worker-rank process
// (Transport set, TransportRank ≠ 0) gets a nil Result — only the
// master holds the partition. PhaseStats are machine-wide, so only the
// in-process machine reports them.
func ClusterStage(store seq.Seqs, cfg Config) (*cluster.Result, cluster.PhaseStats, error) {
	switch {
	case cfg.Parallel.Ranks < 2:
		return cluster.Serial(store, cfg.Cluster), cluster.PhaseStats{}, nil
	case cfg.Transport != nil:
		res, _, _, err := cluster.ParallelRank(store, cfg.Cluster, cfg.Parallel, cfg.TransportRank, cfg.Transport)
		return res, cluster.PhaseStats{}, err
	default:
		return cluster.Parallel(store, cfg.Cluster, cfg.Parallel)
	}
}

// AssembleStage assembles every cluster over AssemblyWorkers
// goroutines (default: GOMAXPROCS), under the guard's retry/quarantine
// budget when one is set; the outcomes are nil without a guard.
func AssembleStage(store seq.Seqs, clusters [][]int, cfg Config) ([][]assembly.Contig, []assembly.Outcome) {
	workers := cfg.AssemblyWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.AssemblyGuard != nil {
		return assembly.AssembleAllGuarded(store, clusters, cfg.Assembly, workers, *cfg.AssemblyGuard)
	}
	return assembly.AssembleAll(store, clusters, cfg.Assembly, workers), nil
}
