// Package pipeline wraps the cluster-then-assemble pipeline with a
// versioned job manifest and phase-boundary checkpoints, so a run
// killed at any point resumes from the last completed phase and
// produces byte-identical output. The manifest fingerprints the input
// and configuration; each phase's output is stored as a checksummed
// artifact in the workdir (the preprocessed reads as a disk store, the
// clustering partition, per-cluster contigs) and a resumed run refuses
// artifacts that do not match what it would have computed over.
package pipeline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs/prof"
	"repro/internal/seq"
	"repro/internal/wire"
)

// Config configures a checkpointed pipeline run.
type Config struct {
	// Core is the underlying pipeline configuration.
	Core core.Config
	// Workdir holds the manifest and phase artifacts: the preprocessed
	// reads as a disk store under <Workdir>/store (whichever backend
	// the run reads through), then the cluster and assembly artifacts.
	// Empty disables checkpointing entirely (Run degenerates to
	// core.Run semantics).
	Workdir string
	// Resume reuses completed phases recorded in Workdir's manifest.
	// Without it any existing manifest is discarded.
	Resume bool
	// Flags fingerprints the run configuration (whatever the caller
	// considers resume-relevant: psi, w, ranks, masking, ...). A
	// manifest written under a different fingerprint refuses to
	// resume.
	Flags string
	// Interrupt, when non-nil and closed (or signalled), requests a
	// clean stop at the next phase boundary: the phase in progress
	// completes and is journaled in the manifest, then Run returns
	// ErrInterrupted instead of starting the next phase. This is the
	// job-scoped drain hook — a supervised run told to stop checkpoints
	// exactly as much work as it finished and a later Resume run picks
	// up byte-identically from there.
	Interrupt <-chan struct{}
	// OnPhase, when non-nil, is called as each phase begins computing
	// (not when its artifact is loaded from the manifest) — a progress
	// hook for supervisors reporting job status.
	OnPhase func(Phase)
}

// ErrInterrupted reports that Run stopped cleanly at a phase boundary
// because Config.Interrupt fired. Every completed phase is journaled;
// resuming the same workdir continues byte-identically.
var ErrInterrupted = errors.New("pipeline: interrupted at phase boundary (checkpointed)")

// Run executes preprocess → cluster → assemble with a checkpoint at
// every phase boundary. Completed phases are skipped on resume by
// loading their artifacts, which yields byte-identical contigs to an
// uninterrupted run. The preprocess checkpoint is the disk store, so
// it keeps names and bases but not qualities (no later phase reads
// them), and it stores any base outside ACGTN as N: a resumed run is
// byte-identical for input over ACGTN, which is all the FASTA reader
// produces.
func Run(frags []*seq.Fragment, cfg Config) (_ *core.Result, err error) {
	if cfg.Core.Transport != nil && cfg.Core.TransportRank != 0 {
		// Worker-rank processes never touch the manifest: only the
		// master journals phases, so a resumed run sees one writer.
		return core.Run(frags, cfg.Core)
	}
	m, err := openManifest(cfg.Workdir, frags, cfg.Flags, cfg.Resume)
	if err != nil {
		return nil, err
	}
	defer m.close()
	// interrupted polls the drain hook; a nil channel never fires.
	interrupted := func() bool {
		select {
		case <-cfg.Interrupt:
			return true
		default:
			return false
		}
	}
	// Every CPU sample of a phase carries its name, and so do the
	// goroutines the phase starts; the label ends with the run.
	defer prof.ClearLabels()
	onPhase := func(p Phase) {
		prof.ApplyLabels(0, string(p))
		if cfg.OnPhase != nil {
			cfg.OnPhase(p)
		}
	}
	ccfg := cfg.Core
	res := &core.Result{}
	// A failed or interrupted run hands no Result back, so nobody else
	// can release the store (a temp dir when there is no workdir).
	defer func() {
		if err != nil {
			res.Close()
		}
	}()

	// Phase 1: preprocessing (recorded even when disabled, so the
	// cluster phase always resumes over the exact fragment set).
	if err := preprocessPhase(m, ccfg, frags, onPhase, res); err != nil {
		return nil, err
	}
	if interrupted() {
		return nil, ErrInterrupted
	}

	// Phase 2: clustering.
	if art, ok, err := m.load(PhaseCluster); err != nil {
		return nil, err
	} else if ok {
		cp, err := cluster.DecodeCheckpoint(art)
		if err != nil {
			return nil, fmt.Errorf("pipeline: cluster artifact: %w", err)
		}
		if cp.N != res.Store.N() {
			return nil, fmt.Errorf("pipeline: cluster artifact covers %d fragments, input has %d", cp.N, res.Store.N())
		}
		res.Clustering = cp.Result()
	} else {
		onPhase(PhaseCluster)
		if res.Clustering, res.Phases, err = core.ClusterStage(res.Store, ccfg); err != nil {
			return nil, err
		}
		if err := m.complete(PhaseCluster, cluster.CheckpointOf(res.Clustering).Encode()); err != nil {
			return nil, err
		}
	}
	res.Clusters = res.Clustering.Clusters()
	res.Singletons = res.Clustering.Singletons()

	// Phase 3: per-cluster assembly.
	if ccfg.SkipAssembly {
		return res, nil
	}
	if interrupted() {
		return nil, ErrInterrupted
	}
	if art, ok, err := m.load(PhaseAssembly); err != nil {
		return nil, err
	} else if ok {
		if res.Contigs, res.AssemblyOutcomes, err = decodeContigs(art); err != nil {
			return nil, fmt.Errorf("pipeline: assembly artifact: %w", err)
		}
		if len(res.Contigs) != len(res.Clusters) {
			return nil, fmt.Errorf("pipeline: assembly artifact covers %d clusters, clustering produced %d", len(res.Contigs), len(res.Clusters))
		}
	} else {
		onPhase(PhaseAssembly)
		res.Contigs, res.AssemblyOutcomes = core.AssembleStage(res.Store, res.Clusters, ccfg)
		if err := m.complete(PhaseAssembly, encodeContigs(res.Contigs, res.AssemblyOutcomes)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// encodeContigs serializes per-cluster contigs plus (optionally) the
// guard outcomes that produced them.
func encodeContigs(contigs [][]assembly.Contig, outcomes []assembly.Outcome) []byte {
	w := wire.NewBuffer(64)
	w.PutUint(uint64(len(contigs)))
	for _, cs := range contigs {
		w.PutUint(uint64(len(cs)))
		for _, c := range cs {
			w.PutBytes(c.Bases)
			w.PutUint(uint64(len(c.Reads)))
			for _, p := range c.Reads {
				w.PutInt(p.Frag)
				w.PutInt(p.Offset)
				w.PutBool(p.Reverse)
			}
			w.PutUint(math.Float64bits(c.Depth))
		}
	}
	w.PutUint(uint64(len(outcomes)))
	for _, o := range outcomes {
		w.PutInt(o.Attempts)
		w.PutBool(o.Quarantined)
		w.PutString(o.Err)
	}
	return w.Bytes()
}

func decodeContigs(b []byte) ([][]assembly.Contig, []assembly.Outcome, error) {
	r := wire.NewReader(b)
	nc := int(r.Uint())
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if nc < 0 || nc > r.Remaining()+1 {
		return nil, nil, errors.New("cluster count exceeds payload")
	}
	contigs := make([][]assembly.Contig, nc)
	for i := range contigs {
		k := int(r.Uint())
		if r.Err() != nil || k < 0 || k > r.Remaining()+1 {
			return nil, nil, errors.New("contig count exceeds payload")
		}
		cs := make([]assembly.Contig, k)
		for j := range cs {
			cs[j].Bases = r.Bytes()
			nr := int(r.Uint())
			if r.Err() != nil || nr < 0 || nr > r.Remaining()+1 {
				return nil, nil, errors.New("read count exceeds payload")
			}
			cs[j].Reads = make([]assembly.Placement, nr)
			for q := range cs[j].Reads {
				cs[j].Reads[q] = assembly.Placement{
					Frag:    r.Int(),
					Offset:  r.Int(),
					Reverse: r.Bool(),
				}
			}
			cs[j].Depth = math.Float64frombits(r.Uint())
		}
		contigs[i] = cs
	}
	no := int(r.Uint())
	if r.Err() != nil || no < 0 || no > r.Remaining()+1 {
		return nil, nil, errors.New("outcome count exceeds payload")
	}
	var outcomes []assembly.Outcome
	for i := 0; i < no; i++ {
		outcomes = append(outcomes, assembly.Outcome{
			Attempts:    r.Int(),
			Quarantined: r.Bool(),
			Err:         r.String(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if r.Remaining() != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes after contigs", r.Remaining())
	}
	return contigs, outcomes, nil
}
