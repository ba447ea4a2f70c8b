package assembly

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/seq"
)

// Guard bounds one cluster's assembly attempts so a pathological
// cluster — one that panics the assembler or blows through its wall
// budget — degrades gracefully instead of aborting the pipeline. A
// failing cluster is retried with exponential backoff up to the retry
// budget, then quarantined: its reads are emitted as single-read
// contigs, which loses contiguity for that cluster only and preserves
// every base of input.
type Guard struct {
	// Retries is the number of attempts beyond the first before the
	// cluster is quarantined (negative = 0).
	Retries int
	// Backoff is the pause before the first retry, doubling per
	// attempt (default 10ms).
	Backoff time.Duration
	// Deadline is the wall budget per attempt; an attempt that
	// exceeds it counts as failed (0 = no deadline).
	Deadline time.Duration
	// Trace, when set, receives EvRetry and EvQuarantine events (on
	// rank 0 — assembly is host-parallel, not rank-parallel).
	Trace *obs.Tracer
	// Metrics, when set, counts retries and quarantined clusters.
	Metrics *obs.Registry
	// FailInject, when set, poisons selected clusters for testing:
	// every attempt at a cluster id for which it returns true fails
	// before the assembler runs, so the cluster exhausts its retries
	// and is quarantined deterministically.
	FailInject func(id int) bool
}

// Outcome describes how one cluster's assembly ended.
type Outcome struct {
	// Attempts is the number of assembly attempts made (≥ 1).
	Attempts int
	// Quarantined is true when every attempt failed and the cluster
	// was emitted as singleton contigs.
	Quarantined bool
	// Err is the last failure message; empty unless Quarantined.
	Err string
}

// attemptResult carries one attempt's outcome over a channel so a
// timed-out attempt's goroutine cannot race the caller.
type attemptResult struct {
	contigs []Contig
	err     error
}

// assembleCluster is the assembler attemptCluster guards; tests swap in
// one that blocks, so a deadline never races a fast host.
var assembleCluster = assemble

// attemptCluster runs one assembly attempt with panic containment and
// an optional wall deadline. On deadline the attempt's stop flag is set
// and its goroutine abandoned: the assembler stops aligning within one
// batch, parks its result in a buffered channel and exits, so it does
// not hold every core while the retry runs. The assembler is read
// here, not in the goroutine: an abandoned attempt must not race a test
// restoring the hook.
func attemptCluster(store seq.Seqs, members []int, cfg Config, deadline time.Duration) ([]Contig, error) {
	ch := make(chan attemptResult, 1)
	run := assembleCluster
	stop := new(atomic.Bool)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- attemptResult{err: fmt.Errorf("assembler panic: %v", r)}
			}
		}()
		ch <- attemptResult{contigs: run(store, members, cfg, stop)}
	}()
	if deadline <= 0 {
		r := <-ch
		return r.contigs, r.err
	}
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.contigs, r.err
	case <-t.C:
		stop.Store(true)
		return nil, fmt.Errorf("assembler exceeded %v deadline", deadline)
	}
}

// singletonContigs emits each read of a quarantined cluster as its own
// contig, so downstream output keeps every base without trusting the
// failing assembler.
func singletonContigs(store seq.Seqs, members []int) []Contig {
	out := make([]Contig, 0, len(members))
	for _, fid := range members {
		b := store.Seq(fid)
		out = append(out, Contig{
			Bases: append([]byte(nil), b...),
			Reads: []Placement{{Frag: fid}},
			Depth: 1,
		})
	}
	return out
}

// AssembleClusterGuarded is AssembleCluster under a Guard: retries
// with backoff on failure, quarantines (emitting singletons) when the
// budget is exhausted. id labels the cluster in events and outcomes.
func AssembleClusterGuarded(store seq.Seqs, id int, members []int, cfg Config, g Guard) ([]Contig, Outcome) {
	retries := g.Retries
	if retries < 0 {
		retries = 0
	}
	base := g.Backoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	bo := backoff.Policy{Base: base}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Delay(attempt-1, nil))
			g.Trace.Emit(0, obs.EvRetry, 0, 0, int64(id), int64(attempt), 0)
			g.Metrics.Counter("assembly_retries").Inc()
		}
		var contigs []Contig
		var err error
		if g.FailInject != nil && g.FailInject(id) {
			err = fmt.Errorf("injected failure: cluster %d is poisoned", id)
		} else {
			contigs, err = attemptCluster(store, members, cfg, g.Deadline)
		}
		if err == nil {
			return contigs, Outcome{Attempts: attempt + 1}
		}
		lastErr = err
	}
	g.Trace.Emit(0, obs.EvQuarantine, 0, 0, int64(id), int64(len(members)), 0)
	g.Metrics.Counter("assembly_quarantined").Inc()
	return singletonContigs(store, members), Outcome{
		Attempts:    retries + 1,
		Quarantined: true,
		Err:         lastErr.Error(),
	}
}

// AssembleAllGuarded is AssembleAll under a Guard: clusters are farmed
// across `workers` goroutines, each assembled with retry/quarantine
// protection. The second return holds one Outcome per cluster, in
// input order.
func AssembleAllGuarded(store seq.Seqs, clusters [][]int, cfg Config, workers int, g Guard) ([][]Contig, []Outcome) {
	out := make([][]Contig, len(clusters))
	outcomes := make([]Outcome, len(clusters))
	farm(len(clusters), workers, func(i int) {
		out[i], outcomes[i] = AssembleClusterGuarded(store, i, clusters[i], cfg, g)
	})
	return out, outcomes
}
