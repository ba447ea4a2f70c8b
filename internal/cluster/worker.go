package cluster

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pairgen"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// workerPort is everything the worker core does to the world besides
// pulling its pair streams. *par.Comm satisfies it; the core's tests
// substitute a recording fake.
type workerPort interface {
	ChargeCompute(sec float64)
	TraceEvent(k obs.Kind, a, b, n int64)
}

// worker is the Fig. 8 algorithm as a state machine: report, align,
// generateAhead and take are its entry points (cover and close open and
// release its streams), nothing in it blocks on the master or reads a
// clock, and the world is reached through port alone — so the worker's
// half of the protocol runs in a test without a machine (see runWorker
// for the loop around it).
//
// Invariants (FuzzWorkerStep checks each after every step): every pair
// a stream yields is reported exactly once, in stream order, streams in
// the order they were covered; a report's results are the batch leased
// by the last take, in order, fragments reduced mod n; a report is
// passive iff every stream is exhausted and the buffer is empty, so an
// adoption clears it; a report carries at most r new pairs and at most
// NewPairsBuf wait in the buffer; the rank has been charged for the
// pairs pulled, the cells aligned and the forests its streams have
// entered, a forest by the pull that takes its first pair; a message
// take refuses changes nothing and asks the streams and the port for
// nothing.
type worker struct {
	run  *parallelRun // store, cfg, pcfg, mx
	port workerPort
	// sweep hands out owner rank r's GST portion segment by segment,
	// with the modeled cost of building each (pgst.Local.Sweep).
	sweep      func(st seq.Seqs, r int, add func(*suffixtree.Tree), end func(float64) bool) bool
	rank, size int

	streams  []*pairgen.Stream // one per covered portion, generated in order
	cur      int               // streams[:cur] are exhausted
	buffered pairQueue         // generated ahead, not yet reported
	r        int               // new pairs the master asked for
	leased   []pairgen.Pair
	results  []alignResult // of the batch aligned during the last wait
}

// cover queues owner rank r's portion for generation. Its segments are
// generated and dropped one at a time by the pulls that need them, each
// built at most one segment ahead, so a swept portion is never resident
// whole.
func (w *worker) cover(r int) {
	sweep := func(add func(*suffixtree.Tree), end func(float64) bool) bool {
		return w.sweep(w.run.store, r, add, end)
	}
	w.streams = append(w.streams, pairgen.NewSweep(sweep, pairgen.Config{
		Psi:                  w.run.cfg.Psi,
		NumFragments:         w.run.store.N(),
		DuplicateElimination: w.run.cfg.DuplicateElimination,
	}))
}

func (w *worker) close() {
	for _, s := range w.streams {
		s.Close()
	}
}

func (w *worker) exhausted() bool { return w.cur >= len(w.streams) }

// pull appends pairs of the current stream to dst until it holds max,
// moving on to the next stream if this one ends first, and charges the
// rank for them and for the forests the stream built to serve them: a
// sweep charges the rank that runs it.
func (w *worker) pull(dst []pairgen.Pair, max int) []pairgen.Pair {
	before := len(dst)
	dst, cost := w.streams[w.cur].Take(dst, max)
	w.port.ChargeCompute(float64(len(dst)-before)*costPair + cost)
	if len(dst) < max {
		w.cur++
	}
	return dst
}

// report builds the next report: up to r new pairs — the buffer first,
// then the streams in order — plus the results of the last batch. The
// stream pulls are bracketed as a pairgen phase span so the trace
// separates generation time from alignment and protocol waits.
func (w *worker) report() []byte {
	var np []pairgen.Pair
	for len(np) < w.r && w.buffered.Len() > 0 {
		np = append(np, w.buffered.pop())
	}
	if len(np) < w.r && !w.exhausted() {
		w.port.TraceEvent(obs.EvPhaseEnter, obs.PhasePairGen, 0, 0)
		for len(np) < w.r && !w.exhausted() {
			np = w.pull(np, w.r)
		}
		w.port.TraceEvent(obs.EvPhaseExit, obs.PhasePairGen, 0, 0)
	}
	rep := report{pairs: np, results: w.results, passive: w.exhausted() && w.buffered.Len() == 0}
	w.results = nil
	return encodeReport(rep)
}

// align overlaps the wait for the master's reply with the alignment of
// the batch the last take leased, and returns how many pairs that was.
func (w *worker) align() int {
	batch := w.leased
	if len(batch) == 0 {
		return 0
	}
	w.leased = nil
	w.port.TraceEvent(obs.EvPhaseEnter, obs.PhaseAlign, 0, 0)
	n := int32(w.run.store.N())
	w.results = make([]alignResult, 0, len(batch))
	var cells int64
	for _, p := range batch {
		accepted, cost := AlignPair(w.run.store, p, w.run.cfg)
		cells += cost
		w.run.mx.alignLen.Observe(float64(p.MatchLen))
		w.results = append(w.results, alignResult{fa: p.ASid % n, fb: p.BSid % n, accepted: accepted})
	}
	w.port.ChargeCompute(float64(cells) * costCell)
	w.port.TraceEvent(obs.EvPhaseExit, obs.PhaseAlign, 0, 0)
	w.port.TraceEvent(obs.EvPairAligned, int64(len(batch)), 0, 0)
	return len(batch)
}

// generateAhead fills the bounded buffer, one pair at a time, while the
// reply is still out: until the buffer is full, the streams are
// exhausted, or arrived says the reply is in.
func (w *worker) generateAhead(arrived func() bool) {
	room := func() bool { return !w.exhausted() && w.buffered.Len() < w.run.pcfg.NewPairsBuf }
	if !room() {
		return
	}
	w.port.TraceEvent(obs.EvPhaseEnter, obs.PhasePairGen, 0, 0)
	for room() && !arrived() {
		w.buffered.buf = w.pull(w.buffered.buf, len(w.buffered.buf)+1)
	}
	w.port.TraceEvent(obs.EvPhaseExit, obs.PhasePairGen, 0, 0)
}

// take accepts the master's work message: the batch to align during the
// next wait, the next request size, and any dead ranks' GST portions to
// take over, which queue behind the portions already covered and are
// swept on demand like any other. A message that does not decode, or
// that names a position or rank this run does not have — AlignPair and
// forests index with them — is refused whole.
func (w *worker) take(data []byte) error {
	wk, err := decodeWork(data, w.run.store.N())
	if err != nil {
		return err
	}
	for _, p := range wk.batch {
		if p.MatchLen <= 0 || p.APos < 0 || p.BPos < 0 ||
			int(p.APos)+int(p.MatchLen) > w.run.store.SeqLen(int(p.ASid)) ||
			int(p.BPos)+int(p.MatchLen) > w.run.store.SeqLen(int(p.BSid)) {
			return fmt.Errorf("pair %+v lies outside its sequences", p)
		}
	}
	for _, d := range wk.adopt {
		if d < 1 || d >= w.size || d == w.rank {
			return fmt.Errorf("rank %d of %d told to adopt the GST portion of rank %d", w.rank, w.size, d)
		}
	}
	if len(wk.adopt) > 0 {
		w.port.TraceEvent(obs.EvPhaseEnter, obs.PhaseRecover, 0, 0)
		for _, d := range wk.adopt {
			w.cover(d)
		}
		w.port.TraceEvent(obs.EvPhaseExit, obs.PhaseRecover, 0, 0)
	}
	w.r, w.leased = wk.r, wk.batch
	return nil
}
