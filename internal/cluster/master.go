package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pairgen"
	"repro/internal/unionfind"
)

// masterPort is everything the master core does to the world.
// *par.Comm satisfies it; the core's tests substitute a recording fake.
type masterPort interface {
	Send(dst, tag int, data []byte)
	ChargeCompute(sec float64)
	TraceEvent(k obs.Kind, a, b, n int64)
	RankDead(r int) bool
}

// workerState is the master's view of one worker rank.
type workerState struct {
	// expected counts the reports the worker still owes: its lease.
	expected int
	// owed is the FIFO of non-empty batches whose results are still
	// outstanding. A batch sent to w is acknowledged by w's next
	// result-carrying report (the worker aligns a batch after sending
	// its following report, so at most two replies separate dispatch and
	// acknowledgment). A worker owing results must not be parked until an
	// empty reply has flushed them out.
	owed [][]pairgen.Pair
	// lastHeard is when the lease clock last restarted: the arrival of
	// a report, or the dispatch of a reply plus any adoption grace.
	lastHeard time.Time
	dead      bool
	// passive: the worker reported that every GST portion it covers is
	// fully generated and delivered.
	passive bool
	// covers lists the GST portions the worker generates pairs from: its
	// own, plus any adopted from dead ranks.
	covers []int
}

// master is the Fig. 7 algorithm extended with the lease-based fault
// protocol, as a state machine: dispatch, onReport, onSilence and
// finished are its only entry points, the clock is an argument, and
// the world is reached through port alone — so the whole protocol runs
// in a test without a machine (see runMaster for the receive loop
// around it).
//
// The lease bookkeeping runs on every machine, but only a survivable
// one ever reaps a worker, so on a fail-stop machine no worker is dead,
// orphans stays empty and every branch on them is inert. survivable
// marks the two real policy differences inside the core: recovering
// from a bad report versus aborting, and checking that a reporter is
// still alive before replying to it.
//
// Lease invariants (FuzzMasterStep checks each after every step):
// inFlight is the sum of expected over live workers; a dispatched pair
// is pending, owed by exactly one live worker, or resolved; a GST
// portion is covered by exactly one live worker, orphaned, or finished
// by a worker that reported passive; a dead worker is sent nothing but
// tagDone. Per-worker traffic strictly alternates, so a received report
// implies every earlier report from that worker was received — which
// is why a worker that reported passive can die without losing
// coverage, and any dropped message eventually expires the lease and
// re-assigns both the leased batches and the coverage.
type master struct {
	port       masterPort
	pcfg       ParallelConfig
	mx         clusterMetrics
	survivable bool

	uf      *unionfind.UF
	st      Stats
	busy    float64 // modeled seconds charged (the availability metric)
	pending pairQueue
	workers []workerState // indexed by rank; entry 0 (the master) is unused
	parked  []int         // passive workers owing nothing, awaiting work or done
	orphans []int         // dead ranks' GST portions awaiting adoption

	inFlight int // reports outstanding over all live workers
	live     int // workers not dead
	active   int // live workers that have not reported passive
}

// newMaster builds the core for a size-rank machine over n fragments,
// every worker owing its initial report.
func newMaster(port masterPort, size, n int, survivable bool, pcfg ParallelConfig, mx clusterMetrics, now time.Time) *master {
	m := &master{
		port: port, pcfg: pcfg, mx: mx, survivable: survivable,
		uf:       unionfind.New(n),
		workers:  make([]workerState, size),
		inFlight: size - 1, live: size - 1, active: size - 1,
	}
	for w := 1; w < size; w++ {
		m.workers[w] = workerState{expected: 1, lastHeard: now, covers: []int{w}}
	}
	return m
}

func (m *master) charge(sec float64) {
	m.busy += sec
	m.port.ChargeCompute(sec)
}

// same reports whether p's fragments are already co-clustered
// (sequence ids live in the store's 2n space, fragment = id mod n).
func (m *master) same(p pairgen.Pair) bool {
	n := int32(m.uf.N())
	return m.uf.Same(int(p.ASid%n), int(p.BSid%n))
}

// takeBatch extracts up to BatchSize non-stale pairs.
func (m *master) takeBatch() []pairgen.Pair {
	var batch []pairgen.Pair
	for len(batch) < m.pcfg.BatchSize && m.pending.Len() > 0 {
		p := m.pending.pop()
		if m.same(p) {
			m.st.Skipped++ // merged since it was enqueued
			m.charge(costUF)
			continue
		}
		batch = append(batch, p)
	}
	return batch
}

// requestSize implements the paper's r formula: ask for enough pairs
// that ≈ b survive selection, without overflowing the pending buffer.
func (m *master) requestSize(w int) int {
	if m.workers[w].passive {
		return 0
	}
	selectivity := 1.0
	if m.st.Generated > 0 {
		selectivity = max(float64(m.st.Generated-m.st.Skipped)/float64(m.st.Generated), 0.05)
	}
	free := max(m.pcfg.MaxPending-m.pending.Len(), 0)
	return min(int(float64(m.pcfg.BatchSize)/selectivity), free/max(m.active, 1))
}

// setPassive flips a live worker's passive flag and the active count
// with it.
func (m *master) setPassive(w int, passive bool) {
	if ws := &m.workers[w]; ws.passive != passive {
		ws.passive = passive
		if passive {
			m.active--
		} else {
			m.active++
		}
	}
}

// sendWork leases batch (possibly empty) to worker w with a fresh
// request size. Pending adoptions ride on the same message — the one
// adoption message of the protocol — recorded optimistically so a lost
// reply re-orphans them with the adopter's lease. The adopter gets
// lease grace in proportion to the adoption: rebuilding the portions
// is real compute on the lease clock, and firing a slow adopter
// re-orphans an even larger portion onto the next one — a cascade that
// can consume every worker.
func (m *master) sendWork(w int, batch []pairgen.Pair, now time.Time) {
	ws := &m.workers[w]
	m.st.Aligned += int64(len(batch))
	m.mx.pairsAligned.Add(int64(len(batch)))
	if len(batch) > 0 {
		ws.owed = append(ws.owed, batch)
	}
	wk := work{batch: batch}
	if len(m.orphans) > 0 {
		wk.adopt, m.orphans = m.orphans, nil
		ws.covers = append(ws.covers, wk.adopt...)
		m.setPassive(w, false)
		m.port.TraceEvent(obs.EvLeaseAdopt, int64(w), int64(len(wk.adopt)), 0)
	}
	wk.r = m.requestSize(w)
	m.port.TraceEvent(obs.EvLeaseGrant, int64(w), int64(len(batch)), int64(wk.r))
	m.port.Send(w, tagWork, encodeWork(wk))
	ws.expected++
	ws.lastHeard = now.Add(time.Duration(3*len(wk.adopt)) * m.pcfg.LeaseTimeout)
	m.inFlight++
}

// reap fires a worker: its lease is cancelled, leased batches are
// requeued, and — unless it had reported passive, meaning its covered
// portions were fully generated and received — its GST coverage is
// orphaned for adoption by a survivor.
func (m *master) reap(w int) {
	ws := &m.workers[w]
	if !ws.passive {
		m.orphans = append(m.orphans, ws.covers...)
		m.active--
	}
	m.live--
	m.st.WorkersLost++
	m.mx.workersLost.Inc()
	m.inFlight -= ws.expected
	requeued := int64(0)
	for _, b := range ws.owed {
		requeued += int64(len(b))
		m.pending.pushAll(b)
	}
	m.st.Aligned -= requeued
	m.st.Requeued += requeued
	m.port.TraceEvent(obs.EvLeaseExpire, int64(w), requeued, 0)
	for i, x := range m.parked {
		if x == w {
			m.parked = append(m.parked[:i], m.parked[i+1:]...)
			break
		}
	}
	*ws = workerState{dead: true}
}

// dispatch hands out whatever can be handed out without a report
// arriving: orphaned GST portions go to a parked worker first (it
// resumes generation immediately instead of waiting for a busy worker's
// next report), then pending work to parked workers (keeping passive
// workers busy, Section 7).
func (m *master) dispatch(now time.Time) {
	if len(m.orphans) > 0 && len(m.parked) > 0 {
		m.sendWork(m.unpark(), nil, now)
	}
	for len(m.parked) > 0 && m.pending.Len() > 0 {
		batch := m.takeBatch()
		if len(batch) == 0 {
			break
		}
		m.sendWork(m.unpark(), batch, now)
	}
}

func (m *master) unpark() int {
	w := m.parked[0]
	m.parked = m.parked[1:]
	return w
}

// finished reports whether the run is over — no report is outstanding —
// and releases the parked workers when it is. With every worker dead,
// orphaned coverage or a real pending pair means lost work: an error.
func (m *master) finished() (bool, error) {
	if m.inFlight != 0 {
		return false, nil
	}
	if m.live == 0 && (len(m.orphans) > 0 || len(m.takeBatch()) > 0) {
		return true, fmt.Errorf("cluster: all %d workers died with work remaining", m.st.WorkersLost)
	}
	for _, w := range m.parked {
		m.port.Send(w, tagDone, nil)
	}
	return true, nil
}

// onSilence fires crashed workers (detected by the runtime) and silent
// ones whose lease expired; the latter get a done fence first, in case
// they are alive but cut off.
func (m *master) onSilence(now time.Time) {
	for w := 1; w < len(m.workers); w++ {
		ws := &m.workers[w]
		switch {
		case ws.dead:
		case m.port.RankDead(w):
			m.reap(w)
		case ws.expected > 0 && now.Sub(ws.lastHeard) > m.pcfg.LeaseTimeout:
			m.port.Send(w, tagDone, nil)
			m.reap(w)
		}
	}
}

// onReport processes one report from worker src and replies to it. A
// returned error is unrecoverable: every live worker has been fenced
// with tagDone and the caller drains what is still in flight.
func (m *master) onReport(src int, data []byte, now time.Time) error {
	ws := &m.workers[src]
	if ws.dead {
		// Zombie: a worker already fired (late or delayed report).
		// Fence it without touching the bookkeeping.
		m.port.Send(src, tagDone, nil)
		return nil
	}
	m.inFlight--
	ws.expected--
	ws.lastHeard = now
	rep, err := decodeReport(data, m.uf.N())
	switch {
	case err != nil:
		err = fmt.Errorf("cluster: malformed report from worker %d: %w", src, err)
	case rep.fail != "":
		// The worker hit a protocol error and exited after sending
		// this report.
		err = fmt.Errorf("cluster: worker %d failed: %s", src, rep.fail)
	}
	if err != nil {
		if !m.survivable {
			for w := 1; w < len(m.workers); w++ {
				if !m.workers[w].dead && !m.port.RankDead(w) {
					m.port.Send(w, tagDone, nil)
				}
			}
			return err
		}
		if rep.fail == "" {
			// A corrupted report means the channel to this worker is
			// unreliable: fence it before recovering its state.
			m.port.Send(src, tagDone, nil)
		}
		m.reap(src)
		return nil
	}
	m.charge(costPerMsgC)

	// Interpret alignment results; they acknowledge the oldest
	// outstanding batch.
	if len(rep.results) > 0 && len(ws.owed) > 0 {
		ws.owed = ws.owed[1:]
	}
	for _, ar := range rep.results {
		m.charge(costUF)
		if ar.accepted {
			m.mx.pairsAccepted.Inc()
			if acceptOverlap(m.uf, &m.st, int(ar.fa), int(ar.fb)) {
				m.mx.merges.Inc()
				m.port.TraceEvent(obs.EvClusterMerge, int64(ar.fa), int64(ar.fb), 0)
			}
		}
	}
	// Scan new pairs; keep only those needing alignment.
	skippedHere := int64(0)
	for _, p := range rep.pairs {
		m.charge(costPair + costUF)
		if m.same(p) {
			skippedHere++
			continue
		}
		m.pending.push(p)
	}
	m.st.Generated += int64(len(rep.pairs))
	m.st.Skipped += skippedHere
	if len(rep.pairs) > 0 {
		m.port.TraceEvent(obs.EvPairGenerated, int64(len(rep.pairs)), int64(src), 0)
		m.mx.pairsGenerated.Add(int64(len(rep.pairs)))
	}
	if skippedHere > 0 {
		m.port.TraceEvent(obs.EvPairDiscarded, skippedHere, int64(src), 0)
		m.mx.pairsSkipped.Add(skippedHere)
	}
	m.mx.reports.Inc()
	m.mx.pendingDepth.Set(int64(m.pending.Len()))
	m.mx.pendingPeak.SetMax(int64(m.pending.Len()))
	if rep.passive {
		m.setPassive(src, true)
	}

	if m.survivable && m.port.RankDead(src) {
		// The reporter died after sending: replying would leak a lease
		// on a corpse.
		m.reap(src)
		return nil
	}

	// Reply to the sender: work if available; otherwise keep an active
	// worker generating or flush outstanding results with an empty
	// reply; park only a passive worker that owes nothing.
	batch := m.takeBatch()
	if len(batch) > 0 || !ws.passive || len(ws.owed) > 0 || len(m.orphans) > 0 {
		m.sendWork(src, batch, now)
	} else {
		m.parked = append(m.parked, src)
	}
	return nil
}
