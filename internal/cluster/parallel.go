package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/seq"
	"repro/internal/suffixtree"
	"repro/internal/unionfind"
)

// ParallelConfig holds the machine and load-balancing parameters of
// the master–worker implementation (Section 7).
type ParallelConfig struct {
	// Ranks is the machine size p: one master and p−1 workers.
	Ranks int
	// BatchSize is b, the number of pairs per alignment-work batch.
	BatchSize int
	// MaxPending caps the master's Pending_Work_Buf; the request size
	// r regulates generation so this is rarely exceeded.
	MaxPending int
	// NewPairsBuf caps each worker's buffered ungenerated-pair store.
	NewPairsBuf int
	// BatchBytes is the fragment-fetch budget of GST construction.
	BatchBytes int
	// Staged selects the customized Alltoallv in GST construction.
	Staged bool
	// Machine overrides the communication cost model (zero: defaults).
	Machine par.Config
	// UseSsend makes workers use synchronous sends for reports, the
	// paper's protection against master-side buffer overflow; eager
	// sends are the (faster, riskier) alternative it compares against.
	// It applies on a fail-stop machine only: under the lease protocol
	// of a survivable machine reports are always eager (see runWorker).
	UseSsend bool
	// ScaleBatchWithWorkers grows the dispatch granularity with the
	// machine so the frequency of messages arriving at the master does
	// not grow with p — the single-master remedy Section 7.2 proposes.
	// The effective batch size becomes BatchSize × max(1, workers/8).
	ScaleBatchWithWorkers bool

	// Faults, when non-nil, injects the plan into the machine. Whether
	// the run survives rank death is then not a choice: a machine with
	// a fault plan or a transport (real processes genuinely die — OOM
	// kill, SIGKILL, node loss) is survivable (par.Comm.Survivable) and
	// runs the lease-based protocol; any other machine is fail-stop and
	// keeps the paper's message pattern and modeled statistics exactly.
	Faults *par.FaultPlan
	// LeaseTimeout is how long the master waits for a report from a
	// worker with outstanding work before declaring it dead (survivable
	// machines only). Workers give up on a silent master after 4× this.
	// Default 3 s.
	LeaseTimeout time.Duration
	// CheckpointEvery, when positive, snapshots the master state every
	// that many processed reports and hands the encoded checkpoint to
	// CheckpointSink.
	CheckpointEvery int
	// CheckpointSink receives encoded checkpoints (see Checkpoint).
	CheckpointSink func([]byte)
	// ResumeFrom, when non-empty, warm-starts the master from an
	// encoded checkpoint: the union–find, statistics and pending pairs
	// are restored, and workers regenerate pairs from scratch (the
	// union–find makes re-delivered pairs harmless).
	ResumeFrom []byte

	// Trace, when non-nil, records phase spans (GST / cluster / align /
	// recover) and protocol events (lease grant/expire/adopt, merges,
	// pair generation, checkpoints) alongside the runtime's message
	// events. It is installed into Machine unless Machine.Trace is
	// already set.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives counters, gauges and histograms
	// from the master and workers (merge rate, pending-queue depth,
	// alignment-length and batch-latency distributions). Nil disables
	// all metric updates.
	Metrics *obs.Registry
}

// DefaultParallelConfig returns a p-rank configuration with paper-like
// batch parameters.
func DefaultParallelConfig(p int) ParallelConfig {
	return ParallelConfig{
		Ranks:       p,
		BatchSize:   64,
		MaxPending:  4096,
		NewPairsBuf: 1024,
		BatchBytes:  1 << 20,
		UseSsend:    true,
	}
}

func (c ParallelConfig) withDefaults() ParallelConfig {
	d := DefaultParallelConfig(c.Ranks)
	if c.BatchSize == 0 {
		c.BatchSize = d.BatchSize
	}
	if c.MaxPending == 0 {
		c.MaxPending = d.MaxPending
	}
	if c.NewPairsBuf == 0 {
		c.NewPairsBuf = d.NewPairsBuf
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = d.BatchBytes
	}
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 3 * time.Second
	}
	if c.Machine.Ranks == 0 {
		c.Machine = par.DefaultConfig(c.Ranks)
	}
	if c.Machine.Trace == nil {
		c.Machine.Trace = c.Trace
	}
	if c.Faults != nil {
		c.Machine.Faults = c.Faults
	}
	if c.ScaleBatchWithWorkers {
		if f := (c.Ranks - 1) / 8; f > 1 {
			c.BatchSize *= f
		}
	}
	return c
}

// PhaseStats separates GST construction from the clustering loop, the
// split the paper reports (Fig. 5 vs Fig. 9).
type PhaseStats struct {
	GST     par.Aggregate
	Cluster par.Aggregate
	// MasterAvailability is the fraction of the master's modeled
	// clustering time NOT spent processing messages (Section 7.2
	// reports 90 % → 70 % as p grows).
	MasterAvailability float64
	// MasterPeakBufBytes is the high-water mark of the master rank's
	// receive buffers over the whole run — the quantity MPI_Ssend
	// bounds in the paper's Section 7.2 discussion.
	MasterPeakBufBytes int
	// MasterMsgsRecv counts messages the master processed during the
	// clustering phase; its growth with p is the Section 7.2 concern
	// that ScaleBatchWithWorkers addresses.
	MasterMsgsRecv int
	// Exits is the per-rank exit status (fault runs; all-OK otherwise).
	Exits []par.Exit
}

// pairQueue is a FIFO of pairs with an O(1) head pop. The head index
// replaces the pending[1:] re-slice, whose retained backing array
// grows without bound; the buffer is compacted once the dead prefix
// dominates it.
type pairQueue struct {
	buf  []pairgen.Pair
	head int
}

func (q *pairQueue) Len() int { return len(q.buf) - q.head }

func (q *pairQueue) push(p pairgen.Pair) { q.buf = append(q.buf, p) }

func (q *pairQueue) pushAll(ps []pairgen.Pair) { q.buf = append(q.buf, ps...) }

func (q *pairQueue) pop() pairgen.Pair {
	p := q.buf[q.head]
	q.head++
	if q.head >= 256 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return p
}

// slice returns the queued pairs in order (for checkpoints).
func (q *pairQueue) slice() []pairgen.Pair { return q.buf[q.head:] }

// Parallel clusters the store's fragments on a p-rank machine:
// parallel GST construction (buckets on workers only), then the
// iterative master–worker overlap detection of Figs. 7–8. With a
// fault plan set the machine is survivable: the lease-based protocol
// finishes on the surviving workers, and the partition it returns is
// identical to a fault-free run's (union–find merges are
// order-independent and duplicated pairs are harmless).
func Parallel(store seq.Seqs, cfg Config, pcfg ParallelConfig) (*Result, PhaseStats, error) {
	cfg = cfg.withDefaults()
	pcfg = pcfg.withDefaults()
	if pcfg.Ranks < 2 {
		return nil, PhaseStats{}, fmt.Errorf("cluster: parallel run needs at least 2 ranks (1 master + 1 worker), got %d", pcfg.Ranks)
	}
	resume, err := decodeResume(pcfg.ResumeFrom, store)
	if err != nil {
		return nil, PhaseStats{}, err
	}

	result := &Result{N: store.N()}
	outs := make([]rankOut, pcfg.Ranks)
	mx := newClusterMetrics(pcfg.Metrics)
	start := time.Now()

	stats, exits := par.RunStatus(pcfg.Machine, func(c *par.Comm) {
		clusterRankBody(c, store, cfg, pcfg, resume, mx, &outs[c.Rank()])
	})
	mx.publishRankStats(stats)

	gstSnaps := make([]par.Stats, pcfg.Ranks)
	for i := range outs {
		gstSnaps[i] = outs[i].gstSnap
	}
	result.UF = outs[0].uf
	result.Stats = outs[0].stats
	masterWork := outs[0].masterWork

	if !exits[0].OK {
		return nil, PhaseStats{Exits: exits}, fmt.Errorf("cluster: master rank died: %s", exits[0].Reason)
	}
	if outs[0].masterErr != nil {
		return nil, PhaseStats{Exits: exits}, outs[0].masterErr
	}
	if pcfg.Machine.Faults == nil { // in process, only a fault plan makes deaths survivable
		for r, e := range exits {
			if !e.OK {
				return nil, PhaseStats{Exits: exits}, fmt.Errorf("cluster: rank %d died without a fault plan: %s", r, e.Reason)
			}
		}
	}

	result.Stats.WallSeconds = time.Since(start).Seconds()

	// Phase accounting: the snapshot taken at the barrier separates
	// GST construction from clustering.
	clusterStats := make([]par.Stats, len(stats))
	for i := range stats {
		clusterStats[i] = subtractStats(stats[i], gstSnaps[i])
	}
	ph := PhaseStats{
		GST:                par.Summarize(gstSnaps),
		Cluster:            par.Summarize(clusterStats),
		MasterPeakBufBytes: stats[0].PeakBufBytes,
		MasterMsgsRecv:     clusterStats[0].MsgsRecv,
		Exits:              exits,
	}
	if m := clusterStats[0].Modeled(); m > 0 && ph.Cluster.MaxModeled > 0 {
		ph.MasterAvailability = 1 - masterWork/ph.Cluster.MaxModeled
		if ph.MasterAvailability < 0 {
			ph.MasterAvailability = 0
		}
	}
	result.Stats.GSTSeconds = ph.GST.MaxModeled
	result.Stats.ClusterSeconds = ph.Cluster.MaxModeled
	return result, ph, nil
}

// decodeResume decodes the warm-start checkpoint (nil when there is
// none) and refuses one taken over a different fragment set.
func decodeResume(enc []byte, store seq.Seqs) (*Checkpoint, error) {
	if len(enc) == 0 {
		return nil, nil
	}
	cp, err := DecodeCheckpoint(enc)
	if err != nil {
		return nil, err
	}
	if cp.N != store.N() {
		return nil, fmt.Errorf("cluster: checkpoint is for %d fragments, store has %d", cp.N, store.N())
	}
	return cp, nil
}

// rankOut collects what one rank's body produces: the GST-phase
// snapshot on every rank, and the clustering result on the master.
type rankOut struct {
	gstSnap    par.Stats
	uf         *unionfind.UF
	stats      Stats
	masterWork float64
	masterErr  error
}

// clusterRankBody is the SPMD body one rank executes — the same code
// whether the rank is a goroutine of an in-process machine (Parallel)
// or an OS process speaking to its peers through a transport
// (ParallelRank).
func clusterRankBody(c *par.Comm, store seq.Seqs, cfg Config, pcfg ParallelConfig, resume *Checkpoint, mx clusterMetrics, out *rankOut) {
	// Phase 1: distributed GST over workers (rank 0 owns no buckets).
	// On a survivable machine the build outlives its ranks: one that
	// dies mid-construction has its exchanges re-enumerated and its
	// bucket range rebuilt by survivors (see package pgst).
	c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGST, 0, 0)
	local := pgst.Build(c, store, pgst.Config{
		W:          cfg.W,
		MinLen:     cfg.Psi,
		FirstOwner: 1,
		BatchBytes: pcfg.BatchBytes,
		Staged:     pcfg.Staged,
		Seed:       12345,
		SpillBytes: cfg.MemBudget,
	})
	c.Barrier()
	c.TraceEvent(obs.EvPhaseExit, obs.PhaseGST, 0, 0)
	out.gstSnap = c.Snapshot()

	// Phase 2: master–worker clustering.
	c.TraceEvent(obs.EvPhaseEnter, obs.PhaseCluster, 0, 0)
	if c.Rank() == 0 {
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseMaster, 0, 0)
		uf, st, busy, err := runMaster(c, store, cfg, pcfg, resume, mx)
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseMaster, 0, 0)
		out.uf = uf
		out.stats = st
		out.masterWork = busy
		out.masterErr = err
	} else {
		runWorker(c, store, local, cfg, pcfg, mx)
	}
	c.TraceEvent(obs.EvPhaseExit, obs.PhaseCluster, 0, 0)
}

// ParallelRank runs exactly one rank of the parallel clustering as
// this process's share of a multi-process machine, with peers reached
// through t. Rank 0 (the master) returns the clustering Result; other
// ranks return a nil Result. Peers are real processes, which genuinely
// die, so the machine is survivable and the lease protocol always
// runs: a worker rank's death is its exit status, never an error.
//
// Because each process sees only its own rank, the returned Stats and
// phase seconds describe this rank alone rather than a machine-wide
// aggregate; cross-rank analysis merges the per-process trace dumps
// instead.
func ParallelRank(store seq.Seqs, cfg Config, pcfg ParallelConfig, rank int, t par.Transport) (*Result, par.Stats, par.Exit, error) {
	cfg = cfg.withDefaults()
	pcfg = pcfg.withDefaults()
	if pcfg.Ranks < 2 {
		return nil, par.Stats{}, par.Exit{}, fmt.Errorf("cluster: parallel run needs at least 2 ranks, got %d", pcfg.Ranks)
	}
	if rank < 0 || rank >= pcfg.Ranks {
		return nil, par.Stats{}, par.Exit{}, fmt.Errorf("cluster: rank %d out of range for %d ranks", rank, pcfg.Ranks)
	}
	resume, err := decodeResume(pcfg.ResumeFrom, store)
	if err != nil {
		return nil, par.Stats{}, par.Exit{}, err
	}

	mx := newClusterMetrics(pcfg.Metrics)
	var out rankOut
	start := time.Now()
	st, exit := par.RunRank(pcfg.Machine, rank, t, func(c *par.Comm) {
		clusterRankBody(c, store, cfg, pcfg, resume, mx, &out)
	})
	mx.publishRankStats([]par.Stats{st})
	if rank != 0 {
		return nil, st, exit, nil
	}
	if !exit.OK {
		return nil, st, exit, fmt.Errorf("cluster: master rank died: %s", exit.Reason)
	}
	if out.masterErr != nil {
		return nil, st, exit, out.masterErr
	}
	result := &Result{N: store.N(), UF: out.uf, Stats: out.stats}
	result.Stats.WallSeconds = time.Since(start).Seconds()
	result.Stats.GSTSeconds = out.gstSnap.Modeled()
	result.Stats.ClusterSeconds = subtractStats(st, out.gstSnap).Modeled()
	return result, st, exit, nil
}

func subtractStats(a, b par.Stats) par.Stats {
	a.Wall -= b.Wall
	a.Blocked -= b.Blocked
	a.CommModel -= b.CommModel
	a.CompModel -= b.CompModel
	a.MsgsSent -= b.MsgsSent
	a.MsgsRecv -= b.MsgsRecv
	a.BytesSent -= b.BytesSent
	a.BytesRecv -= b.BytesRecv
	a.MsgsDropped -= b.MsgsDropped
	a.Retransmits -= b.Retransmits
	a.FramesCorrupted -= b.FramesCorrupted
	return a
}

// runMaster is the Fig. 7 algorithm, extended with the lease-based
// fault protocol. It returns the final clustering, statistics, and
// its modeled busy seconds (for the availability metric).
//
// The lease bookkeeping below runs on every machine, but only a
// survivable one ever reaps a worker, so on a fail-stop machine dead
// and orphans stay empty and every branch on them is inert. ft marks
// the genuine policy differences: polling receives under a lease
// versus one blocking receive, recovering from a bad worker versus
// aborting, and checking that a reporter is still alive.
//
// Lease invariants: expected[w] counts reports w still owes (its
// lease); owed[w] is the FIFO of dispatched batches not yet
// acknowledged by a result-carrying report; covers[w] is the set of
// GST portions w generates pairs from (its own, plus any adopted from
// dead ranks). Per-worker traffic strictly alternates, so a received
// report implies every earlier report from that worker was received —
// which is why a worker that reported passive can die without losing
// coverage, and any dropped message eventually expires the lease and
// re-assigns both the leased batches and the coverage.
func runMaster(c *par.Comm, store seq.Seqs, cfg Config, pcfg ParallelConfig, resume *Checkpoint, mx clusterMetrics) (*unionfind.UF, Stats, float64, error) {
	uf := unionfind.New(store.N())
	var st Stats
	busy := 0.0
	charge := func(sec float64) {
		busy += sec
		c.ChargeCompute(sec)
	}

	ft := c.Survivable()
	lease := pcfg.LeaseTimeout
	pollSlice := lease / 4
	if pollSlice > 50*time.Millisecond {
		pollSlice = 50 * time.Millisecond
	}
	// adoptDeadline grants lease grace to a worker that was just asked
	// to adopt dead ranks' GST portions: rebuilding them is real
	// compute on the lease clock, and firing a slow adopter re-orphans
	// an even larger portion onto the next one — a cascade that can
	// consume every worker. The grace scales with the adoption size.
	adoptDeadline := func(adopted int) time.Time {
		return time.Now().Add(time.Duration(3*adopted) * lease)
	}

	var pending pairQueue
	parked := []int{}
	passive := make(map[int]bool)
	// owed[w] holds the batches whose results are still outstanding: a
	// non-empty batch sent to w is acknowledged by w's next
	// result-carrying report (the worker aligns a batch after sending
	// its following report, so at most two replies separate dispatch
	// and acknowledgment, but at most one non-empty batch is ever
	// unacknowledged at a decision point). A worker owing results must
	// not be parked until an empty reply has flushed them out.
	owed := make(map[int][][]pairgen.Pair)
	expected := make(map[int]int) // reports outstanding per worker
	lastHeard := make(map[int]time.Time)
	dead := make(map[int]bool)
	covers := make(map[int][]int) // GST portions each worker generates from
	var orphans []int             // dead ranks' portions awaiting adoption
	inFlight := c.Size() - 1      // every worker owes an initial report
	now := time.Now()
	for w := 1; w < c.Size(); w++ {
		expected[w] = 1
		lastHeard[w] = now
		covers[w] = []int{w}
	}
	if resume != nil {
		uf = resume.restore()
		st = resume.Stats
		pending.pushAll(resume.Pending)
	}

	// takeBatch extracts up to BatchSize non-stale pairs.
	takeBatch := func() []pairgen.Pair {
		var batch []pairgen.Pair
		n := int32(store.N())
		for len(batch) < pcfg.BatchSize && pending.Len() > 0 {
			p := pending.pop()
			if uf.Same(int(p.ASid%n), int(p.BSid%n)) {
				st.Skipped++ // merged since it was enqueued
				charge(costUF)
				continue
			}
			batch = append(batch, p)
		}
		return batch
	}

	activeWorkers := func() int {
		a := 0
		for w := 1; w < c.Size(); w++ {
			if !dead[w] && !passive[w] {
				a++
			}
		}
		if a < 1 {
			a = 1
		}
		return a
	}

	liveWorkers := func() int {
		n := 0
		for w := 1; w < c.Size(); w++ {
			if !dead[w] {
				n++
			}
		}
		return n
	}

	// requestSize implements the paper's r formula: ask for enough
	// pairs that ≈ b survive selection, without overflowing the
	// pending buffer.
	requestSize := func(worker int) int {
		if passive[worker] {
			return 0
		}
		selectivity := 1.0
		if st.Generated > 0 {
			selectivity = float64(st.Generated-st.Skipped) / float64(st.Generated)
			if selectivity < 0.05 {
				selectivity = 0.05
			}
		}
		r := int(float64(pcfg.BatchSize) / selectivity)
		free := pcfg.MaxPending - pending.Len()
		if free < 0 {
			free = 0
		}
		if quota := free / activeWorkers(); r > quota {
			r = quota
		}
		return r
	}

	sendWork := func(worker int, batch []pairgen.Pair) {
		st.Aligned += int64(len(batch))
		mx.pairsAligned.Add(int64(len(batch)))
		if len(batch) > 0 {
			owed[worker] = append(owed[worker], batch)
		}
		wk := work{batch: batch}
		if len(orphans) > 0 {
			// Piggyback pending adoptions on the reply; recorded
			// optimistically so a lost reply re-orphans them with the
			// adopter's lease.
			wk.adopt = orphans
			covers[worker] = append(covers[worker], orphans...)
			delete(passive, worker)
			orphans = nil
			c.TraceEvent(obs.EvLeaseAdopt, int64(worker), int64(len(wk.adopt)), 0)
		}
		wk.r = requestSize(worker)
		c.TraceEvent(obs.EvLeaseGrant, int64(worker), int64(len(batch)), int64(wk.r))
		c.Send(worker, tagWork, encodeWork(wk))
		expected[worker]++
		lastHeard[worker] = adoptDeadline(len(wk.adopt))
		inFlight++
	}

	// reap fires a worker: its lease is cancelled, leased batches are
	// requeued, and — unless it had reported passive, meaning its
	// covered portions were fully generated and received — its GST
	// coverage is orphaned for adoption by a survivor.
	reap := func(w int) {
		if dead[w] {
			return
		}
		dead[w] = true
		st.WorkersLost++
		mx.workersLost.Inc()
		inFlight -= expected[w]
		expected[w] = 0
		requeued := int64(0)
		for _, b := range owed[w] {
			st.Aligned -= int64(len(b))
			st.Requeued += int64(len(b))
			requeued += int64(len(b))
			pending.pushAll(b)
		}
		c.TraceEvent(obs.EvLeaseExpire, int64(w), requeued, 0)
		delete(owed, w)
		for i, x := range parked {
			if x == w {
				parked = append(parked[:i], parked[i+1:]...)
				break
			}
		}
		if !passive[w] {
			orphans = append(orphans, covers[w]...)
		}
		delete(passive, w)
		delete(covers, w)
	}

	// reapDead fires crashed workers (detected by the runtime) and
	// silent ones whose lease expired; the latter get a done fence
	// first, in case they are alive but cut off.
	reapDead := func() bool {
		any := false
		now := time.Now()
		for w := 1; w < c.Size(); w++ {
			if dead[w] {
				continue
			}
			if c.RankDead(w) {
				reap(w)
				any = true
				continue
			}
			if expected[w] > 0 && now.Sub(lastHeard[w]) > lease {
				c.Send(w, tagDone, nil)
				reap(w)
				any = true
			}
		}
		return any
	}

	// abort tears the protocol down after an unrecoverable error:
	// every live worker is fenced with a done message, outstanding
	// reports are drained (releasing rendezvous senders that would
	// otherwise wedge the run), and the error propagates to the caller
	// instead of panicking.
	abort := func(cause error) (*unionfind.UF, Stats, float64, error) {
		for w := 1; w < c.Size(); w++ {
			if !dead[w] && !c.RankDead(w) {
				c.Send(w, tagDone, nil)
			}
		}
		quiet := 0
		for inFlight > 0 && quiet < 8 {
			if _, ok := c.RecvTimeout(par.AnySource, tagReport, 250*time.Millisecond); ok {
				inFlight--
				quiet = 0
			} else {
				quiet++
			}
		}
		return uf, st, busy, cause
	}

	reports := 0
	maybeCheckpoint := func() {
		if pcfg.CheckpointEvery <= 0 || pcfg.CheckpointSink == nil {
			return
		}
		reports++
		if reports%pcfg.CheckpointEvery != 0 {
			return
		}
		charge(float64(uf.N()) * costUF) // the Find sweep over all labels
		cp := snapshotCheckpoint(uf, st, pending.slice()).Encode()
		c.TraceEvent(obs.EvCheckpoint, int64(len(cp)), 0, 0)
		mx.checkpoints.Inc()
		pcfg.CheckpointSink(cp)
	}

	for {
		// Hand orphaned GST portions to an idle (parked) worker first:
		// it resumes generation immediately instead of waiting for a
		// busy worker's next report.
		if len(orphans) > 0 && len(parked) > 0 {
			a := parked[0]
			parked = parked[1:]
			covers[a] = append(covers[a], orphans...)
			delete(passive, a)
			c.TraceEvent(obs.EvLeaseAdopt, int64(a), int64(len(orphans)), 0)
			c.Send(a, tagAdopt, encodeAdopt(adopt{deadRanks: orphans}))
			lastHeard[a] = adoptDeadline(len(orphans))
			orphans = nil
			expected[a]++
			inFlight++
		}
		// Dispatch pending work to parked workers (keeping passive
		// workers busy, Section 7).
		for len(parked) > 0 && pending.Len() > 0 {
			batch := takeBatch()
			if len(batch) == 0 {
				break
			}
			wkr := parked[0]
			parked = parked[1:]
			sendWork(wkr, batch)
		}
		if inFlight == 0 {
			if liveWorkers() == 0 {
				// Everything left is either already done or
				// unrecoverable; any orphaned coverage or real pending
				// pair means lost work.
				if len(orphans) > 0 || len(takeBatch()) > 0 {
					return uf, st, busy, fmt.Errorf("cluster: all %d workers died with work remaining", st.WorkersLost)
				}
			}
			break
		}

		var msg par.Message
		if ft {
			got := false
			for !got {
				m, ok := c.RecvTimeout(par.AnySource, tagReport, pollSlice)
				if ok {
					msg, got = m, true
				} else if reapDead() {
					break
				}
			}
			if !got {
				continue // reaped instead of received: redo dispatch
			}
		} else {
			msg = c.Recv(par.AnySource, tagReport)
		}
		if dead[msg.Src] {
			// Zombie: a worker already fired (late or delayed report).
			// Fence it without touching the bookkeeping.
			c.Send(msg.Src, tagDone, nil)
			continue
		}
		inFlight--
		expected[msg.Src]--
		lastHeard[msg.Src] = time.Now()
		rep, err := decodeReport(msg.Data)
		switch {
		case err != nil:
			err = fmt.Errorf("cluster: malformed report from worker %d: %w", msg.Src, err)
		case rep.fail != "":
			// The worker hit a protocol error and exited after sending
			// this report.
			err = fmt.Errorf("cluster: worker %d failed: %s", msg.Src, rep.fail)
		}
		if err != nil {
			if !ft {
				return abort(err)
			}
			if rep.fail == "" {
				// A corrupted report means the channel to this worker
				// is unreliable: fence it before recovering its state.
				c.Send(msg.Src, tagDone, nil)
			}
			reap(msg.Src)
			continue
		}
		charge(costPerMsgC)

		// Interpret alignment results; they acknowledge the oldest
		// outstanding batch.
		if len(rep.results) > 0 && len(owed[msg.Src]) > 0 {
			owed[msg.Src] = owed[msg.Src][1:]
		}
		for _, ar := range rep.results {
			charge(costUF)
			if ar.accepted {
				st.Accepted++
				mx.pairsAccepted.Inc()
				fa, fb := int(ar.fa), int(ar.fb)
				if cfg.MaxClusterSize > 0 && uf.Size(fa)+uf.Size(fb) > cfg.MaxClusterSize {
					continue // bounded-cluster heuristic (Section 10)
				}
				if uf.Union(fa, fb) {
					st.Merges++
					mx.merges.Inc()
					c.TraceEvent(obs.EvClusterMerge, int64(fa), int64(fb), 0)
				}
			}
		}
		// Scan new pairs; keep only those needing alignment.
		n := int32(store.N())
		skippedHere := int64(0)
		for _, p := range rep.pairs {
			st.Generated++
			charge(costPair + costUF)
			if uf.Same(int(p.ASid%n), int(p.BSid%n)) {
				st.Skipped++
				skippedHere++
				continue
			}
			pending.push(p)
		}
		if len(rep.pairs) > 0 {
			c.TraceEvent(obs.EvPairGenerated, int64(len(rep.pairs)), int64(msg.Src), 0)
			mx.pairsGenerated.Add(int64(len(rep.pairs)))
		}
		if skippedHere > 0 {
			c.TraceEvent(obs.EvPairDiscarded, skippedHere, int64(msg.Src), 0)
			mx.pairsSkipped.Add(skippedHere)
		}
		mx.reports.Inc()
		mx.pendingDepth.Set(int64(pending.Len()))
		mx.pendingPeak.SetMax(int64(pending.Len()))
		if rep.passive {
			passive[msg.Src] = true
		}
		maybeCheckpoint()

		if ft && c.RankDead(msg.Src) {
			// The reporter died after sending: replying would leak a
			// lease on a corpse.
			reap(msg.Src)
			continue
		}

		// Reply to the sender: work if available; otherwise keep an
		// active worker generating or flush outstanding results with an
		// empty reply; park only a passive worker that owes nothing.
		batch := takeBatch()
		if len(batch) > 0 || !passive[msg.Src] || len(owed[msg.Src]) > 0 || len(orphans) > 0 {
			sendWork(msg.Src, batch)
		} else {
			parked = append(parked, msg.Src)
		}
	}

	for _, wkr := range parked {
		c.Send(wkr, tagDone, nil)
	}
	return uf, st, busy, nil
}

// runWorker is the Fig. 8 algorithm: generate pairs on request, align
// allocated batches while waiting for the master, and generate ahead
// into the bounded buffer when otherwise idle. On a survivable machine
// it can adopt dead ranks' GST portions (rebuilding them locally) and
// gives up on a silent master instead of blocking forever.
func runWorker(c *par.Comm, store seq.Seqs, local *pgst.Local, cfg Config, pcfg ParallelConfig, mx clusterMetrics) {
	ft := c.Survivable()
	pgCfg := pairgen.Config{
		Psi:                  cfg.Psi,
		NumFragments:         store.N(),
		DuplicateElimination: cfg.DuplicateElimination,
	}
	// rangeStream streams the pairs of one owner rank's GST portion in
	// spilling mode: segments are built, generated and dropped inside
	// the sweep, so no full forest is ever resident.
	rangeStream := func(r int) *pairgen.Stream {
		return pairgen.NewSweep(func(yield func(*suffixtree.Tree) bool) {
			local.SweepRank(store, r, yield)
		}, pgCfg, 256)
	}
	var streams []*pairgen.Stream
	if local.Spill != nil {
		for _, r := range local.Spill.Ranks {
			streams = append(streams, rangeStream(r))
		}
	} else {
		streams = []*pairgen.Stream{pairgen.NewStream(local.Tree, pgCfg, 256)}
	}
	cur := 0
	defer func() {
		for _, s := range streams {
			s.Close()
		}
	}()

	var buffered []pairgen.Pair
	exhausted := false
	n := int32(store.N())

	// adoptPortions takes over the GST portions of dead ranks and
	// queues them for generation — rebuilt whole in memory, or swept
	// under the byte budget in spilling mode.
	adoptPortions := func(ranks []int) {
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseRecover, 0, 0)
		for _, d := range ranks {
			if local.Spill != nil {
				streams = append(streams, rangeStream(d))
				continue
			}
			t := pgst.RebuildPortion(c, store, local, d)
			streams = append(streams, pairgen.NewStream(t, pgCfg, 256))
		}
		exhausted = cur >= len(streams)
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseRecover, 0, 0)
	}

	// takeN draws from the buffer first, then the streams in order. The
	// stream pulls are bracketed as a pairgen phase span so the trace
	// separates generation time from alignment and protocol waits.
	takeN := func(r int) []pairgen.Pair {
		var out []pairgen.Pair
		for len(out) < r && len(buffered) > 0 {
			out = append(out, buffered[0])
			buffered = buffered[1:]
		}
		if len(out) >= r || exhausted {
			return out
		}
		c.TraceEvent(obs.EvPhaseEnter, obs.PhasePairGen, 0, 0)
		for len(out) < r && !exhausted {
			before := len(out)
			out = streams[cur].Take(out, r)
			c.ChargeCompute(float64(len(out)-before) * costPair)
			if len(out) < r {
				cur++
				exhausted = cur >= len(streams)
			}
		}
		c.TraceEvent(obs.EvPhaseExit, obs.PhasePairGen, 0, 0)
		return out
	}

	alignBatch := func(batch []pairgen.Pair) []alignResult {
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseAlign, 0, 0)
		batchStart := time.Now()
		results := make([]alignResult, 0, len(batch))
		var cells int64
		for _, p := range batch {
			accepted, cost := AlignPair(store, p, cfg)
			cells += cost
			mx.alignLen.Observe(float64(p.MatchLen))
			results = append(results, alignResult{fa: p.ASid % n, fb: p.BSid % n, accepted: accepted})
		}
		c.ChargeCompute(float64(cells) * costCell)
		mx.batchLatency.Observe(time.Since(batchStart).Seconds())
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseAlign, 0, 0)
		c.TraceEvent(obs.EvPairAligned, int64(len(batch)), 0, 0)
		return results
	}

	// sendFail reports a protocol error to the master (eagerly — the
	// worker is about to exit and must not wedge on a rendezvous) so
	// the master aborts or recovers instead of waiting out a lease.
	sendFail := func(err error) {
		c.Send(0, tagReport, encodeReport(report{fail: err.Error()}))
	}

	r := pcfg.BatchSize // initial request size before the master says otherwise
	var curBatch []pairgen.Pair
	var results []alignResult
	for {
		// Report: new pairs as requested plus results of the last batch.
		np := takeN(r)
		rep := encodeReport(report{
			pairs:   np,
			results: results,
			passive: exhausted && len(buffered) == 0,
		})
		// The lease protocol needs non-blocking reports: a worker the
		// master already gave up on (fired on lease expiry while merely
		// slow) may report once more after the master stops reading, and
		// an Ssend would wedge waiting for a match that never comes.
		// Eager reports make a fired worker's last words harmless.
		if pcfg.UseSsend && !ft {
			c.Ssend(0, tagReport, rep)
		} else {
			c.Send(0, tagReport, rep)
		}
		results = nil

		// Overlap the wait: align the batch allocated last iteration.
		if len(curBatch) > 0 {
			results = alignBatch(curBatch)
			curBatch = nil
		}
		// Still no reply? Generate ahead into the bounded buffer.
		var msg par.Message
		got := false
		if !exhausted && len(buffered) < pcfg.NewPairsBuf {
			c.TraceEvent(obs.EvPhaseEnter, obs.PhasePairGen, 0, 0)
			for !exhausted && len(buffered) < pcfg.NewPairsBuf {
				if m, ok := c.Probe(0, par.AnyTag); ok {
					msg, got = m, true
					break
				}
				p, ok := streams[cur].Next()
				if !ok {
					cur++
					if exhausted = cur >= len(streams); exhausted {
						break
					}
					continue
				}
				c.ChargeCompute(costPair)
				buffered = append(buffered, p)
			}
			c.TraceEvent(obs.EvPhaseExit, obs.PhasePairGen, 0, 0)
		}
		if !got {
			if ft {
				m, ok := c.RecvTimeout(0, par.AnyTag, 4*pcfg.LeaseTimeout)
				if !ok {
					return // master dead or fence lost: self-fence
				}
				msg = m
			} else {
				msg = c.Recv(0, par.AnyTag)
			}
		}
		switch msg.Tag {
		case tagDone:
			return
		case tagAdopt:
			ad, err := decodeAdopt(msg.Data)
			if err != nil {
				sendFail(err)
				return
			}
			adoptPortions(ad.deadRanks)
			curBatch = nil
		default:
			wk, err := decodeWork(msg.Data)
			if err != nil {
				sendFail(err)
				return
			}
			if len(wk.adopt) > 0 {
				adoptPortions(wk.adopt)
			}
			r = wk.r
			curBatch = wk.batch
		}
	}
}
