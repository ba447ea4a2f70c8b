package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/seq"
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

	// Trace, when non-nil, records phase spans (GST / cluster / align /
	// recover) and protocol events (lease grant/expire/adopt, merges,
	// pair generation) alongside the runtime's message
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

// parallelRun is what Parallel and ParallelRank share around their
// machines: the validated, defaulted configuration, the metric handles
// and the host clock.
type parallelRun struct {
	store seq.Seqs
	cfg   Config
	pcfg  ParallelConfig
	mx    clusterMetrics
	start time.Time
}

// newParallelRun is the common prologue. It refuses a machine without
// a worker.
func newParallelRun(store seq.Seqs, cfg Config, pcfg ParallelConfig) (*parallelRun, error) {
	run := &parallelRun{store: store, cfg: cfg.withDefaults(), pcfg: pcfg.withDefaults()}
	if run.pcfg.Ranks < 2 {
		return nil, fmt.Errorf("cluster: parallel run needs at least 2 ranks (1 master + 1 worker), got %d", run.pcfg.Ranks)
	}
	run.mx = newClusterMetrics(run.pcfg.Metrics)
	run.start = time.Now()
	return run, nil
}

// masterResult is the common epilogue on rank 0's side: the master's
// death or protocol error, else its clustering with the host wall time.
func (run *parallelRun) masterResult(out *rankOut, exit par.Exit) (*Result, error) {
	if !exit.OK {
		return nil, fmt.Errorf("cluster: master rank died: %s", exit.Reason)
	}
	if out.masterErr != nil {
		return nil, out.masterErr
	}
	res := &Result{N: run.store.N(), UF: out.uf, Stats: out.stats}
	res.Stats.WallSeconds = time.Since(run.start).Seconds()
	return res, nil
}

// Parallel clusters the store's fragments on a p-rank machine:
// parallel GST construction (buckets on workers only), then the
// iterative master–worker overlap detection of Figs. 7–8. With a
// fault plan set the machine is survivable: the lease-based protocol
// finishes on the surviving workers, and the partition it returns is
// identical to a fault-free run's (union–find merges are
// order-independent and duplicated pairs are harmless).
func Parallel(store seq.Seqs, cfg Config, pcfg ParallelConfig) (*Result, PhaseStats, error) {
	run, err := newParallelRun(store, cfg, pcfg)
	if err != nil {
		return nil, PhaseStats{}, err
	}
	outs := make([]rankOut, run.pcfg.Ranks)
	stats, exits := par.RunStatus(run.pcfg.Machine, func(c *par.Comm) {
		run.rankBody(c, &outs[c.Rank()])
	})
	run.mx.publishRankStats(stats)

	result, err := run.masterResult(&outs[0], exits[0])
	if err == nil && run.pcfg.Machine.Faults == nil { // in process, only a fault plan makes deaths survivable
		for r, e := range exits {
			if !e.OK {
				err = fmt.Errorf("cluster: rank %d died without a fault plan: %s", r, e.Reason)
				break
			}
		}
	}
	if err != nil {
		return nil, PhaseStats{Exits: exits}, err
	}

	// Phase accounting: the snapshot taken at the barrier separates
	// GST construction from clustering.
	gstSnaps := make([]par.Stats, len(stats))
	clusterStats := make([]par.Stats, len(stats))
	for i := range stats {
		gstSnaps[i] = outs[i].gstSnap
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
		ph.MasterAvailability = max(1-outs[0].masterWork/ph.Cluster.MaxModeled, 0)
	}
	result.Stats.GSTSeconds = ph.GST.MaxModeled
	result.Stats.ClusterSeconds = ph.Cluster.MaxModeled
	return result, ph, nil
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

// rankBody is the SPMD body one rank executes — the same code whether
// the rank is a goroutine of an in-process machine (Parallel) or an OS
// process speaking to its peers through a transport (ParallelRank).
func (run *parallelRun) rankBody(c *par.Comm, out *rankOut) {
	store, cfg, pcfg := run.store, run.cfg, run.pcfg
	// Phase 1: distributed GST over workers (rank 0 owns no buckets).
	// On a survivable machine the build outlives its ranks: a survivor
	// whose exchange a death severed sweeps its own range, and the
	// master hands a dead rank's range to a worker (see package pgst).
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
		out.uf, out.stats, out.masterWork, out.masterErr = runMaster(c, run)
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseMaster, 0, 0)
	} else {
		runWorker(c, run, local)
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
	run, err := newParallelRun(store, cfg, pcfg)
	if err == nil && (rank < 0 || rank >= run.pcfg.Ranks) {
		err = fmt.Errorf("cluster: rank %d out of range for %d ranks", rank, run.pcfg.Ranks)
	}
	if err != nil {
		return nil, par.Stats{}, par.Exit{}, err
	}
	var out rankOut
	st, exit := par.RunRank(run.pcfg.Machine, rank, t, func(c *par.Comm) {
		run.rankBody(c, &out)
	})
	run.mx.publishRankStats([]par.Stats{st})
	if rank != 0 {
		return nil, st, exit, nil
	}
	result, err := run.masterResult(&out, exit)
	if err != nil {
		return nil, st, exit, err
	}
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

// runMaster is the receive loop around the master core, the part that
// is genuinely policy: where the clock is read, and how a report is
// waited for — polling under a lease on a survivable machine so that
// silence can fire a worker, one blocking receive on a fail-stop one.
// It returns the final clustering, statistics, and the master's modeled
// busy seconds (for the availability metric).
func runMaster(c *par.Comm, run *parallelRun) (*unionfind.UF, Stats, float64, error) {
	survivable := c.Survivable()
	m := newMaster(c, c.Size(), run.store.N(), survivable, run.pcfg, run.mx, time.Now())
	pollSlice := min(run.pcfg.LeaseTimeout/4, 50*time.Millisecond)
	for {
		m.dispatch(time.Now())
		if done, err := m.finished(); done {
			return m.uf, m.st, m.busy, err
		}
		var msg par.Message
		if survivable {
			var ok bool
			if msg, ok = c.RecvTimeout(par.AnySource, tagReport, pollSlice); !ok {
				m.onSilence(time.Now())
				continue
			}
		} else {
			msg = c.Recv(par.AnySource, tagReport)
		}
		if err := m.onReport(msg.Src, msg.Data, time.Now()); err != nil {
			drainReports(c, m.inFlight)
			return m.uf, m.st, m.busy, err
		}
	}
}

// drainReports finishes an aborted run: the core has fenced every live
// worker, and the reports still in flight are received and dropped,
// releasing rendezvous senders that would otherwise wedge the run, so
// the error reaches the caller instead of a panic.
func drainReports(c *par.Comm, inFlight int) {
	for quiet := 0; inFlight > 0 && quiet < 8; {
		if _, ok := c.RecvTimeout(par.AnySource, tagReport, 250*time.Millisecond); ok {
			inFlight--
			quiet = 0
		} else {
			quiet++
		}
	}
}

// runWorker is the loop around the worker core, the part that is
// genuinely policy: how a report is sent, how the reply is waited for,
// and where the clock is read. On a survivable machine the worker gives
// up on a silent master instead of blocking forever.
func runWorker(c *par.Comm, run *parallelRun, local *pgst.Local) {
	survivable, pcfg := c.Survivable(), run.pcfg
	w := &worker{run: run, port: c, sweep: local.Sweep, rank: c.Rank(), size: c.Size(),
		r: pcfg.BatchSize, // initial request size before the master says otherwise
	}
	defer w.close()
	w.cover(c.Rank())
	for {
		// The lease protocol needs non-blocking reports: a worker the
		// master already gave up on (fired on lease expiry while merely
		// slow) may report once more after the master stops reading, and
		// an Ssend would wedge waiting for a match that never comes.
		// Eager reports make a fired worker's last words harmless.
		if rep := w.report(); pcfg.UseSsend && !survivable {
			c.Ssend(0, tagReport, rep)
		} else {
			c.Send(0, tagReport, rep)
		}
		// Overlap the wait: align the batch allocated last iteration.
		if start := time.Now(); w.align() > 0 {
			run.mx.batchLatency.Observe(time.Since(start).Seconds())
		}
		// Still no reply? Generate ahead into the bounded buffer.
		var msg par.Message
		got := false
		w.generateAhead(func() bool {
			msg, got = c.Probe(0, par.AnyTag)
			return got
		})
		if !got {
			if !survivable {
				msg = c.Recv(0, par.AnyTag)
			} else if msg, got = c.RecvTimeout(0, par.AnyTag, 4*pcfg.LeaseTimeout); !got {
				return // master dead or fence lost: self-fence
			}
		}
		if msg.Tag == tagDone {
			return
		}
		if err := w.take(msg.Data); err != nil {
			// Tell the master (eagerly — this worker is about to exit
			// and must not wedge on a rendezvous) so it aborts or
			// recovers instead of waiting out a lease.
			c.Send(0, tagReport, encodeReport(report{fail: err.Error()}))
			return
		}
	}
}
