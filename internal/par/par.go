// Package par is an in-process distributed-memory message-passing
// runtime — the repository's substitute for MPI on the BlueGene/L
// (paper, Sections 6–7). A machine of p ranks runs one goroutine per
// rank in SPMD style; ranks communicate exclusively by tagged
// point-to-point messages and the collectives built on them
// (Barrier, Bcast, Gather, Alltoallv, Allreduce, plus the paper's
// customized staged Alltoallv that bounds per-rank buffer space by
// doing p−1 pairwise exchanges).
//
// Because in-process channels are orders of magnitude faster than a
// real interconnect, communication time is charged by an explicit
// α + n/β cost model with BlueGene/L-like constants and accumulated
// per rank, while computation time is measured with real timers
// (wall time minus time spent blocked). This hybrid preserves the
// communication/computation breakdown the paper reports (Fig. 5)
// without pretending channel latency is network latency.
//
// The runtime can also inject faults — deterministic rank crashes,
// probabilistic message drops and delays — through a FaultPlan in the
// Config, and exposes the primitives fault-tolerant protocols need:
// RecvTimeout and RankDead. A rank that would block
// forever on a crashed peer is itself crashed (dead-rank cascade), so
// Run always returns with a per-rank exit status instead of hanging.
// A machine with a fault plan or a transport is survivable
// (Comm.Survivable): there the collectives complete over the surviving
// ranks instead of cascading.
package par

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
)

// Wildcards for Recv and Probe.
const (
	AnySource = -1
	AnyTag    = -1
)

// Internal tag space for collectives; user tags must be ≥ 0.
const (
	tagBarrier = -10 - iota
	tagBcast
	tagGather
	_ // retired (Scatter); the slot stays so later tags keep their trace values
	_ // retired (Reduce)
	tagAlltoall
	tagSendRecv
)

// Message is a received point-to-point message. Seq is the sender's
// per-rank message sequence number (1-based, counting every send the
// source rank performed), so (Src, Seq) identifies the transfer
// exactly — the correlation key trace analysis matches send and recv
// events on.
type Message struct {
	Src  int
	Tag  int
	Seq  uint64
	Data []byte
}

// Config configures a machine.
type Config struct {
	Ranks int
	// Cost model; zero values take BlueGene/L-like defaults.
	Alpha time.Duration // per-message latency
	Beta  float64       // bandwidth, bytes/second
	// Faults, when non-nil, injects the plan's crashes, drops and
	// delays. Nil runs fault-free with zero overhead.
	Faults *FaultPlan
	// Schedule, when non-nil, perturbs message delivery order and
	// wildcard-receive choice with seeded randomness (see SchedulePlan).
	// Nil keeps the default FIFO schedule with zero overhead.
	Schedule *SchedulePlan
	// Trace, when non-nil, records runtime events — send/recv/ssend
	// begin+end, injected faults, and any user events emitted through
	// TraceEvent — into per-rank ring buffers with both wall and
	// modeled timestamps. Nil disables tracing: the hot path then
	// costs one nil check per operation and allocates nothing.
	Trace *obs.Tracer
}

// DefaultConfig returns a machine with p ranks and BlueGene/L-like
// interconnect constants (≈3 µs latency, ≈150 MB/s per-link bandwidth).
func DefaultConfig(p int) Config {
	return Config{Ranks: p, Alpha: 3 * time.Microsecond, Beta: 150e6}
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 3 * time.Microsecond
	}
	if c.Beta == 0 {
		c.Beta = 150e6
	}
	return c
}

type envelope struct {
	src  int
	tag  int
	seq  uint64 // sender's per-rank sequence number (survives retransmits)
	data []byte
	ack  chan struct{} // non-nil for synchronous (rendezvous) sends
}

// takeOutcome reports how a blocking mailbox wait ended.
type takeOutcome int

const (
	takeOK       takeOutcome = iota
	takeTimeout              // deadline passed with no matching message
	takeDeadRank             // the wait can never be satisfied: source(s) crashed
)

// mailbox is one rank's incoming message queue with (src, tag) matching.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []envelope
	bytes int        // current buffered bytes
	peak  int        // high-water mark of buffered bytes
	dead  bool       // owner rank crashed; discard deliveries
	rng   *rand.Rand // schedule perturbation; nil = FIFO (guarded by mu)
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(e envelope) {
	mb.mu.Lock()
	if mb.dead {
		mb.mu.Unlock()
		// Delivery to a crashed rank: the bytes vanish, but a
		// rendezvous sender must not wedge waiting for a match.
		if e.ack != nil {
			close(e.ack)
		}
		return
	}
	if mb.rng != nil && len(mb.queue) > 0 {
		// Delivery jitter: splice the message into a random position
		// that keeps it behind every earlier message from its source.
		i := jitterInsert(mb.queue, e.src, mb.rng)
		mb.queue = append(mb.queue, envelope{})
		copy(mb.queue[i+1:], mb.queue[i:])
		mb.queue[i] = e
	} else {
		mb.queue = append(mb.queue, e)
	}
	// A rendezvous (ack != nil) message conceptually stays in the
	// sender's memory until matched, as with MPI_Ssend; only eager
	// messages occupy the receiver's buffers.
	if e.ack == nil {
		mb.bytes += len(e.data)
		if mb.bytes > mb.peak {
			mb.peak = mb.bytes
		}
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// kill tears the mailbox down when its owner crashes: queued
// rendezvous senders are released and future deliveries discarded.
func (mb *mailbox) kill() {
	mb.mu.Lock()
	mb.dead = true
	for _, e := range mb.queue {
		if e.ack != nil {
			close(e.ack)
		}
	}
	mb.queue = nil
	mb.bytes = 0
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

func (mb *mailbox) wake() { mb.cond.Broadcast() }

// match returns the queue index of the message a receive with selector
// (src, tag) should take, or -1 when none matches. Under FIFO (or a
// specific-source selector) it is the first match in queue order; with
// schedule perturbation, a wildcard-source receive picks uniformly
// among the first matching message of each distinct source. Caller
// holds mb.mu.
func (mb *mailbox) match(src, tag int) int {
	if mb.rng == nil || src != AnySource {
		for i, e := range mb.queue {
			if (src == AnySource || e.src == src) && (tag == AnyTag || e.tag == tag) {
				return i
			}
		}
		return -1
	}
	var cands []int
	seen := make(map[int]bool)
	for i, e := range mb.queue {
		if (tag == AnyTag || e.tag == tag) && !seen[e.src] {
			seen[e.src] = true
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return pickWildcard(cands, mb.rng)
}

func (mb *mailbox) peakBytes() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.peak
}

// take removes and returns the first queued message matching
// (src, tag). It blocks until one arrives, the deadline passes (zero
// deadline: no limit), or the machine knows the wait can never be
// satisfied because the source rank(s) crashed. It reports how long
// it blocked.
func (mb *mailbox) take(m *machine, self, src, tag int, deadline time.Time) (envelope, time.Duration, takeOutcome) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var blocked time.Duration
	var timer *time.Timer
	if !deadline.IsZero() {
		// sync.Cond has no timed wait; an AfterFunc broadcast wakes
		// the loop to re-check the deadline.
		timer = time.AfterFunc(time.Until(deadline), mb.cond.Broadcast)
		defer timer.Stop()
	}
	for {
		if i := mb.match(src, tag); i >= 0 {
			e := mb.queue[i]
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			mb.consume(e)
			return e, blocked, takeOK
		}
		if m.blockedForever(self, src) {
			return envelope{}, blocked, takeDeadRank
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return envelope{}, blocked, takeTimeout
		}
		start := time.Now()
		mb.cond.Wait()
		blocked += time.Since(start)
	}
}

// tryTake is the non-blocking variant of take.
func (mb *mailbox) tryTake(src, tag int) (envelope, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if i := mb.match(src, tag); i >= 0 {
		e := mb.queue[i]
		mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
		mb.consume(e)
		return e, true
	}
	return envelope{}, false
}

// consume updates buffer accounting when a message is matched: eager
// messages leave the buffer; a rendezvous message transits it
// momentarily at match time.
func (mb *mailbox) consume(e envelope) {
	if e.ack == nil {
		mb.bytes -= len(e.data)
		return
	}
	if v := mb.bytes + len(e.data); v > mb.peak {
		mb.peak = v
	}
}

// machine is the shared state of one Run. In the default in-process
// mode every rank's mailbox is live and trans is nil; under RunRank
// exactly one rank (local) is hosted here and traffic to every other
// rank routes through the transport.
type machine struct {
	cfg     Config
	boxes   []*mailbox
	crashed []atomic.Bool // rank died (fault kill, panic, or cascade)
	delayed atomic.Int64  // fault-delayed messages still in flight
	trans   Transport     // nil: all ranks are in-process goroutines
	local   int           // the one locally-hosted rank when trans != nil
}

// markCrashed records a rank death and wakes every blocked rank so
// dead-rank detection can fire.
func (m *machine) markCrashed(rank int) {
	m.crashed[rank].Store(true)
	m.boxes[rank].kill()
	m.wakeAll()
}

func (m *machine) wakeAll() {
	for _, b := range m.boxes {
		b.wake()
	}
}

// blockedForever reports whether a receive posted by rank self with
// source selector src can never be satisfied: the named source has
// crashed, or (wildcard) every other rank has — and no fault-delayed
// message is still in flight.
func (m *machine) blockedForever(self, src int) bool {
	if m.delayed.Load() > 0 {
		return false
	}
	if src != AnySource {
		return m.crashed[src].Load()
	}
	for r := range m.crashed {
		if r != self && !m.crashed[r].Load() {
			return false
		}
	}
	return true
}

// Comm is one rank's handle to the machine, valid only inside the
// rank's goroutine (it is not safe to share across goroutines).
type Comm struct {
	m     *machine
	rank  int
	seq   uint64 // sequence number of this rank's most recent send
	st    Stats
	start time.Time
	fs    *faultState // nil when no fault plan is set
	tr    *obs.Tracer // nil when tracing is disabled

	// phases mirrors the rank's open phase spans so a profiling
	// session can keep the goroutine's pprof "phase" label current
	// across nested enter/exit events. The stack is maintained on
	// every phase event (so a session starting mid-run still labels
	// correctly) but labels are only applied while prof.Enabled() —
	// without a session the cost is a slice push/pop on the rare
	// phase boundaries and nothing on the message hot path.
	phases []int64
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.m.cfg.Ranks }

// RankDead reports whether rank r has crashed — killed by the fault
// plan, panicked, or cascaded from blocking on a dead rank. It never
// reports true for a rank that finished its body normally.
func (c *Comm) RankDead(r int) bool { return c.m.crashed[r].Load() }

// trace records one event on this rank's track, stamping both modeled
// clocks. A nil tracer makes this a single branch with no allocation,
// the guarantee internal/par's zero-alloc benchmark enforces.
func (c *Comm) trace(k obs.Kind, a, b, n int64) {
	if c.tr == nil {
		return
	}
	c.tr.Emit(c.rank, k, c.st.CommModel, c.st.CompModel, a, b, n)
}

// traceSeq is trace for message-transfer events, stamping the message's
// per-sender sequence number so trace analysis can match the send and
// recv records of one transfer exactly.
func (c *Comm) traceSeq(k obs.Kind, a, b, n int64, seq uint64) {
	if c.tr == nil {
		return
	}
	c.tr.EmitSeq(c.rank, k, c.st.CommModel, c.st.CompModel, a, b, n, seq)
}

// TraceEvent records a user-level event (phase enter/exit, protocol
// milestones) on this rank's trace track; a no-op without a tracer.
// Arguments are kind-specific — see obs.Event. Phase events also
// drive the rank's pprof phase label when a profiling session is
// active, so CPU samples land pre-attributed to the phase that
// burned them.
func (c *Comm) TraceEvent(k obs.Kind, a, b, n int64) {
	switch k {
	case obs.EvPhaseEnter:
		c.phases = append(c.phases, a)
		c.applyProfLabels()
	case obs.EvPhaseExit:
		// Pop the innermost matching phase; tolerate unbalanced exits.
		for i := len(c.phases) - 1; i >= 0; i-- {
			if c.phases[i] == a {
				c.phases = append(c.phases[:i], c.phases[i+1:]...)
				break
			}
		}
		c.applyProfLabels()
	}
	c.trace(k, a, b, n)
}

// applyProfLabels refreshes the calling goroutine's pprof labels from
// the rank and its innermost open phase. A single atomic load when no
// profiling session is active.
func (c *Comm) applyProfLabels() {
	if !prof.Enabled() {
		return
	}
	phase := ""
	if n := len(c.phases); n > 0 {
		phase = obs.PhaseName(c.phases[n-1])
	}
	prof.ApplyLabels(c.rank, phase)
}

// Tracer returns the machine's tracer, or nil when tracing is off.
func (c *Comm) Tracer() *obs.Tracer { return c.tr }

// chargeComm adds one modeled message transfer to this rank's
// communication time.
func (c *Comm) chargeComm(bytes int) {
	c.st.CommModel += c.m.cfg.Alpha.Seconds() + float64(bytes)/c.m.cfg.Beta
}

// ChargeCompute adds modeled computation seconds to this rank. Compute
// kernels charge analytic costs (cells aligned, characters scanned) so
// modeled runtimes scale with the simulated machine size rather than
// the host's core count.
func (c *Comm) ChargeCompute(sec float64) { c.st.CompModel += sec }

// Snapshot returns the rank's statistics accumulated so far, with Wall
// reflecting elapsed time since the rank started. Useful for per-phase
// breakdowns.
func (c *Comm) Snapshot() Stats {
	s := c.st
	s.Wall = time.Since(c.start)
	return s
}

// Send delivers data to dst with tag. It is buffered (never blocks) —
// the analogue of an eager MPI_Send. The data slice is owned by the
// receiver after the call; do not reuse it. Under a fault plan the
// message may be dropped or delayed.
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("par: send to invalid rank %d", dst))
	}
	c.checkSend(tag)
	c.seq++
	c.st.MsgsSent++
	c.st.BytesSent += len(data)
	c.chargeComm(len(data))
	c.traceSeq(obs.EvSendBegin, int64(dst), int64(tag), int64(len(data)), c.seq)
	c.deliver(dst, envelope{src: c.rank, tag: tag, seq: c.seq, data: data})
	c.traceSeq(obs.EvSendEnd, int64(dst), int64(tag), int64(len(data)), c.seq)
}

// Ssend is a synchronous (rendezvous) send: it returns only after the
// receiver has matched the message, the analogue of MPI_Ssend the paper
// adopts to avoid overflowing the master's receive buffers (Section 7).
// If the receiver has crashed, Ssend completes immediately (the
// message vanishes, as on a network whose peer reset the connection).
func (c *Comm) Ssend(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("par: ssend to invalid rank %d", dst))
	}
	c.checkSend(tag)
	c.seq++
	seq := c.seq
	ack := make(chan struct{})
	c.st.MsgsSent++
	c.st.BytesSent += len(data)
	c.chargeComm(len(data))
	c.traceSeq(obs.EvSsendBegin, int64(dst), int64(tag), int64(len(data)), seq)
	c.m.put(dst, envelope{src: c.rank, tag: tag, seq: seq, data: data, ack: ack})
	start := time.Now()
	<-ack
	c.st.Blocked += time.Since(start)
	c.traceSeq(obs.EvSsendEnd, int64(dst), int64(tag), int64(len(data)), seq)
}

// accountRecv books a matched envelope into the rank's statistics and
// releases a rendezvous sender.
func (c *Comm) accountRecv(e envelope) Message {
	c.st.MsgsRecv++
	c.st.BytesRecv += len(e.data)
	c.chargeComm(len(e.data))
	if e.ack != nil {
		close(e.ack)
	}
	return Message{Src: e.src, Tag: e.tag, Seq: e.seq, Data: e.data}
}

// Survivable reports whether a rank death is something this machine's
// protocols are expected to outlive: it has a fault plan (deaths are
// injected) or a transport (peers are real processes, which genuinely
// die). On any other machine a death is a bug and fail-stop is the
// right answer: every rank that waits on the corpse cascades.
func (c *Comm) Survivable() bool { return c.m.cfg.Faults != nil || c.m.trans != nil }

// recv is the one receive body behind Recv, RecvTimeout and recvFrom.
// It blocks until a message matching (src, tag) arrives, the deadline
// passes (zero: none), or the source rank(s) are known dead — a death
// wakes every blocked receive, so nothing here polls. A dead source
// either cascades the caller or is reported as ok=false like a
// timeout. A rank with a planned time crash waits no longer than its
// own death time, so the crash fires even while the rank is parked.
func (c *Comm) recv(src, tag int, deadline time.Time, cascade bool) (Message, bool) {
	c.checkTime()
	c.trace(obs.EvRecvBegin, int64(src), int64(tag), 0)
	if c.fs != nil && c.fs.deadAt > 0 {
		if kill := c.start.Add(c.fs.deadAt); deadline.IsZero() || kill.Before(deadline) {
			deadline = kill
		}
	}
	e, blocked, out := c.m.boxes[c.rank].take(c.m, c.rank, src, tag, deadline)
	c.st.Blocked += blocked
	if out != takeOK {
		c.checkTime()
		if out == takeDeadRank && cascade {
			c.die(false, fmt.Sprintf("blocked in Recv(src=%d, tag=%d) on crashed rank(s)", src, tag))
		}
		c.trace(obs.EvRecvEnd, int64(src), int64(tag), -1)
		return Message{}, false
	}
	msg := c.accountRecv(e)
	c.traceSeq(obs.EvRecvEnd, int64(msg.Src), int64(msg.Tag), int64(len(msg.Data)), msg.Seq)
	return msg, true
}

// Recv blocks until a message matching (src, tag) arrives; wildcards
// AnySource and AnyTag match anything. If the wait can never be
// satisfied because the source rank(s) crashed, the receiving rank
// itself crashes (dead-rank cascade) so the machine never hangs.
func (c *Comm) Recv(src, tag int) Message {
	msg, _ := c.recv(src, tag, time.Time{}, true)
	return msg
}

// RecvTimeout is Recv with a deadline: ok is false if no matching
// message arrived within d, or if the source rank(s) are known to
// have crashed (so the caller can distinguish a dead peer from a slow
// one with RankDead). It is the primitive lease-based protocols poll
// on.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) (Message, bool) {
	return c.recv(src, tag, time.Now().Add(d), false)
}

// recvFrom is the collectives' receive from a peer that may die: on a
// survivable machine ok=false means src died before its message
// reached this rank; on a fail-stop machine it cascades like Recv.
func (c *Comm) recvFrom(src, tag int) (Message, bool) {
	return c.recv(src, tag, time.Time{}, !c.Survivable())
}

// Probe is a non-blocking receive; ok is false if no matching message
// is queued. A successful probe traces a zero-length recv span so the
// causal trace still records the transfer; a miss traces nothing
// (probes poll in tight loops).
func (c *Comm) Probe(src, tag int) (Message, bool) {
	c.checkTime()
	e, ok := c.m.boxes[c.rank].tryTake(src, tag)
	if !ok {
		return Message{}, false
	}
	c.trace(obs.EvRecvBegin, int64(src), int64(tag), 0)
	msg := c.accountRecv(e)
	c.traceSeq(obs.EvRecvEnd, int64(msg.Src), int64(msg.Tag), int64(len(msg.Data)), msg.Seq)
	return msg, true
}

// SendRecv concurrently performs a synchronous send to dst and a
// receive from src with the given tag — the deadlock-free pairwise
// exchange used by the staged Alltoallv. The send is rendezvous-style,
// so the outgoing buffer never accumulates in the destination's
// receive space (the property the paper's customized Alltoallv needs).
func (c *Comm) SendRecv(dst int, data []byte, src, tag int) Message {
	c.checkSend(tag)
	c.seq++
	seq := c.seq
	ack := make(chan struct{})
	c.traceSeq(obs.EvSsendBegin, int64(dst), int64(tag), int64(len(data)), seq)
	c.m.put(dst, envelope{src: c.rank, tag: tag, seq: seq, data: data, ack: ack})
	c.st.MsgsSent++
	c.st.BytesSent += len(data)
	c.chargeComm(len(data))
	msg := c.Recv(src, tag)
	start := time.Now()
	<-ack
	c.st.Blocked += time.Since(start)
	c.traceSeq(obs.EvSsendEnd, int64(dst), int64(tag), int64(len(data)), seq)
	return msg
}

// RunStatus executes body on every rank of a machine with the given
// config and returns per-rank statistics and exit statuses. Unlike
// Run it never panics on a rank death and never hangs: a rank that
// blocks forever on a crashed peer is crashed in turn, so every rank
// terminates and its fate is reported in the Exit slice.
func RunStatus(cfg Config, body func(c *Comm)) ([]Stats, []Exit) {
	m := newMachine(cfg)
	stats := make([]Stats, m.cfg.Ranks)
	exits := make([]Exit, m.cfg.Ranks)
	var wg sync.WaitGroup
	for r := range stats {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			stats[rank], exits[rank] = m.runRank(rank, body)
		}(r)
	}
	wg.Wait()
	return stats, exits
}

// newMachine builds the mailboxes and crash flags of a cfg.Ranks-wide
// machine. A machine that hosts one rank (RunRank) allocates the
// remote ranks' boxes too: they stay empty, and having them keeps
// markCrashed and the fault plumbing branch-free.
func newMachine(cfg Config) *machine {
	cfg = cfg.withDefaults()
	if cfg.Ranks < 1 {
		panic("par: need at least one rank")
	}
	m := &machine{
		cfg:     cfg,
		boxes:   make([]*mailbox, cfg.Ranks),
		crashed: make([]atomic.Bool, cfg.Ranks),
	}
	for i := range m.boxes {
		m.boxes[i] = newMailbox()
		if cfg.Schedule != nil {
			m.boxes[i].rng = cfg.Schedule.scheduleRNG(i)
		}
	}
	return m
}

// runRank executes body as rank on m and reports its statistics and
// fate. A panic crashes the rank — marked, so ranks blocked on it
// cascade instead of hanging — and becomes its Exit.
func (m *machine) runRank(rank int, body func(c *Comm)) (st Stats, exit Exit) {
	c := &Comm{m: m, rank: rank, start: time.Now(), fs: newFaultState(m.cfg.Faults, rank), tr: m.cfg.Trace}
	c.applyProfLabels() // rank label; phase follows TraceEvent
	defer prof.ClearLabels()
	defer func() {
		c.st.Wall = time.Since(c.start)
		c.st.PeakBufBytes = m.boxes[rank].peakBytes()
		st, exit = c.st, Exit{OK: true}
		if p := recover(); p != nil {
			m.markCrashed(rank)
			if rc, ok := p.(rankCrash); ok {
				exit = Exit{FaultKilled: rc.killed, Reason: rc.reason}
			} else {
				exit = Exit{Reason: fmt.Sprintf("panic: %v", p)}
			}
		}
	}()
	body(c)
	return
}

// Run executes body on every rank of a machine with the given config
// and returns per-rank statistics. It panics if any rank panics or
// dies; fault-tolerant callers that expect rank deaths should use
// RunStatus instead.
func Run(cfg Config, body func(c *Comm)) []Stats {
	stats, exits := RunStatus(cfg, body)
	// Prefer reporting a genuine panic over its cascade victims.
	firstBad := -1
	for r, e := range exits {
		if e.OK {
			continue
		}
		if len(e.Reason) >= 6 && e.Reason[:6] == "panic:" {
			panic(fmt.Sprintf("rank %d: %s", r, e.Reason))
		}
		if firstBad < 0 {
			firstBad = r
		}
	}
	if firstBad >= 0 {
		panic(fmt.Sprintf("rank %d: %s", firstBad, exits[firstBad].Reason))
	}
	return stats
}
