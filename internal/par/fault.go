package par

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/wire"
)

// FaultPlan is a deterministic, seedable schedule of injected faults,
// applied at the Send/Recv boundary of a machine. It models the
// failure modes that dominate past a few hundred ranks on real
// hardware — rank death, message loss, message delay — while staying
// reproducible: every decision is drawn from a per-rank RNG in that
// rank's own operation order, so a rank's fault behaviour does not
// depend on goroutine scheduling.
//
// A nil plan costs nothing: the runtime takes a single nil check per
// operation and a fault-free run's Stats are bit-identical to a run
// on a machine without the fault layer.
type FaultPlan struct {
	// Seed drives the per-rank randomness for drops and delays. Rank
	// r uses an independent RNG derived from Seed and r.
	Seed int64
	// Crashes schedules rank deaths; see Crash.
	Crashes []Crash
	// DropProb silently discards each eager user-tagged (tag ≥ 0)
	// Send with this probability. Rendezvous sends (Ssend, SendRecv)
	// and collective traffic (negative internal tags) are modeled as
	// reliable: the paper's collectives run on acknowledged channels,
	// and a dropped rendezvous would wedge the sender rather than
	// model loss.
	DropProb float64
	// DelayProb holds back each user-tagged eager message with this
	// probability; the message is delivered Delay later instead of
	// immediately.
	DelayProb float64
	// Delay is the injected delivery latency for delayed messages.
	Delay time.Duration
	// Retransmit enables the reliable-link protocol: every eager send
	// (including collective traffic on internal tags) is framed with a
	// length + CRC32C envelope, the receiving NIC verifies it, and a
	// dropped or corrupted frame is retransmitted with capped
	// exponential backoff charged to the sender's modeled clock. With
	// Retransmit set, DropProb and CorruptProb apply to all eager
	// sends, and every message is eventually delivered intact (or the
	// sender fail-stops after maxRetries attempts).
	Retransmit bool
	// CorruptProb corrupts each framed send with this probability —
	// either flipping a payload byte or truncating the frame — so the
	// checksum layer must catch it. Only meaningful with Retransmit.
	CorruptProb float64
}

// maxRetries caps retransmission attempts per message under
// Retransmit; exceeding it fail-stops the sender.
const maxRetries = 64

// Crash kills one rank at a deterministic point in its execution.
type Crash struct {
	// Rank is the rank to kill.
	Rank int
	// AfterSends, when positive, kills the rank immediately *before*
	// it performs its n-th send whose tag matches Tag (so the n-th
	// matching message is never transmitted). Tag = AnyTag matches
	// every send, including collective traffic.
	AfterSends int
	// Tag selects which sends AfterSends counts.
	Tag int
	// After, when positive, kills the rank at its first runtime
	// operation once this much wall time has elapsed since the rank
	// started. Step-based triggers (AfterSends) are preferred for
	// reproducibility; time-based triggers model wall-clock failures.
	After time.Duration
}

// Exit describes how one rank of a Run finished.
type Exit struct {
	// OK is true when the rank's body returned normally.
	OK bool
	// FaultKilled is true when the rank was killed by the fault plan
	// (as opposed to a genuine panic or a dead-rank cascade).
	FaultKilled bool
	// Reason describes why the rank died; empty when OK.
	Reason string
}

// rankCrash is the panic sentinel that unwinds a dying rank's stack.
// Run's recovery recognizes it and records an Exit instead of
// propagating the panic.
type rankCrash struct {
	killed bool // true: fault-plan kill; false: dead-rank cascade
	reason string
}

// faultState is one rank's private view of the plan.
type faultState struct {
	plan     *FaultPlan
	rng      *rand.Rand
	triggers []crashTrigger
	deadAt   time.Duration // earliest time-based kill; 0 = none
}

type crashTrigger struct {
	tag       int
	remaining int
}

func newFaultState(plan *FaultPlan, rank int) *faultState {
	if plan == nil {
		return nil
	}
	fs := &faultState{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed ^ int64(uint64(rank+1)*0x9e3779b97f4a7c15))),
	}
	for _, cr := range plan.Crashes {
		if cr.Rank != rank {
			continue
		}
		if cr.AfterSends > 0 {
			fs.triggers = append(fs.triggers, crashTrigger{tag: cr.Tag, remaining: cr.AfterSends})
		}
		if cr.After > 0 && (fs.deadAt == 0 || cr.After < fs.deadAt) {
			fs.deadAt = cr.After
		}
	}
	return fs
}

// die kills the rank: its mailbox is torn down (pending rendezvous
// senders are released, future deliveries discarded), every blocked
// rank is woken so dead-rank detection can fire, and the rank's stack
// unwinds via the crash sentinel.
func (c *Comm) die(killed bool, reason string) {
	code := obs.FaultCascade
	if killed {
		code = obs.FaultCrash
	}
	c.trace(obs.EvFault, code, 0, 0)
	c.m.markCrashed(c.rank)
	panic(rankCrash{killed: killed, reason: reason})
}

// checkTime fires any due time-based crash. Called at every runtime
// operation; a single nil check when no plan is set.
func (c *Comm) checkTime() {
	if c.fs == nil || c.fs.deadAt == 0 {
		return
	}
	if time.Since(c.start) >= c.fs.deadAt {
		c.die(true, fmt.Sprintf("fault plan: killed %v after rank start", c.fs.deadAt))
	}
}

// checkSend fires any due send-count crash; it must run before the
// message is delivered so the fatal send is lost with the rank.
func (c *Comm) checkSend(tag int) {
	c.checkTime()
	if c.fs == nil {
		return
	}
	for i := range c.fs.triggers {
		t := &c.fs.triggers[i]
		if t.remaining <= 0 || (t.tag != AnyTag && t.tag != tag) {
			continue
		}
		t.remaining--
		if t.remaining == 0 {
			c.die(true, fmt.Sprintf("fault plan: killed before send (tag %d)", tag))
		}
	}
}

// The reliable-link envelope (length + CRC32C) is the wire package's
// frame format — the same bytes nettrans writes onto real sockets.

// corruptFrame injures a frame in place (bit flip) or by truncation,
// drawing from the rank's deterministic RNG.
func corruptFrame(f []byte, rng *rand.Rand) []byte {
	if len(f) == 0 || rng.Intn(4) == 0 {
		// Truncation: cut the frame short (possibly to nothing).
		return f[:rng.Intn(len(f)+1)]
	}
	f[rng.Intn(len(f))] ^= byte(1 << rng.Intn(8))
	return f
}

// deliverReliable is the reliable-link send path used when the plan
// sets Retransmit: the frame may be dropped or corrupted in flight,
// the "receiving NIC" verifies the checksum envelope synchronously,
// and the sender retransmits with capped exponential backoff until the
// frame survives. Faults apply to every eager send, collective tags
// included; delivery is exactly-once with the original payload, so a
// fault-tolerant protocol above sees a lossy link yet a reliable
// channel.
func (c *Comm) deliverReliable(dst int, e envelope) {
	p := c.fs.plan
	// Capped exponential backoff starting at one link latency, charged
	// to the modeled clock only — the in-process link needs no real
	// waiting, and sleeping here could deadlock eager collectives that
	// post every send before receiving. No jitter: modeled stats must
	// stay bit-identical run to run.
	bo := backoff.Policy{Base: c.m.cfg.Alpha}
	for attempt := 0; ; attempt++ {
		frame := wire.EncodeFrame(e.data)
		// The first transmission's α + n/β was charged by Send; each
		// retransmission charges the frame again.
		if attempt > 0 {
			c.st.Retransmits++
			c.chargeComm(len(frame))
			c.st.CommModel += bo.Seconds(attempt - 1)
			c.trace(obs.EvRetransmit, int64(dst), int64(e.tag), int64(attempt))
		}
		if p.DropProb > 0 && c.fs.rng.Float64() < p.DropProb {
			c.st.MsgsDropped++
			c.trace(obs.EvFault, obs.FaultDrop, int64(dst), int64(e.tag))
		} else if p.CorruptProb > 0 && c.fs.rng.Float64() < p.CorruptProb {
			frame = corruptFrame(frame, c.fs.rng)
			c.st.FramesCorrupted++
			c.trace(obs.EvCorruptFrame, int64(dst), int64(e.tag), int64(len(frame)))
			if payload, ok := wire.DecodeFrame(frame); ok {
				// Corruption missed anything vital (e.g. flipped a bit
				// that truncation removed) — extraordinarily unlikely
				// to pass CRC32C with a real payload, but if the frame
				// still verifies, it delivers.
				e.data = payload
				c.m.put(dst, e)
				return
			}
		} else {
			payload, ok := wire.DecodeFrame(frame)
			if !ok {
				panic("par: clean frame failed verification")
			}
			e.data = payload
			c.m.put(dst, e)
			return
		}
		if attempt+1 >= maxRetries {
			c.die(true, fmt.Sprintf("retransmit budget exhausted after %d attempts (dst=%d tag=%d)", maxRetries, dst, e.tag))
		}
	}
}

// deliver applies drop/delay faults to an eager user-tagged message
// and reports whether the message was dropped. Rendezvous envelopes
// and internal (negative) tags always deliver immediately — unless the
// plan enables Retransmit, in which case every eager send goes through
// the framed reliable-link path.
func (c *Comm) deliver(dst int, e envelope) bool {
	if c.fs != nil && e.ack == nil && c.fs.plan.Retransmit {
		c.deliverReliable(dst, e)
		return false
	}
	if c.fs != nil && e.tag >= 0 && e.ack == nil {
		p := c.fs.plan
		if p.DropProb > 0 && c.fs.rng.Float64() < p.DropProb {
			c.st.MsgsDropped++
			c.trace(obs.EvFault, obs.FaultDrop, int64(dst), int64(e.tag))
			return true
		}
		if p.Delay > 0 && p.DelayProb > 0 && c.fs.rng.Float64() < p.DelayProb {
			c.trace(obs.EvFault, obs.FaultDelay, int64(dst), int64(e.tag))
			m := c.m
			m.delayed.Add(1)
			time.AfterFunc(p.Delay, func() {
				m.put(dst, e)
				m.delayed.Add(-1)
				m.wakeAll()
			})
			return false
		}
	}
	c.m.put(dst, e)
	return false
}
