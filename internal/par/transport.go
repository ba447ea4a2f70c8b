package par

// The transport seam: everything a machine needs from its interconnect
// when some ranks live in other OS processes. The default all-in-one-
// process machine (Run/RunStatus) bypasses it entirely — goroutine
// ranks deliver straight into each other's mailboxes, exactly as
// before — while RunRank builds a machine that owns a single local
// rank and routes every remote operation through a Transport. The
// in-process backend stays the default for sim and CI; the socket
// backend lives in par/nettrans; and because both feed the same
// mailbox, matching, collective and fail-stop code, the sim oracles
// and trace invariants double as the transport conformance suite.

// Envelope is the transport-level unit: one point-to-point message
// between ranks, carrying the sender's per-rank sequence number. The
// (Src, Seq) pair identifies a transfer exactly — it is the dedupe key
// an at-least-once transport must deliver at most once, and the
// correlation key trace analysis joins send and recv events on.
type Envelope struct {
	Src  int
	Dst  int
	Tag  int
	Seq  uint64
	Data []byte
	// Sync marks a rendezvous (Ssend-style) transfer: the receiving
	// side must report back when the message is matched by a receive,
	// not merely buffered.
	Sync bool
}

// Sink is the runtime side a Transport delivers into. Its methods may
// be called from any transport goroutine.
type Sink interface {
	// Deliver injects an inbound envelope into the local rank's
	// mailbox. For Sync envelopes, matched is non-nil and must be
	// called exactly once when a local receive matches the message —
	// the transport turns that into the sender's rendezvous ack.
	Deliver(e Envelope, matched func())
	// PeerDead records that rank r crashed (fail-stop): its process
	// died, announced a crash, or went silent past the liveness
	// timeout. It feeds RankDead and the dead-rank cascade exactly
	// like an in-process crash. Idempotent.
	PeerDead(r int, reason string)
}

// Transport carries envelopes between this process's rank and its
// remote peers. Implementations must preserve per-(src,dst) FIFO
// order, deliver each (Src, Seq) at most once, and survive connection
// loss and partial writes (the nettrans backend reconnects with capped
// backoff and resumes from the last acked sequence number).
type Transport interface {
	// Attach binds the runtime's sink and starts inbound delivery.
	// Called once by RunRank before the rank body runs.
	Attach(sink Sink) error
	// Deliver routes e to remote rank e.Dst. It must not block on the
	// network (eager sends never block in this runtime); queueing and
	// retransmission happen inside the transport. For Sync envelopes,
	// matched is non-nil and the transport must close it when the
	// remote receiver matches the message — or when the peer is
	// declared dead, mirroring the in-process rule that an Ssend to a
	// crashed rank completes immediately.
	Deliver(e Envelope, matched chan struct{}) error
	// Probe reports whether rank r is currently believed alive (its
	// liveness timeout has not expired and it announced no crash). The
	// local rank is always alive.
	Probe(r int) bool
	// CrashNotify announces the local rank's own crash to every peer,
	// so their fail-stop detection fires promptly instead of waiting
	// out the liveness timeout. Called by the runtime when the rank
	// dies; a normal return uses Close's clean goodbye instead.
	CrashNotify(reason string)
	// Close shuts the transport down: drain unacknowledged envelopes
	// (bounded), announce a clean finish to peers, release sockets. A
	// cleanly-closed rank is NOT reported dead to peers — matching the
	// in-process rule that a rank finishing its body normally never
	// trips RankDead.
	Close() error
}

// put routes one envelope toward rank dst: straight into a local
// mailbox, or through the transport when dst lives in another process.
func (m *machine) put(dst int, e envelope) {
	if m.trans == nil || dst == m.local {
		m.boxes[dst].put(e)
		return
	}
	env := Envelope{Src: e.src, Dst: dst, Tag: e.tag, Seq: e.seq, Data: e.data, Sync: e.ack != nil}
	if err := m.trans.Deliver(env, e.ack); err != nil {
		// Deliver fails only on transport misuse (closed transport);
		// peer death is handled inside the transport per the
		// interface contract.
		panic("par: transport deliver: " + err.Error())
	}
}

// machineSink adapts a single-rank machine to the Sink interface.
type machineSink struct{ m *machine }

func (s machineSink) Deliver(e Envelope, matched func()) {
	env := envelope{src: e.Src, tag: e.Tag, seq: e.Seq, data: e.Data}
	if matched != nil {
		// Mirror the in-process rendezvous: the mailbox closes ack at
		// match time (or at teardown of a dead mailbox), and a relay
		// goroutine turns that into the transport's match callback.
		ack := make(chan struct{})
		env.ack = ack
		go func() {
			<-ack
			matched()
		}()
	}
	s.m.boxes[s.m.local].put(env)
}

func (s machineSink) PeerDead(r int, reason string) {
	if r < 0 || r >= len(s.m.crashed) || r == s.m.local {
		return
	}
	s.m.markCrashed(r)
}

// RunRank executes body as rank `rank` of a cfg.Ranks-wide machine
// whose other ranks live in other OS processes reached through t. It
// is the out-of-process counterpart of RunStatus: the same SPMD body,
// the same mailbox matching, collectives, statistics and fail-stop
// semantics — but peers are real processes, and peer death arrives
// through the transport's liveness layer instead of a shared crashed
// flag. The caller owns t's lifecycle: RunRank attaches it and, on a
// rank crash, announces the crash through it, but does not close it —
// call t.Close after RunRank returns to drain and say goodbye.
func RunRank(cfg Config, rank int, t Transport, body func(c *Comm)) (Stats, Exit) {
	m := newMachine(cfg)
	if rank < 0 || rank >= m.cfg.Ranks {
		panic("par: rank out of range")
	}
	if t == nil {
		panic("par: RunRank needs a transport")
	}
	m.trans, m.local = t, rank
	if err := t.Attach(machineSink{m}); err != nil {
		return Stats{}, Exit{Reason: "transport attach: " + err.Error()}
	}
	st, exit := m.runRank(rank, body)
	if !exit.OK {
		t.CrashNotify(exit.Reason)
	}
	return st, exit
}
