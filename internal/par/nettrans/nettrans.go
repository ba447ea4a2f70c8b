package nettrans

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/par"
	"repro/internal/wire"
)

// Config describes one rank's endpoint of a multi-process machine on
// one host. Every rank listens on an ephemeral endpoint (127.0.0.1:0
// for tcp, a socket under RegistryDir for unix) whose bound address
// Addr returns.
type Config struct {
	// Rank and Size identify this process within the machine.
	Rank, Size int
	// Network is "tcp" (loopback) or "unix".
	Network string
	// RegistryDir is the rendezvous directory (required): every rank
	// publishes its bound address there and looks peers up by polling.
	RegistryDir string
	// Epoch guards against stale incarnations: handshakes and registry
	// entries from a different epoch are rejected. The launcher picks
	// one epoch per run.
	Epoch uint64
	// Heartbeat is the idle-connection keepalive interval (default
	// 250ms).
	Heartbeat time.Duration
	// Liveness is how long a peer may stay completely silent before it
	// is declared dead (default 5s). This — or an explicit crash
	// goodbye — is the only way a peer dies; connection loss alone
	// triggers reconnection, not failure.
	Liveness time.Duration
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// RendezvousTimeout bounds the wait for a peer's address to appear
	// in the registry (default 30s).
	RendezvousTimeout time.Duration
	// DrainTimeout bounds Close's wait for in-flight messages to be
	// acknowledged (default 5s).
	DrainTimeout time.Duration
	// MaxFrame bounds accepted frame payloads (default 256 MiB) so a
	// corrupt length prefix cannot drive an allocation.
	MaxFrame int
}

func (c Config) withDefaults() Config {
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 250 * time.Millisecond
	}
	if c.Liveness <= 0 {
		c.Liveness = 5 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RendezvousTimeout <= 0 {
		c.RendezvousTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 256 << 20
	}
	return c
}

// safeConn serializes frame writes on one link (its writer, CrashNotify
// and Close's goodbye share the socket).
type safeConn struct {
	mu   sync.Mutex
	c    net.Conn
	mf   int
	wdl  time.Duration
	dead atomic.Bool
}

func newSafeConn(c net.Conn, maxFrame int, writeDeadline time.Duration) *safeConn {
	return &safeConn{c: c, mf: maxFrame, wdl: writeDeadline}
}

func (s *safeConn) write(f frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead.Load() {
		return errors.New("nettrans: connection closed")
	}
	s.c.SetWriteDeadline(time.Now().Add(s.wdl))
	return writeFrame(s.c, f)
}

func (s *safeConn) read() (frame, error) {
	return readFrame(s.c, s.mf)
}

// readWithin reads a handshake frame, giving up after d.
func (s *safeConn) readWithin(d time.Duration) (frame, error) {
	s.c.SetReadDeadline(time.Now().Add(d))
	defer s.c.SetReadDeadline(time.Time{})
	return s.read()
}

func (s *safeConn) close() {
	if s.dead.CompareAndSwap(false, true) {
		s.c.Close()
	}
}

// peer is all state for one remote rank: the one link that carries
// both directions, the queue of envelopes to it, and the dedupe
// horizon and owed acknowledgements for envelopes from it.
type peer struct {
	rank int

	rx sync.Mutex // held from dedupe through delivery of one envelope

	mu            sync.Mutex
	link          *safeConn                // the live connection; nil while down
	sendq         []par.Envelope           // unacked envelopes in sequence order
	unsent        int                      // index of the first entry not yet written on link
	pending       map[uint64]chan struct{} // rendezvous sends awaiting their match-ack
	acked         uint64                   // highest sequence the peer cumulatively acknowledged
	lastDelivered uint64                   // dedupe horizon: highest sequence delivered from the peer
	ackOwed       bool                     // a delivery since the last ack written
	macks         []uint64                 // match-acks to write, kept across a dropped link
	dead          bool
	finished      bool
	notify        chan struct{} // wakes the link's writer (capacity 1)

	lastHeard atomic.Int64 // unix nanos of the last frame from this peer
}

func (p *peer) heard() { p.lastHeard.Store(time.Now().UnixNano()) }

// gone reports whether the peer needs no further effort.
func (p *peer) gone() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead || p.finished
}

func (p *peer) current() *safeConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.link
}

func (p *peer) delivered() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastDelivered
}

func (p *peer) clearLink(sc *safeConn) {
	p.mu.Lock()
	if p.link == sc {
		p.link = nil
	}
	p.mu.Unlock()
}

// oweMack queues a rendezvous match report for the link's writer.
func (p *peer) oweMack(seq uint64) {
	p.mu.Lock()
	p.macks = append(p.macks, seq)
	p.mu.Unlock()
	wake(p.notify)
}

// releaseLocked completes every pending rendezvous send. Caller holds
// p.mu.
func (p *peer) releaseLocked() {
	for _, ch := range p.pending {
		close(ch)
	}
	p.pending = map[uint64]chan struct{}{}
}

// pruneLocked drops queue entries the peer has cumulatively
// acknowledged as delivered. A rendezvous entry leaves the queue when
// delivered (it sits safely in the peer's mailbox and is never resent)
// but its completion channel stays pending until the match-ack.
// Caller holds p.mu.
func (p *peer) pruneLocked(acked uint64) {
	if acked <= p.acked {
		return
	}
	p.acked = acked
	i := 0
	for i < len(p.sendq) && p.sendq[i].Seq <= acked {
		i++
	}
	clear(p.sendq[:i]) // release the delivered payloads
	p.sendq = p.sendq[i:]
	p.unsent = max(p.unsent-i, 0)
}

// next takes the next frame for sc to write — an owed ack, then owed
// match-acks, then the first envelope not yet written on it. ok is
// false when there is nothing to write or sc is no longer p's link.
func (p *peer) next(sc *safeConn) (f frame, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.link != sc:
		return f, false
	case p.ackOwed:
		p.ackOwed = false
		return frame{Kind: kAck, Seq: p.lastDelivered}, true
	case len(p.macks) > 0:
		f = frame{Kind: kMatchAck, Seq: p.macks[0]}
		p.macks = p.macks[1:]
		return f, true
	case p.unsent < len(p.sendq):
		m := p.sendq[p.unsent]
		p.unsent++
		return frame{Kind: kData, Src: m.Src, Dst: m.Dst, Tag: m.Tag, Seq: m.Seq, Sync: m.Sync, Data: m.Data}, true
	}
	return f, false
}

// Transport is the socket implementation of par.Transport. One
// Transport hosts one rank; New binds the listener and publishes the
// address, Attach (called by par.RunRank) starts the mesh.
type Transport struct {
	cfg  Config
	ln   net.Listener
	addr string
	sink par.Sink

	peers []*peer // index = rank; nil at our own rank

	mu       sync.Mutex
	closed   bool
	attached bool
	crashed  bool // CrashNotify ran: Close must not send a clean goodbye
	done     chan struct{}
	wg       sync.WaitGroup
	drained  *sync.Cond
}

// New binds this rank's listener and publishes its address. The
// transport does not dial or accept until Attach.
func New(cfg Config) (*Transport, error) {
	cfg = cfg.withDefaults()
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("nettrans: rank %d out of range for size %d", cfg.Rank, cfg.Size)
	}
	if cfg.Network != "tcp" && cfg.Network != "unix" {
		return nil, fmt.Errorf("nettrans: unsupported network %q", cfg.Network)
	}
	if cfg.RegistryDir == "" {
		return nil, errors.New("nettrans: no registry dir to rendezvous through")
	}
	listen := "127.0.0.1:0"
	if cfg.Network == "unix" {
		listen = fmt.Sprintf("%s/sock-%d-%d", cfg.RegistryDir, cfg.Epoch, cfg.Rank)
	}
	ln, err := net.Listen(cfg.Network, listen)
	if err != nil {
		return nil, fmt.Errorf("nettrans: listen: %w", err)
	}
	t := &Transport{
		cfg:   cfg,
		ln:    ln,
		addr:  ln.Addr().String(),
		peers: make([]*peer, cfg.Size),
		done:  make(chan struct{}),
	}
	t.drained = sync.NewCond(&t.mu)
	for r := 0; r < cfg.Size; r++ {
		if r == cfg.Rank {
			continue
		}
		p := &peer{rank: r, pending: make(map[uint64]chan struct{}), notify: make(chan struct{}, 1)}
		p.heard() // silence is measured from transport start
		t.peers[r] = p
	}
	if err := publishAddr(cfg.RegistryDir, cfg.Rank, cfg.Network, t.addr, cfg.Epoch); err != nil {
		ln.Close()
		return nil, err
	}
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.addr }

// Attach starts the mesh: the accept loop, a dialer for every
// higher-ranked peer, and the liveness monitor.
func (t *Transport) Attach(sink par.Sink) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("nettrans: transport closed")
	}
	if t.attached {
		t.mu.Unlock()
		return errors.New("nettrans: already attached")
	}
	t.attached = true
	t.sink = sink
	t.mu.Unlock()

	t.wg.Add(1)
	go t.acceptLoop()
	for _, p := range t.peers[t.cfg.Rank+1:] {
		t.wg.Add(1)
		go t.dialLoop(p)
	}
	t.wg.Add(1)
	go t.monitor()
	return nil
}

// stopping reports whether Close has begun tearing the mesh down.
func (t *Transport) stopping() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Deliver queues e for its destination; the link's writer ships it.
// It never blocks on the network.
func (t *Transport) Deliver(e par.Envelope, matched chan struct{}) error {
	if e.Dst < 0 || e.Dst >= len(t.peers) || t.peers[e.Dst] == nil {
		return fmt.Errorf("nettrans: deliver to invalid rank %d", e.Dst)
	}
	if t.stopping() {
		return errors.New("nettrans: transport closed")
	}
	p := t.peers[e.Dst]
	p.mu.Lock()
	if p.dead || p.finished {
		// The in-process rule: a message to a dead rank vanishes, and
		// its rendezvous ack releases immediately so the sender cannot
		// wedge. A cleanly-finished peer gets the same treatment — it
		// will never receive again.
		p.mu.Unlock()
		if matched != nil {
			close(matched)
		}
		return nil
	}
	p.sendq = append(p.sendq, e)
	if matched != nil {
		p.pending[e.Seq] = matched
	}
	p.mu.Unlock()
	wake(p.notify)
	return nil
}

// Probe reports whether rank r is believed alive. Cleanly-finished
// peers are alive: finishing the SPMD body is not a failure.
func (t *Transport) Probe(r int) bool {
	if r == t.cfg.Rank {
		return true
	}
	if r < 0 || r >= len(t.peers) || t.peers[r] == nil {
		return false
	}
	p := t.peers[r]
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.dead
}

// CrashNotify announces this rank's own death to every peer, so they
// fail-stop promptly instead of waiting out the liveness timeout. For
// peers with no live link it attempts one direct dial — the dying
// rank's last words. Best-effort: an unreachable peer finds out via
// timeout. After CrashNotify, Close will not send the clean goodbye (a
// crashed rank must never be mistaken for a finished one).
func (t *Transport) CrashNotify(reason string) {
	t.mu.Lock()
	t.crashed = true
	t.mu.Unlock()
	t.sayBye(frame{Kind: kBye, Crashed: true, Reason: reason})
}

// sayBye writes a goodbye on every live peer's link. A crash notice
// also dials a peer whose link is down, with a hello marked as a last
// gasp so the peer never takes that connection for the link.
func (t *Transport) sayBye(f frame) {
	for _, p := range t.peers {
		if p == nil || p.gone() {
			continue
		}
		if sc := p.current(); sc != nil {
			sc.write(f)
		} else if f.Crashed {
			if sc, _, err := t.connect(p, true); err == nil {
				sc.write(f)
				sc.close()
			}
		}
	}
}

// Close drains the outbound queues (bounded by DrainTimeout), says a
// clean goodbye, and tears the mesh down. A cleanly-closed rank is not
// reported dead to its peers.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	crashed := t.crashed
	if !crashed {
		// Drain: wait until every peer's queue is fully acknowledged
		// (or the peer is gone), so the last messages of a finishing
		// rank are not lost with the sockets. A crashed rank skips
		// this — fail-stop means its unsent messages die with it.
		deadline := time.Now().Add(t.cfg.DrainTimeout)
		timer := time.AfterFunc(t.cfg.DrainTimeout, func() {
			t.mu.Lock()
			t.drained.Broadcast()
			t.mu.Unlock()
		})
		for !t.drainedLocked() && time.Now().Before(deadline) {
			t.drained.Wait()
		}
		timer.Stop()
	}
	t.closed = true
	t.mu.Unlock()

	if !crashed {
		t.sayBye(frame{Kind: kBye})
	}
	close(t.done)
	t.ln.Close()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		sc := p.link
		p.releaseLocked()
		p.mu.Unlock()
		if sc != nil {
			sc.close()
		}
		wake(p.notify)
	}
	t.wg.Wait()
	return nil
}

// drainedLocked reports whether every live peer's queue is empty and
// every rendezvous acknowledged. Caller holds t.mu.
func (t *Transport) drainedLocked() bool {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		ok := p.dead || p.finished || (len(p.sendq) == 0 && len(p.pending) == 0)
		p.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// checkDrained wakes a Close blocked in drain.
func (t *Transport) checkDrained() {
	t.mu.Lock()
	t.drained.Broadcast()
	t.mu.Unlock()
}

// retire stops all effort toward p: its queue is dropped and every
// pending rendezvous releases, since p will never match it. A dead
// peer — crash notice or liveness timeout — fires the runtime's
// dead-rank machinery; a finished one (clean goodbye) does not, as a
// finished rank is not a failed rank.
func (t *Transport) retire(p *peer, dead bool, reason string) {
	p.mu.Lock()
	if p.dead || p.finished && !dead {
		p.mu.Unlock()
		return
	}
	p.dead, p.finished = dead, !dead
	p.sendq, p.unsent = nil, 0
	p.releaseLocked()
	sc := p.link
	p.mu.Unlock()
	if sc != nil {
		sc.close()
	}
	wake(p.notify)
	t.checkDrained()
	if dead {
		t.sink.PeerDead(p.rank, reason)
	}
}

// monitor is the failure detector: a peer that has been completely
// silent — no data, acks or heartbeats — for longer than the liveness
// timeout is declared dead.
func (t *Transport) monitor() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, p := range t.peers {
			if p == nil || p.gone() {
				continue
			}
			if silent := now.Sub(time.Unix(0, p.lastHeard.Load())); silent > t.cfg.Liveness {
				t.retire(p, true, fmt.Sprintf("liveness timeout: silent for %v", silent.Round(time.Millisecond)))
			}
		}
	}
}

// resolve finds rank r's address in the registry.
func (t *Transport) resolve(r int) (string, error) {
	return waitAddr(t.cfg.RegistryDir, r, t.cfg.Epoch, time.Now().Add(t.cfg.RendezvousTimeout), t.done)
}

// dialLoop keeps the link to a higher-ranked peer up: dial, handshake,
// serve; on any connection error, redial with capped jittered backoff.
// It exits when the peer is dead or finished or the transport closes.
func (t *Transport) dialLoop(p *peer) {
	defer t.wg.Done()
	bo := backoff.Policy{Base: 25 * time.Millisecond, Cap: time.Second, MaxDoublings: backoff.DefaultMaxDoublings, Jitter: 0.25}
	rng := rand.New(rand.NewSource(int64(t.cfg.Rank)<<32 ^ int64(p.rank) ^ time.Now().UnixNano()))
	attempt := 0
	for !t.stopping() && !p.gone() {
		sc, horizon, err := t.connect(p, false)
		if err != nil {
			if !bo.Sleep(attempt, rng, t.done) {
				return
			}
			attempt++
			continue
		}
		attempt = 0
		t.serve(p, sc, horizon)
	}
}

// connect dials the peer and performs the handshake: the hello carries
// this rank's delivered horizon for the peer, the welcome the peer's
// for this rank, which connect returns. lastGasp marks the hello of a
// connection that only carries a crash bye.
func (t *Transport) connect(p *peer, lastGasp bool) (*safeConn, uint64, error) {
	addr, err := t.resolve(p.rank)
	if err != nil {
		return nil, 0, err
	}
	c, err := net.DialTimeout(t.cfg.Network, addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, 0, err
	}
	sc := newSafeConn(c, t.cfg.MaxFrame, t.cfg.Liveness)
	hello := frame{Kind: kHello, Src: t.cfg.Rank, Dst: p.rank, Size: t.cfg.Size, Epoch: t.cfg.Epoch, Seq: p.delivered(), Crashed: lastGasp}
	var w frame
	if err = sc.write(hello); err == nil {
		w, err = sc.readWithin(t.cfg.DialTimeout)
	}
	if err == nil && (w.Kind != kWelcome || w.Epoch != t.cfg.Epoch) {
		err = fmt.Errorf("nettrans: bad welcome from rank %d", p.rank)
	}
	if err != nil {
		sc.close()
		return nil, 0, err
	}
	return sc, w.Seq, nil
}

// acceptLoop admits inbound connections from peers.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.accept(c)
	}
}

// accept validates one inbound connection's hello, welcomes the peer
// with this rank's delivered horizon for it, and serves the link. A
// hello marked as CrashNotify's last gasp, from a peer of either rank,
// is taken without touching the link: its bye is read and the peer
// retired. Installed as the link, it could be replaced by the dying
// peer's own redial before the bye was read.
func (t *Transport) accept(c net.Conn) {
	defer t.wg.Done()
	sc := newSafeConn(c, t.cfg.MaxFrame, t.cfg.Liveness)
	hello, err := sc.readWithin(t.cfg.DialTimeout)
	if err == nil {
		err = checkHello(hello, t.cfg.Rank, t.cfg.Size, t.cfg.Epoch)
	}
	if err != nil {
		sc.close()
		return
	}
	p := t.peers[hello.Src]
	p.heard()
	if sc.write(frame{Kind: kWelcome, Epoch: t.cfg.Epoch, Seq: p.delivered()}) != nil {
		sc.close()
		return
	}
	if !hello.Crashed {
		t.serve(p, sc, hello.Seq)
		return
	}
	if f, err := sc.readWithin(t.cfg.DialTimeout); err == nil && f.Kind == kBye {
		t.retire(p, f.Crashed, "peer crashed: "+f.Reason)
	}
	sc.close()
}

// serve owns one handshaken link to p until it fails, is replaced or
// the transport closes. The link replaces any previous one; the queue
// is pruned to the peer's delivered horizon and everything past it is
// resent. A reader goroutine handles every inbound frame; this
// goroutine is the link's only writer: owed acks and match-acks, the
// queue, and heartbeats while idle. The reader never writes, so two
// writers blocked on full socket buffers cannot stall each other's
// readers.
func (t *Transport) serve(p *peer, sc *safeConn, horizon uint64) {
	p.mu.Lock()
	if p.dead || p.finished || t.stopping() {
		p.mu.Unlock()
		sc.close()
		return
	}
	old := p.link
	p.link = sc
	p.pruneLocked(horizon)
	p.unsent = 0
	p.mu.Unlock()
	if old != nil {
		old.close()
	}
	t.checkDrained()

	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for t.receive(p, sc) {
		}
	}()
	defer func() {
		p.clearLink(sc)
		sc.close()
		<-readDone
	}()
	hb := time.NewTicker(t.cfg.Heartbeat)
	defer hb.Stop()
	for {
		for f, ok := p.next(sc); ok; f, ok = p.next(sc) {
			if sc.write(f) != nil {
				if f.Kind == kMatchAck {
					p.oweMack(f.Seq)
				}
				return
			}
		}
		select {
		case <-t.done:
			return
		case <-readDone:
			return
		case <-p.notify:
		case <-hb.C:
			if sc.write(frame{Kind: kHeartbeat}) != nil {
				return
			}
		}
	}
}

// receive reads and handles one frame from p's link. It returns false
// when the link is over.
func (t *Transport) receive(p *peer, sc *safeConn) bool {
	f, err := sc.read()
	if err != nil {
		return false
	}
	p.heard()
	switch f.Kind {
	case kData:
		// rx orders delivery: a replaced link's reader may still be
		// running beside its successor's.
		p.rx.Lock()
		p.mu.Lock()
		fresh := f.Seq > p.lastDelivered
		if fresh {
			p.lastDelivered = f.Seq
		}
		// A cumulative ack is owed for duplicates too, in case the
		// original was lost with a connection.
		p.ackOwed = true
		p.mu.Unlock()
		if fresh {
			var matched func()
			if f.Sync {
				matched = func() { p.oweMack(f.Seq) }
			}
			t.sink.Deliver(par.Envelope{Src: f.Src, Dst: f.Dst, Tag: f.Tag, Seq: f.Seq, Data: f.Data, Sync: f.Sync}, matched)
		}
		p.rx.Unlock()
		wake(p.notify)
	case kAck:
		p.mu.Lock()
		p.pruneLocked(f.Seq)
		p.mu.Unlock()
		t.checkDrained()
	case kMatchAck:
		p.mu.Lock()
		if ch, ok := p.pending[f.Seq]; ok {
			delete(p.pending, f.Seq)
			close(ch)
		}
		p.mu.Unlock()
		t.checkDrained()
	case kBye:
		t.retire(p, f.Crashed, "peer crashed: "+f.Reason)
		return false
	}
	return true
}

// wake signals a capacity-1 notification channel without blocking.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// writeFrame/readFrame put protocol frames inside the wire package's
// length + CRC32C envelope — the identical bytes the in-process
// reliable link frames and corrupts in simulation.
func writeFrame(c net.Conn, f frame) error {
	return wire.WriteFrame(c, encodeFrame(f))
}

func readFrame(c net.Conn, maxLen int) (frame, error) {
	p, err := wire.ReadFrame(c, maxLen)
	if err != nil {
		return frame{}, err
	}
	return decodeFrame(p)
}
