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
	// Liveness is how long a peer may stay completely silent before it
	// is declared dead (default 5s). This — or an explicit crash
	// goodbye — is the only way a peer dies; connection loss alone
	// triggers reconnection, not failure.
	Liveness time.Duration
}

const (
	heartbeat         = 250 * time.Millisecond // tick: idle-link keepalive, liveness and drain checks
	dialTimeout       = 2 * time.Second        // one connection attempt, handshake included
	rendezvousTimeout = 30 * time.Second       // wait for a peer's address in the registry
	drainTimeout      = 5 * time.Second        // Close's wait for in-flight messages to be acknowledged
	maxFrame          = 256 << 20              // so a corrupt length prefix cannot drive an allocation
)

// redial paces the lower rank's dials of a link that is down.
var redial = backoff.Policy{Base: 25 * time.Millisecond, Cap: time.Second, MaxDoublings: backoff.DefaultMaxDoublings, Jitter: 0.25}

// peer is one remote rank: its link core and the connections to it.
type peer struct {
	rank  int
	mu    sync.Mutex
	link  link
	conns map[uint64]*conn // open connections by id
	over  chan struct{}    // closed once the link needs no further effort
}

// conn is one connection. Its writer is the goroutine running serve
// (or CrashNotify's last gasp); kick wakes it.
type conn struct {
	id   uint64
	c    net.Conn
	kick chan struct{}
}

// Transport is the socket implementation of par.Transport. One
// Transport hosts one rank; New binds the listener and publishes the
// address, Attach (called by par.RunRank) starts the mesh.
type Transport struct {
	cfg   Config
	ln    net.Listener
	addr  string
	sink  par.Sink
	peers []*peer // index = rank; nil at our own rank
	ids   atomic.Uint64

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// New binds this rank's listener and publishes its address. The
// transport does not dial or accept until Attach.
func New(cfg Config) (*Transport, error) {
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	if cfg.Liveness <= 0 {
		cfg.Liveness = 5 * time.Second
	}
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
	now := time.Now() // silence is measured from transport start
	for r := 0; r < cfg.Size; r++ {
		if r != cfg.Rank {
			t.peers[r] = &peer{rank: r, link: newLink(cfg.Liveness, now), conns: map[uint64]*conn{}, over: make(chan struct{})}
		}
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
// higher-ranked peer, and the monitor that ticks every link.
func (t *Transport) Attach(sink par.Sink) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("nettrans: transport closed")
	}
	if t.sink != nil {
		t.mu.Unlock()
		return errors.New("nettrans: already attached")
	}
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

// step runs one core event under p's lock and carries out its effects:
// deliveries in order (still under the lock, so a successor link's
// deliveries cannot overtake them), releases, closes, and a wake for
// the link's writer. A death is reported after the lock is released.
func (t *Transport) step(p *peer, event func(*link) effects) effects {
	p.mu.Lock()
	fx := event(&p.link)
	for _, e := range fx.deliver {
		var matched func()
		if e.Sync {
			seq := e.Seq
			matched = func() { t.step(p, func(l *link) effects { return l.matched(seq) }) }
		}
		t.sink.Deliver(e, matched)
	}
	for _, ch := range fx.release {
		close(ch)
	}
	for _, id := range fx.drop {
		if c := p.conns[id]; c != nil {
			c.c.Close()
		}
	}
	if c := p.conns[p.link.conn]; c != nil {
		select {
		case c.kick <- struct{}{}: // wake the link's writer
		default:
		}
	}
	select {
	case <-p.over:
	default:
		if p.link.over() {
			close(p.over)
		}
	}
	p.mu.Unlock()
	if fx.dead != "" {
		t.sink.PeerDead(p.rank, fx.dead)
	}
	return fx
}

// Deliver queues e for its destination; the link's writer ships it.
// It never blocks on the network.
func (t *Transport) Deliver(e par.Envelope, matched chan struct{}) error {
	if e.Dst < 0 || e.Dst >= len(t.peers) || t.peers[e.Dst] == nil {
		return fmt.Errorf("nettrans: deliver to invalid rank %d", e.Dst)
	}
	select {
	case <-t.done:
		return errors.New("nettrans: transport closed")
	default:
	}
	t.step(t.peers[e.Dst], func(l *link) effects { return l.send(e, matched) })
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
	return !p.link.dead
}

// CrashNotify announces this rank's own death to every peer, so they
// fail-stop promptly instead of waiting out the liveness timeout: a
// crash bye on each link, and one direct dial to a peer whose link is
// down — the dying rank's last words. Best-effort: an unreachable peer
// finds out via timeout. Each link's writer writes its bye; Close,
// which waits for the writers, then neither drains nor says a clean
// goodbye (a crashed rank must never be mistaken for a finished one).
func (t *Transport) CrashNotify(reason string) {
	for _, p := range t.peers {
		if p != nil && t.step(p, func(l *link) effects { return l.crash(reason) }).gasp {
			if c, _, err := t.connect(p, true); err == nil {
				c.SetWriteDeadline(time.Now().Add(t.cfg.Liveness))
				writeFrame(c, frame{Kind: kBye, Crashed: true, Reason: reason})
				c.Close()
			}
		}
	}
}

// Close drains the outbound queues (bounded by the drain timeout),
// says a clean goodbye, and tears the mesh down. A cleanly-closed rank
// is not reported dead to its peers.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	attached := t.sink != nil
	t.mu.Unlock()

	for _, p := range t.peers {
		if p != nil {
			t.step(p, func(l *link) effects { return l.close(time.Now()) })
		}
	}
	for _, p := range t.peers {
		if p != nil && attached { // the monitor's ticks end the drain
			<-p.over
		}
	}
	close(t.done)
	t.ln.Close()
	t.wg.Wait()
	return nil
}

// monitor ticks every link once per heartbeat interval.
func (t *Transport) monitor() {
	defer t.wg.Done()
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case now := <-tick.C:
			for _, p := range t.peers {
				if p != nil {
					t.step(p, func(l *link) effects { return l.tick(now) })
				}
			}
		}
	}
}

// dialLoop keeps the link to a higher-ranked peer up: dial, handshake,
// serve; on any connection error, redial with capped jittered backoff.
// It exits when the link is over, as every link is before Close ends.
func (t *Transport) dialLoop(p *peer) {
	defer t.wg.Done()
	rng := rand.New(rand.NewSource(int64(t.cfg.Rank)<<32 ^ int64(p.rank) ^ time.Now().UnixNano()))
	for attempt := 0; ; {
		select {
		case <-p.over:
			return
		default:
		}
		c, horizon, err := t.connect(p, false)
		if err != nil {
			if !redial.Sleep(attempt, rng, t.done) {
				return
			}
			attempt++
			continue
		}
		attempt = 0
		t.serve(p, c, func(l *link, id uint64) (frame, effects) { return frame{}, l.install(id, horizon, time.Now()) })
	}
}

// connect dials the peer and performs the handshake: the hello carries
// this rank's delivered horizon for the peer, the welcome the peer's
// for this rank, which connect returns. lastGasp marks the hello of a
// connection that only carries a crash bye.
func (t *Transport) connect(p *peer, lastGasp bool) (net.Conn, uint64, error) {
	addr, err := waitAddr(t.cfg.RegistryDir, p.rank, t.cfg.Epoch, time.Now().Add(rendezvousTimeout), t.done)
	if err != nil {
		return nil, 0, err
	}
	c, err := net.DialTimeout(t.cfg.Network, addr, dialTimeout)
	if err != nil {
		return nil, 0, err
	}
	p.mu.Lock()
	hello := p.link.hello(lastGasp)
	p.mu.Unlock()
	hello.Src, hello.Dst, hello.Size, hello.Epoch = t.cfg.Rank, p.rank, t.cfg.Size, t.cfg.Epoch
	c.SetDeadline(time.Now().Add(dialTimeout))
	var w frame
	if err = writeFrame(c, hello); err == nil {
		w, err = readFrame(c)
	}
	if err == nil && (w.Kind != kWelcome || w.Epoch != t.cfg.Epoch) {
		err = fmt.Errorf("nettrans: bad welcome from rank %d", p.rank)
	}
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	c.SetDeadline(time.Time{})
	return c, w.Seq, nil
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

// accept validates one inbound connection's hello and serves it: the
// core welcomes it with this rank's delivered horizon, and installs it
// as the link unless it is a last gasp.
func (t *Transport) accept(c net.Conn) {
	defer t.wg.Done()
	c.SetReadDeadline(time.Now().Add(dialTimeout))
	hello, err := readFrame(c)
	if err == nil {
		err = checkHello(hello, t.cfg.Rank, t.cfg.Size, t.cfg.Epoch)
	}
	if err != nil {
		c.Close()
		return
	}
	if !hello.Crashed { // a last gasp's bye follows within the handshake's deadline
		c.SetReadDeadline(time.Time{})
	}
	t.serve(t.peers[hello.Src], c, func(l *link, id uint64) (frame, effects) { return l.accept(id, hello, time.Now()) })
}

// serve runs one handshaken connection to p until it ends. open is the
// core event that takes the connection, installing it or accepting its
// hello; a reply it returns is the first frame written. A reader
// goroutine hands every inbound frame to the core; this goroutine is
// the connection's only writer and writes what the core pulls for it.
// The reader never writes, so two writers blocked on full socket
// buffers cannot stall each other's readers.
func (t *Transport) serve(p *peer, nc net.Conn, open func(*link, uint64) (frame, effects)) {
	c := &conn{id: t.ids.Add(1), c: nc, kick: make(chan struct{}, 1)}
	var reply frame
	t.step(p, func(l *link) (fx effects) {
		p.conns[c.id] = c
		reply, fx = open(l, c.id)
		return fx
	})
	if reply.Kind != 0 {
		reply.Epoch = t.cfg.Epoch
		nc.SetWriteDeadline(time.Now().Add(t.cfg.Liveness))
		if writeFrame(nc, reply) != nil {
			nc.Close()
		}
	}

	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			f, err := readFrame(nc)
			if err != nil {
				return
			}
			t.step(p, func(l *link) effects { return l.receive(c.id, f, time.Now()) })
			if f.Kind == kBye { // the last frame on a connection
				return
			}
		}
	}()
	defer func() {
		nc.Close()
		<-readDone
		t.step(p, func(l *link) effects {
			delete(p.conns, c.id)
			return l.down(c.id)
		})
	}()
	for {
		p.mu.Lock()
		f, ok := p.link.pull(c.id)
		p.mu.Unlock()
		if !ok {
			select {
			case <-c.kick:
				continue
			case <-readDone:
				return
			}
		}
		nc.SetWriteDeadline(time.Now().Add(t.cfg.Liveness))
		if writeFrame(nc, f) != nil || f.Kind == kBye {
			return
		}
	}
}

// writeFrame/readFrame put protocol frames inside the wire package's
// length + CRC32C envelope — the identical bytes the in-process
// reliable link frames and corrupts in simulation.
func writeFrame(c net.Conn, f frame) error {
	return wire.WriteFrame(c, encodeFrame(f))
}

func readFrame(c net.Conn) (frame, error) {
	p, err := wire.ReadFrame(c, maxFrame)
	if err != nil {
		return frame{}, err
	}
	return decodeFrame(p)
}
