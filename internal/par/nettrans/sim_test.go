package nettrans

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
)

// The link simulator runs 2–6 ranks' link cores over an in-memory
// network on a modeled clock, as the transport's loops would run them
// over sockets. A case is a script of steps; each step is an op byte
// and an argument that picks among what that op can do right now
// (a step with nothing to do is a no-op), so any prefix or subsequence
// of a script is itself a case and a failing one shrinks by dropping
// steps. After the script the network heals and the machine settles;
// then the end oracles run.

// Step ops.
const (
	opDeliver = iota // the next frame (or end of stream) on one direction of a connection
	opSend           // an eager send
	opSsend          // a rendezvous send
	opMatch          // a local receive matches a delivered rendezvous send
	opDial           // a dialer whose backoff has run out dials
	opTick           // the clock moves one heartbeat; every link ticks
	opCut            // a connection dies, losing what is in flight both ways
	opCrash          // a rank crashes; arg picks whether its notices are delivered or lost
	opClose          // a rank closes cleanly
	opWrite          // a link's writer writes up to four frames it pulls
	numOps
)

var opWeights = [numOps]int{opDeliver: 24, opSend: 4, opSsend: 3, opMatch: 3, opDial: 5, opTick: 4, opCut: 2, opCrash: 1, opClose: 1, opWrite: 12}

type step struct{ op, arg byte }

// simCase is one replayable case: the world size and the script.
type simCase struct {
	ranks int
	steps []step
}

func (c simCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ranks=%d steps=%d:", c.ranks, len(c.steps))
	for _, s := range c.steps {
		fmt.Fprintf(&b, " %d/%d", s.op, s.arg)
	}
	return b.String()
}

// genCase draws a case from a seed.
func genCase(seed int64) simCase {
	rng := rand.New(rand.NewSource(seed))
	c := simCase{ranks: 2 + rng.Intn(5)}
	total := 0
	for _, w := range opWeights {
		total += w
	}
	for n := 40 + rng.Intn(160); n > 0; n-- {
		x, op := rng.Intn(total), 0
		for x >= opWeights[op] {
			x -= opWeights[op]
			op++
		}
		c.steps = append(c.steps, step{byte(op), byte(rng.Intn(256))})
	}
	return c
}

// script encodes a case as FuzzLinkStep input: a world-size byte, then
// (op, arg) byte pairs.
func (c simCase) script() []byte {
	b := []byte{byte(c.ranks - 2)}
	for _, s := range c.steps {
		b = append(b, s.op, s.arg)
	}
	return b
}

func caseOfScript(b []byte) simCase {
	c := simCase{ranks: 2 + int(b[0])%5}
	for i := 1; i+1 < len(b); i += 2 {
		c.steps = append(c.steps, step{b[i] % numOps, b[i+1]})
	}
	return c
}

// Rank lifecycle in the simulator.
const (
	alive = iota
	closing
	closed
	crashed
)

type simRank struct {
	links     []*link // index = peer rank; nil at its own
	state     int
	closeAt   time.Time
	seq       uint64
	unmatched []par.Envelope // delivered rendezvous sends not yet matched
	dialing   []uint64       // per higher peer: the connection its dial loop serves
	attempt   []int          // per higher peer: failed dials since the last handshake
	nextDial  []time.Time
}

// simConn is one connection: side 0 dialed, side 1 accepted. q[s] holds
// the frames side s wrote that the other side has not read; eof[s]
// means the stream from s ends after them; gone[s] that side s closed
// its end.
type simConn struct {
	id        uint64
	rank      [2]int
	gasp      bool
	q         [2][]frame
	eof       [2]bool
	gone      [2]bool
	handshook [2]bool
}

// sent is one message as its sender queued it.
type sent struct {
	e        par.Envelope
	matched  chan struct{}
	released int
}

type sim struct {
	now    time.Time
	ranks  []*simRank
	conns  []*simConn  // index = id − 1
	msgs   [][][]*sent // [src][dst], in send order
	got    [][]int     // [src][dst]: messages delivered so far
	byChan map[chan struct{}]*sent
	// told[x][y]: y read a bye from x, or its own close discarded one
	// unread; a network fault losing it does not count.
	told    [][]bool
	deaths  [][]string // [r][p]: why r reported p dead, if it did
	failure string
}

const simLiveness = 5 * time.Second

func newSim(n int) *sim {
	s := &sim{now: time.Unix(1e9, 0), byChan: map[chan struct{}]*sent{}}
	for r := 0; r < n; r++ {
		rk := &simRank{links: make([]*link, n), dialing: make([]uint64, n), attempt: make([]int, n), nextDial: make([]time.Time, n)}
		for p := range rk.links {
			if p != r {
				l := newLink(simLiveness, s.now)
				rk.links[p] = &l
			}
		}
		s.ranks = append(s.ranks, rk)
		s.msgs = append(s.msgs, make([][]*sent, n))
		s.got = append(s.got, make([]int, n))
		s.told = append(s.told, make([]bool, n))
		s.deaths = append(s.deaths, make([]string, n))
	}
	return s
}

func (s *sim) fail(format string, args ...any) {
	if s.failure == "" {
		s.failure = fmt.Sprintf(format, args...)
	}
}

// up reports whether rank r's process is still running.
func (s *sim) up(r int) bool { st := s.ranks[r].state; return st == alive || st == closing }

// apply carries out the effects of an event on rank r's link to p.
func (s *sim) apply(r, p int, fx effects) {
	for _, e := range fx.deliver {
		i := s.got[p][r]
		if i >= len(s.msgs[p][r]) || s.msgs[p][r][i].e.Seq != e.Seq || !bytes.Equal(s.msgs[p][r][i].e.Data, e.Data) {
			s.fail("rank %d delivered seq %d from %d out of order or twice (%d of %d delivered)", r, e.Seq, p, i, len(s.msgs[p][r]))
			continue
		}
		s.got[p][r]++
		if e.Sync {
			s.ranks[r].unmatched = append(s.ranks[r].unmatched, e)
		}
	}
	for _, ch := range fx.release {
		m := s.byChan[ch]
		if m.released++; m.released > 1 {
			s.fail("rendezvous send %d→%d seq %d released twice", m.e.Src, m.e.Dst, m.e.Seq)
		}
	}
	for _, id := range fx.drop {
		c := s.conns[id-1]
		s.closeEnd(c, c.side(r))
	}
	if fx.dead != "" {
		s.deaths[r][p] = fx.dead
		switch {
		case strings.HasPrefix(fx.dead, "peer crashed") && s.ranks[p].state != crashed:
			s.fail("rank %d reported rank %d crashed, which did not crash", r, p)
		case strings.HasPrefix(fx.dead, "liveness") && s.told[p][r]:
			s.fail("rank %d had rank %d's bye and waited out the liveness timeout", r, p)
		}
	}
	if fx.gasp {
		c := s.dial(r, p, true)
		s.write(c, 0, frame{Kind: kBye, Crashed: true, Reason: "sim"})
		s.closeEnd(c, 0)
	}
}

func (c *simConn) side(r int) int {
	if c.rank[0] == r {
		return 0
	}
	return 1
}

// write puts f on the stream from side x; a broken stream loses it.
func (s *sim) write(c *simConn, x int, f frame) {
	switch {
	case c.eof[x] || c.gone[x]:
	case c.gone[1-x]:
		s.discard(c, x, []frame{f})
	default:
		c.q[x] = append(c.q[x], f)
	}
}

// discard notes byes the reader's own close swallowed.
func (s *sim) discard(c *simConn, from int, fs []frame) {
	for _, f := range fs {
		if f.Kind == kBye {
			s.told[c.rank[from]][c.rank[1-from]] = true
		}
	}
}

// closeEnd closes side x's end: what x has not read is lost, and the
// other side reads x's stream to its end.
func (s *sim) closeEnd(c *simConn, x int) {
	if c.gone[x] {
		return
	}
	c.gone[x], c.eof[x] = true, true
	s.discard(c, 1-x, c.q[1-x])
	c.q[1-x] = nil
	if x == 0 && !c.gasp {
		s.dialEnded(c)
	}
}

// dialEnded frees the dialer's loop: it redials at once after a link
// it served, after a backoff after a failed handshake.
func (s *sim) dialEnded(c *simConn) {
	a, b := c.rank[0], c.rank[1]
	rk := s.ranks[a]
	if rk.dialing[b] != c.id {
		return
	}
	rk.dialing[b] = 0
	if c.handshook[0] {
		rk.attempt[b], rk.nextDial[b] = 0, s.now
		return
	}
	rk.nextDial[b] = s.now.Add(redial.Delay(rk.attempt[b], nil))
	rk.attempt[b]++
}

// dial opens a connection from r to p and writes its hello.
func (s *sim) dial(r, p int, gasp bool) *simConn {
	c := &simConn{id: uint64(len(s.conns) + 1), rank: [2]int{r, p}, gasp: gasp}
	s.conns = append(s.conns, c)
	h := s.ranks[r].links[p].hello(gasp)
	h.Src, h.Dst, h.Size, h.Epoch = r, p, len(s.ranks), 1
	s.write(c, 0, h)
	if !s.up(p) {
		s.closeEnd(c, 1) // refused: nobody listens
	}
	return c
}

// writers lists (rank, peer) pairs whose link is up.
func (s *sim) writers() [][2]int {
	var out [][2]int
	for r, rk := range s.ranks {
		for p, l := range rk.links {
			if s.up(r) && l != nil && l.conn != 0 {
				out = append(out, [2]int{r, p})
			}
		}
	}
	return out
}

// writeFrom has rank r's writer for its link to p write up to n frames
// the link pulls (all of them when n < 0).
func (s *sim) writeFrom(r, p, n int) {
	l := s.ranks[r].links[p]
	c := s.conns[l.conn-1]
	x := c.side(r)
	for ; n != 0; n-- {
		f, ok := l.pull(c.id)
		if !ok {
			return
		}
		s.write(c, x, f)
		if f.Kind == kBye {
			s.closeEnd(c, x)
		}
	}
}

// flush lets every writer write all its link pulls for it.
func (s *sim) flush() {
	for _, w := range s.writers() {
		s.writeFrom(w[0], w[1], -1)
	}
}

// readable lists (connection, reading side) pairs with something to read.
func (s *sim) readable() [][2]int {
	var out [][2]int
	for i, c := range s.conns {
		for x := 0; x < 2; x++ {
			if !c.gone[x] && s.up(c.rank[x]) && (len(c.q[1-x]) > 0 || c.eof[1-x]) {
				out = append(out, [2]int{i, x})
			}
		}
	}
	return out
}

// read has side x of connection i read its next frame, or the end.
func (s *sim) read(i, x int) {
	c := s.conns[i]
	r, p := c.rank[x], c.rank[1-x]
	l := s.ranks[r].links[p]
	if len(c.q[1-x]) == 0 {
		s.closeEnd(c, x)
		s.apply(r, p, l.down(c.id))
		return
	}
	f := c.q[1-x][0]
	c.q[1-x] = c.q[1-x][1:]
	s.told[p][r] = s.told[p][r] || f.Kind == kBye
	switch {
	case !c.handshook[x] && x == 1:
		c.handshook[1] = true
		if checkHello(f, r, len(s.ranks), 1) != nil {
			s.fail("bad hello %+v", f)
			return
		}
		w, fx := l.accept(c.id, f, s.now)
		if w.Kind != 0 {
			w.Epoch = 1
			s.write(c, 1, w)
		}
		s.apply(r, p, fx) // a refused connection is among fx.drop
	case !c.handshook[x]:
		c.handshook[0] = true
		if f.Kind != kWelcome {
			s.fail("dialer %d read %d before the welcome", r, f.Kind)
			return
		}
		s.apply(r, p, l.install(c.id, f.Seq, s.now))
	default:
		s.apply(r, p, l.receive(c.id, f, s.now))
		if f.Kind == kBye {
			s.closeEnd(c, x)
		}
	}
}

func (s *sim) send(r, p int, sync bool) {
	rk := s.ranks[r]
	rk.seq++
	m := &sent{e: par.Envelope{Src: r, Dst: p, Tag: 1, Seq: rk.seq, Data: []byte(fmt.Sprintf("%d>%d#%d", r, p, rk.seq)), Sync: sync}}
	if sync {
		m.matched = make(chan struct{})
		s.byChan[m.matched] = m
	}
	s.msgs[r][p] = append(s.msgs[r][p], m)
	s.apply(r, p, rk.links[p].send(m.e, m.matched))
}

func (s *sim) match(r, i int) {
	rk := s.ranks[r]
	e := rk.unmatched[i]
	rk.unmatched = append(rk.unmatched[:i], rk.unmatched[i+1:]...)
	s.apply(r, e.Src, rk.links[e.Src].matched(e.Seq))
}

func (s *sim) tick() {
	s.now = s.now.Add(heartbeat)
	for r, rk := range s.ranks {
		if !s.up(r) {
			continue
		}
		for p, l := range rk.links {
			if l != nil {
				s.apply(r, p, l.tick(s.now))
			}
		}
	}
}

func (s *sim) crash(r int, lose bool) {
	rk := s.ranks[r]
	rk.state = crashed
	for p, l := range rk.links {
		if l != nil {
			s.apply(r, p, l.crash("sim"))
		}
	}
	s.flushRank(r)
	for _, c := range s.conns {
		for x := 0; x < 2; x++ {
			if c.rank[x] == r {
				if lose {
					c.q[x] = nil
				}
				s.closeEnd(c, x)
			}
		}
	}
}

// flushRank writes what rank r's links pull (its byes) before its
// process goes away.
func (s *sim) flushRank(r int) {
	st := s.ranks[r].state
	s.ranks[r].state = closing
	s.flush()
	s.ranks[r].state = st
}

func (s *sim) close(r int) {
	rk := s.ranks[r]
	rk.state, rk.closeAt = closing, s.now
	for p, l := range rk.links {
		if l != nil {
			s.apply(r, p, l.close(s.now))
		}
	}
}

// settleClose ends a closing rank's Close once every link is over.
func (s *sim) settleClose() {
	for r, rk := range s.ranks {
		if rk.state != closing {
			continue
		}
		over := true
		for _, l := range rk.links {
			over = over && (l == nil || l.over())
		}
		if !over {
			if s.now.Sub(rk.closeAt) > drainTimeout+heartbeat {
				s.fail("rank %d's drain outlived the drain bound", r)
			}
			continue
		}
		s.flush()
		rk.state = closed
		for _, c := range s.conns {
			for x := 0; x < 2; x++ {
				if c.rank[x] == r {
					s.closeEnd(c, x)
				}
			}
		}
	}
}

// dials lists (dialer, peer) pairs whose dial loop would dial now.
func (s *sim) dials() [][2]int {
	var out [][2]int
	for r, rk := range s.ranks {
		if !s.up(r) {
			continue
		}
		for p := r + 1; p < len(s.ranks); p++ {
			if rk.dialing[p] == 0 && !rk.links[p].over() && !s.now.Before(rk.nextDial[p]) {
				out = append(out, [2]int{r, p})
			}
		}
	}
	return out
}

func (s *sim) startDial(r, p int) {
	c := s.dial(r, p, false)
	s.ranks[r].dialing[p] = c.id
	if c.gone[1] {
		s.closeEnd(c, 0)
	}
}

// do runs one step.
func (s *sim) do(st step) {
	n := len(s.ranks)
	arg := int(st.arg)
	switch st.op {
	case opDeliver:
		if rd := s.readable(); len(rd) > 0 {
			x := rd[arg%len(rd)]
			s.read(x[0], x[1])
		}
	case opSend, opSsend:
		r, p := arg%n, (arg/n)%(n-1)
		if p >= r {
			p++
		}
		if s.ranks[r].state == alive {
			s.send(r, p, st.op == opSsend)
		}
	case opMatch:
		r := arg % n
		if rk := s.ranks[r]; rk.state == alive && len(rk.unmatched) > 0 {
			s.match(r, (arg/n)%len(rk.unmatched))
		}
	case opDial:
		if d := s.dials(); len(d) > 0 {
			x := d[arg%len(d)]
			s.startDial(x[0], x[1])
		}
	case opTick:
		s.tick()
	case opCut:
		var live []*simConn
		for _, c := range s.conns {
			if !c.eof[0] || !c.eof[1] {
				live = append(live, c)
			}
		}
		if len(live) > 0 {
			c := live[arg%len(live)]
			c.q = [2][]frame{}
			c.eof = [2]bool{true, true}
		}
	case opCrash:
		if r := arg % n; s.ranks[r].state == alive {
			s.crash(r, arg/n%2 == 1)
		}
	case opClose:
		if r := arg % n; s.ranks[r].state == alive {
			s.close(r)
		}
	case opWrite:
		if ws := s.writers(); len(ws) > 0 {
			w := ws[arg%len(ws)]
			s.writeFrom(w[0], w[1], 1+arg/len(ws)%4)
		}
	}
	s.settleClose()
	s.checkLinks()
}

// checkLinks holds after every step: no last gasp is ever installed,
// and where both ends of a pair have a live connection installed, it
// is the same one.
func (s *sim) checkLinks() {
	for r, rk := range s.ranks {
		for p, l := range rk.links {
			if l == nil || l.conn == 0 {
				continue
			}
			c := s.conns[l.conn-1]
			if c.gasp {
				s.fail("rank %d installed a last gasp from %d as the link", r, p)
			}
			if q := s.ranks[p].links[r]; p > r && q.conn != 0 && q.conn != l.conn && !c.eof[0] && !c.eof[1] {
				if o := s.conns[q.conn-1]; !o.eof[0] && !o.eof[1] {
					s.fail("pair %d-%d has two links: %d and %d", r, p, l.conn, q.conn)
				}
			}
		}
	}
}

// settle heals the network and runs the machine until it is quiet:
// every frame is read, every delivered rendezvous matched and every due
// dial made, then the clock ticks — long enough for any drain and
// liveness timeout to run out.
func (s *sim) settle() {
	for end := s.now.Add(2*simLiveness + drainTimeout); s.now.Before(end) && s.failure == ""; {
		for progress := true; progress; {
			progress = false
			for _, x := range s.readable() {
				s.read(x[0], x[1])
				progress = true
			}
			for r, rk := range s.ranks {
				for rk.state == alive && len(rk.unmatched) > 0 {
					s.match(r, 0)
					progress = true
				}
			}
			for _, d := range s.dials() {
				s.startDial(d[0], d[1])
				progress = true
			}
			s.flush()
			s.settleClose()
			s.checkLinks()
		}
		s.tick()
	}
}

// checkEnd runs the end oracles: between ranks still running and still
// linked, everything sent was delivered; every rendezvous send was
// released exactly once; every Close ended.
func (s *sim) checkEnd() {
	for r := range s.ranks {
		for p := range s.ranks {
			if r == p {
				continue
			}
			linked := s.ranks[r].state == alive && s.ranks[p].state == alive &&
				!s.ranks[r].links[p].over() && !s.ranks[p].links[r].over()
			if linked && s.got[r][p] != len(s.msgs[r][p]) {
				s.fail("%d of %d messages %d→%d delivered", s.got[r][p], len(s.msgs[r][p]), r, p)
			}
			for _, m := range s.msgs[r][p] {
				if m.e.Sync && m.released != 1 {
					s.fail("rendezvous send %d→%d seq %d released %d times", r, p, m.e.Seq, m.released)
				}
			}
		}
		if s.ranks[r].state == closing {
			s.fail("rank %d's Close never ended", r)
		}
	}
}

// runCase runs one case and returns the first oracle it broke, or "".
func runCase(c simCase) string {
	s := newSim(c.ranks)
	for _, st := range c.steps {
		if s.do(st); s.failure != "" {
			return s.failure
		}
	}
	s.settle()
	if s.failure == "" {
		s.checkEnd()
	}
	return s.failure
}

// shrink drops steps greedily, pass after pass, while the case still
// fails.
func shrink(c simCase) simCase {
	for n := -1; n != len(c.steps); {
		n = len(c.steps)
		for i := len(c.steps) - 1; i >= 0; i-- {
			d := simCase{ranks: c.ranks, steps: append(append([]step{}, c.steps[:i]...), c.steps[i+1:]...)}
			if runCase(d) != "" {
				c = d
			}
		}
	}
	return c
}

// campaign runs cases seed·10⁶ + 0 … n−1; a failure prints the seed
// and case that replay it, and the shrunk script.
func campaign(tb testing.TB, seed int64, n int) {
	for i := 0; i < n; i++ {
		c := genCase(seed*1e6 + int64(i))
		if msg := runCase(c); msg != "" {
			min := shrink(c)
			tb.Fatalf("seed %d case %d: %s\nshrunk to %s (%s)\nFuzzLinkStep input: %q",
				seed, i, msg, min, runCase(min), min.script())
		}
	}
}

// TestLinkSimCampaign is tier-1's campaign, sized to a second or so.
func TestLinkSimCampaign(t *testing.T) { campaign(t, 1, 500) }

// BenchmarkLinkSimCampaign runs b.N cases of the same campaign: make
// transport-conformance runs 10⁴ of them under the race detector.
func BenchmarkLinkSimCampaign(b *testing.B) { campaign(b, 1, b.N) }

// FuzzLinkStep drives link cores through scripted steps — deliveries,
// sends, matches, dials, ticks, cuts, crashes and clean closes on 2–6
// ranks — holding them to the simulator's oracles after every step and
// once the machine has settled.
func FuzzLinkStep(f *testing.F) {
	f.Add(genCase(0).script())
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		if msg := runCase(caseOfScript(script)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// readAll reads every frame in flight until the network is quiet.
func (s *sim) readAll() {
	for rd := s.readable(); len(rd) > 0; rd = s.readable() {
		s.read(rd[0][0], rd[0][1])
		s.flush()
		s.settleClose()
		s.checkLinks()
	}
}

// linked returns a 2-rank simulator whose link is up.
func linked(t *testing.T) *sim {
	s := newSim(2)
	s.startDial(0, 1)
	s.readAll()
	if c := s.ranks[0].links[1].conn; c == 0 || s.ranks[1].links[0].conn != c {
		t.Fatal("link not up after the handshake")
	}
	return s
}

func (s *sim) check(t *testing.T) {
	t.Helper()
	if s.failure != "" {
		t.Fatal(s.failure)
	}
}

// TestRendezvousSsend: an Ssend delivered to a peer whose receive has
// not matched it stays blocked; the match releases it, once.
func TestRendezvousSsend(t *testing.T) {
	s := linked(t)
	s.send(0, 1, true)
	s.flush()
	s.readAll()
	m := s.msgs[0][1][0]
	if s.got[0][1] != 1 || m.released != 0 {
		t.Fatalf("delivered %d, released %d times before the match", s.got[0][1], m.released)
	}
	s.match(1, 0)
	s.flush()
	s.readAll()
	if s.check(t); m.released != 1 {
		t.Fatalf("released %d times after the match", m.released)
	}
}

// TestLastGaspNeverBecomesTheLink: a last gasp from rank 0 reaches
// rank 1 while rank 1's link is up. Rank 1 keeps its link until the
// crash bye, then reports rank 0 dead at once, not after the liveness
// timeout.
func TestLastGaspNeverBecomesTheLink(t *testing.T) {
	s := linked(t)
	link := s.ranks[1].links[0].conn
	g := s.dial(0, 1, true)
	s.read(int(g.id-1), 1)
	if got := s.ranks[1].links[0].conn; got != link {
		t.Fatalf("the last gasp replaced the link: %d, want %d", got, link)
	}
	s.write(g, 0, frame{Kind: kBye, Crashed: true, Reason: "test crash"})
	s.ranks[0].state = crashed
	s.read(int(g.id-1), 1)
	if s.check(t); !strings.HasPrefix(s.deaths[1][0], "peer crashed") {
		t.Fatalf("rank 0 reported %q, want a crash", s.deaths[1][0])
	}
	if c := s.conns[link-1]; !c.gone[1] {
		t.Fatal("the original link outlived the crash notice")
	}
}

// TestCrashBeforeTheLinkIsUp: rank 0 crashes while its first dial is
// in flight, so its crash notice rides a last gasp racing that dial.
// In either order rank 1 reports the crash from the notice, with no
// time passed.
func TestCrashBeforeTheLinkIsUp(t *testing.T) {
	for _, gaspFirst := range []bool{false, true} {
		s := newSim(2)
		s.startDial(0, 1)
		s.crash(0, false)
		dial, gasp := s.conns[0], s.conns[1]
		if !gasp.gasp {
			t.Fatal("no last gasp dialed")
		}
		first, second := dial, gasp
		if gaspFirst {
			first, second = gasp, dial
		}
		s.read(int(first.id-1), 1)
		s.read(int(second.id-1), 1)
		s.readAll()
		if s.check(t); !strings.HasPrefix(s.deaths[1][0], "peer crashed") {
			t.Fatalf("gasp first %v: rank 1 reported %q, want the crash", gaspFirst, s.deaths[1][0])
		}
	}
}

// TestLivenessTimeoutDetectsSilentPeer: rank 1 never speaks. Rank 0
// declares it dead on the first tick past the liveness timeout, not
// before.
func TestLivenessTimeoutDetectsSilentPeer(t *testing.T) {
	s := newSim(2)
	s.ranks[1].state = crashed // silent: no notice, no frames
	start := s.now
	for s.deaths[0][1] == "" {
		s.tick()
		s.readAll()
	}
	if waited := s.now.Sub(start); waited <= simLiveness || waited > simLiveness+heartbeat {
		t.Fatalf("declared dead after %v, want within one tick past %v", waited, simLiveness)
	}
	if s.check(t); !strings.HasPrefix(s.deaths[0][1], "liveness timeout") {
		t.Fatalf("reason %q", s.deaths[0][1])
	}
}

// TestCleanFinishIsNotDeath: rank 1 sends and closes cleanly. Rank 0
// gets the message and the bye, and never reports rank 1 dead.
func TestCleanFinishIsNotDeath(t *testing.T) {
	s := linked(t)
	s.send(1, 0, false)
	s.close(1)
	s.flush()
	s.settle()
	if s.check(t); s.got[1][0] != 1 || s.deaths[0][1] != "" || !s.ranks[0].links[1].finished {
		t.Fatalf("delivered %d, death %q, finished %v", s.got[1][0], s.deaths[0][1], s.ranks[0].links[1].finished)
	}
}

// TestDrainDeliversTrailingSends: rank 0 queues 50 sends and closes
// before its link is even up. Close drains them, within the drain
// bound, in order.
func TestDrainDeliversTrailingSends(t *testing.T) {
	s := newSim(2)
	for i := 0; i < 50; i++ {
		s.send(0, 1, false)
	}
	s.close(0)
	s.settle()
	if s.check(t); s.got[0][1] != 50 || s.ranks[0].state != closed {
		t.Fatalf("delivered %d of 50, rank 0 state %d", s.got[0][1], s.ranks[0].state)
	}
}
