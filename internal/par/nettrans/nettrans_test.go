package nettrans

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{Kind: kHello, Src: 3, Dst: 0, Size: 8, Epoch: 42, Seq: 11},
		{Kind: kHello, Src: 0, Dst: 3, Size: 8, Epoch: 42, Seq: 11, Crashed: true},
		{Kind: kWelcome, Epoch: 42, Seq: 17},
		{Kind: kData, Src: 1, Dst: 2, Tag: -12, Seq: 99, Sync: true, Data: []byte("payload")},
		{Kind: kData, Src: 0, Dst: 1, Tag: 7, Seq: 1, Data: nil},
		{Kind: kAck, Seq: 5},
		{Kind: kMatchAck, Seq: 6},
		{Kind: kHeartbeat},
		{Kind: kBye, Crashed: true, Reason: "test crash"},
		{Kind: kBye},
	}
	for _, f := range frames {
		got, err := decodeFrame(encodeFrame(f))
		if err != nil {
			t.Fatalf("decode(%+v): %v", f, err)
		}
		if got.Kind != f.Kind || got.Src != f.Src || got.Dst != f.Dst || got.Size != f.Size ||
			got.Epoch != f.Epoch || got.Seq != f.Seq || got.Tag != f.Tag || got.Sync != f.Sync ||
			got.Crashed != f.Crashed || got.Reason != f.Reason || !bytes.Equal(got.Data, f.Data) {
			t.Fatalf("round trip: got %+v, want %+v", got, f)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},           // unknown kind
		{99},          // unknown kind
		{kHello},      // truncated hello
		{kData, 2, 4}, // truncated data
		append(encodeFrame(frame{Kind: kHeartbeat}), 0xff), // trailing bytes
		{kAck, 0x80}, // truncated uvarint
		{kBye, 2},    // invalid bool
	}
	for i, p := range cases {
		if _, err := decodeFrame(p); err == nil {
			t.Errorf("case %d (% x): decode accepted malformed frame", i, p)
		}
	}
}

func TestCheckHello(t *testing.T) {
	good := frame{Kind: kHello, Src: 1, Dst: 0, Size: 4, Epoch: 9}
	if err := checkHello(good, 0, 4, 9); err != nil {
		t.Fatalf("good hello rejected: %v", err)
	}
	bad := []frame{
		{Kind: kData, Src: 1, Dst: 0, Size: 4, Epoch: 9},  // wrong kind
		{Kind: kHello, Src: 1, Dst: 2, Size: 4, Epoch: 9}, // wrong destination
		{Kind: kHello, Src: 1, Dst: 0, Size: 5, Epoch: 9}, // wrong world size
		{Kind: kHello, Src: 0, Dst: 0, Size: 4, Epoch: 9}, // self-dial
		{Kind: kHello, Src: 9, Dst: 0, Size: 4, Epoch: 9}, // rank out of range
		{Kind: kHello, Src: 1, Dst: 0, Size: 4, Epoch: 8}, // stale epoch
	}
	for i, f := range bad {
		if err := checkHello(f, 0, 4, 9); err == nil {
			t.Errorf("case %d: bad hello %+v accepted", i, f)
		}
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, ok, err := readAddr(dir, 0); err != nil || ok {
		t.Fatalf("unpublished rank: ok=%v err=%v", ok, err)
	}
	if err := publishAddr(dir, 0, "tcp", "127.0.0.1:9999", 3); err != nil {
		t.Fatal(err)
	}
	net, addr, epoch, ok, err := readAddr(dir, 0)
	if err != nil || !ok || net != "tcp" || addr != "127.0.0.1:9999" || epoch != 3 {
		t.Fatalf("readAddr: %q %q %d ok=%v err=%v", net, addr, epoch, ok, err)
	}
	// Re-publish (a recovered incarnation) overwrites atomically.
	if err := publishAddr(dir, 0, "tcp", "127.0.0.1:8888", 4); err != nil {
		t.Fatal(err)
	}
	got, err := waitAddr(dir, 0, 4, time.Now().Add(time.Second), nil)
	if err != nil || got != "127.0.0.1:8888" {
		t.Fatalf("waitAddr: %q err=%v", got, err)
	}
	// Waiting for an epoch that never appears times out.
	if _, err := waitAddr(dir, 0, 99, time.Now().Add(50*time.Millisecond), nil); err == nil {
		t.Fatal("waitAddr accepted stale epoch")
	}
}

// world builds n connected transports sharing a registry directory.
func world(t *testing.T, n int, network string) []*Transport {
	t.Helper()
	dir := t.TempDir()
	ts := make([]*Transport, n)
	for r := 0; r < n; r++ {
		tr, err := New(Config{Rank: r, Size: n, Network: network, RegistryDir: dir, Epoch: 1, Liveness: 10 * time.Second})
		if err != nil {
			t.Fatalf("New(rank %d): %v", r, err)
		}
		ts[r] = tr
		t.Cleanup(func() { tr.Close() })
	}
	return ts
}

// runWorld runs one par.RunRank per transport concurrently and
// returns per-rank exits. Each rank closes its transport after its
// body returns, as a real per-process launcher would.
func runWorld(t *testing.T, ts []*Transport, body func(c *par.Comm)) []par.Exit {
	t.Helper()
	n := len(ts)
	exits := make([]par.Exit, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, exits[r] = par.RunRank(par.Config{Ranks: n}, r, ts[r], body)
			ts[r].Close()
		}(r)
	}
	wg.Wait()
	return exits
}

func TestPointToPointTCP(t *testing.T) {
	ts := world(t, 2, "tcp")
	exits := runWorld(t, ts, func(c *par.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("hello from zero"))
			m := c.Recv(1, 6)
			if string(m.Data) != "hello from one" {
				panic("rank 0 got " + string(m.Data))
			}
		} else {
			m := c.Recv(0, 5)
			if string(m.Data) != "hello from zero" {
				panic("rank 1 got " + string(m.Data))
			}
			c.Send(0, 6, []byte("hello from one"))
		}
	})
	for r, e := range exits {
		if !e.OK {
			t.Fatalf("rank %d: %+v", r, e)
		}
	}
}

func TestCollectivesFourRanksUnix(t *testing.T) {
	ts := world(t, 4, "unix")
	exits := runWorld(t, ts, func(c *par.Comm) {
		sum := c.Allreduce(int64(c.Rank()+1), par.Sum)
		if sum != 10 {
			panic(fmt.Sprintf("rank %d: allreduce got %d, want 10", c.Rank(), sum))
		}
		out := make([][]byte, c.Size())
		for i := range out {
			out[i] = []byte{byte(c.Rank()), byte(i)}
		}
		in := c.AlltoallvStaged(out)
		for src, b := range in {
			if len(b) != 2 || b[0] != byte(src) || b[1] != byte(c.Rank()) {
				panic(fmt.Sprintf("rank %d: bad alltoallv cell from %d: %v", c.Rank(), src, b))
			}
		}
	})
	for r, e := range exits {
		if !e.OK {
			t.Fatalf("rank %d: %+v", r, e)
		}
	}
}

func TestReconnectResumesWithoutDuplicates(t *testing.T) {
	ts := world(t, 2, "tcp")
	const n = 200
	exits := runWorld(t, ts, func(c *par.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 1, []byte{byte(i), byte(i >> 8)})
				if i == n/2 {
					// Sever rank 0's end of the link mid-stream; the
					// dialer must reconnect and resume from the last
					// ack without duplicating delivery.
					if nc := linkConn(ts[0], 1); nc != nil {
						nc.Close()
					}
				}
			}
			done := c.Recv(1, 2)
			if string(done.Data) != "ok" {
				panic("receiver failed: " + string(done.Data))
			}
		} else {
			for i := 0; i < n; i++ {
				m := c.Recv(0, 1)
				got := int(m.Data[0]) | int(m.Data[1])<<8
				if got != i {
					c.Send(0, 2, []byte(fmt.Sprintf("message %d arrived as %d", i, got)))
					return
				}
			}
			c.Send(0, 2, []byte("ok"))
		}
	})
	for r, e := range exits {
		if !e.OK {
			t.Fatalf("rank %d: %+v", r, e)
		}
	}
}

// nopSink is a par.Sink that drops what it is handed.
type nopSink struct{}

func (nopSink) Deliver(par.Envelope, func()) {}
func (nopSink) PeerDead(int, string)         {}

// TestCloseDrainIsOneBound: rank 0 has a message queued to each of two
// peers that never start, so neither link drains. Close gives up on
// both at one drain deadline, not one after the other.
func TestCloseDrainIsOneBound(t *testing.T) {
	ts := world(t, 3, "tcp")
	if err := ts[0].Attach(nopSink{}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2} {
		if err := ts[0].Deliver(par.Envelope{Src: 0, Dst: r, Seq: uint64(r), Data: []byte("x")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	ts[0].Close()
	// One deadline, a tick and a dial attempt's timeout at most.
	if took := time.Since(start); took < drainTimeout || took > drainTimeout+heartbeat+dialTimeout+time.Second {
		t.Fatalf("Close took %v, want one drain bound (%v)", took, drainTimeout)
	}
}

func TestCrashNotifyTriggersFailStop(t *testing.T) {
	ts := world(t, 2, "tcp")
	exits := runWorld(t, ts, func(c *par.Comm) {
		if c.Rank() == 1 {
			c.Send(0, 1, []byte("alive"))
			panic("deliberate crash")
		}
		c.Recv(1, 1)
		// The peer now dies; a blocking Recv must cascade instead of
		// hanging, exactly like the in-process dead-rank rule.
		c.Recv(1, 1)
	})
	if exits[0].OK {
		t.Fatal("rank 0 should have cascaded on the dead peer")
	}
	if exits[1].OK {
		t.Fatal("rank 1 should have crashed")
	}
	if ts[0].Probe(1) {
		t.Fatal("rank 0 still believes rank 1 is alive")
	}
}

// linkConn returns the connection tr's link to rank r is installed on,
// or nil while it is down.
func linkConn(tr *Transport, r int) net.Conn {
	p := tr.peers[r]
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.conns[p.link.conn]; c != nil {
		return c.c
	}
	return nil
}

// socketFDs counts this process's open sockets, or -1 where
// /proc/self/fd is not available.
func socketFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, e := range ents {
		if l, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(l, "socket:") {
			n++
		}
	}
	return n
}

func TestMeshHasOneLinkPerPair(t *testing.T) {
	const n = 4
	before := socketFDs()
	ts := world(t, n, "tcp")
	exits := runWorld(t, ts, func(c *par.Comm) {
		// Every pair exchanges data both ways, so every link is up.
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte{byte(c.Rank())}
		}
		c.AlltoallvStaged(out)
		c.Barrier()
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					a, b := linkConn(ts[i], j), linkConn(ts[j], i)
					if a == nil || b == nil {
						panic(fmt.Sprintf("pair %d-%d: link down after an exchange", i, j))
					}
					if a.LocalAddr().String() != b.RemoteAddr().String() || a.RemoteAddr().String() != b.LocalAddr().String() {
						panic(fmt.Sprintf("pair %d-%d: ends of different connections: %v→%v and %v→%v",
							i, j, a.LocalAddr(), a.RemoteAddr(), b.LocalAddr(), b.RemoteAddr()))
					}
					if b.RemoteAddr().String() == ts[i].Addr() {
						panic(fmt.Sprintf("pair %d-%d: rank %d dialed the lower rank", i, j, j))
					}
				}
			}
			// One connection per pair, two ends each, plus a listener
			// per rank: nothing else holds a socket.
			if before >= 0 {
				if got, want := socketFDs()-before, n*(n-1)+n; got != want {
					panic(fmt.Sprintf("%d sockets open, want %d", got, want))
				}
			}
		}
		c.Barrier()
	})
	for r, e := range exits {
		if !e.OK {
			t.Fatalf("rank %d: %+v", r, e)
		}
	}
}

// TestCutFromAcceptorKeepsBothStreamsAndMatchAck severs the link at
// the accepting rank while both ranks stream and rank 0's Ssend waits
// for its match: both streams must arrive FIFO and exactly once over
// the redialed link, and the match-ack must survive the cut.
func TestCutFromAcceptorKeepsBothStreamsAndMatchAck(t *testing.T) {
	ts := world(t, 2, "tcp")
	const n = 200
	// Large enough that the cut catches frames in flight both ways.
	msg := func(i int) []byte {
		b := make([]byte, 16<<10)
		b[0], b[1] = byte(i), byte(i>>8)
		return b
	}
	recvAll := func(c *par.Comm, src, tag, from, to int) {
		for i := from; i < to; i++ {
			m := c.Recv(src, tag)
			if got := int(m.Data[0]) | int(m.Data[1])<<8; got != i {
				panic(fmt.Sprintf("rank %d: message %d from %d arrived as %d", c.Rank(), i, src, got))
			}
		}
	}
	result := make(chan []par.Exit, 1)
	go func() {
		result <- runWorld(t, ts, func(c *par.Comm) {
			if c.Rank() == 0 {
				for i := 0; i < n; i++ {
					c.Send(1, 1, msg(i))
				}
				c.Ssend(1, 3, []byte("sync"))
				for i := n; i < 2*n; i++ {
					c.Send(1, 1, msg(i))
				}
				recvAll(c, 1, 2, 0, 2*n)
			} else {
				// The Ssend, rank 0's next envelope, is most likely
				// delivered by the time this, the accepting, end has
				// streamed n/2 messages and cuts the link; the
				// simulator covers both orders.
				recvAll(c, 0, 1, 0, n)
				for i := 0; i < 2*n; i++ {
					c.Send(0, 2, msg(i))
					if i != n/2 {
						continue
					}
					nc := linkConn(ts[1], 0)
					if nc == nil {
						panic("link down before the cut")
					}
					nc.Close()
					// Match at once: the match-ack is most likely owed
					// while the link is down, else rides the new one.
					if m := c.Recv(0, 3); string(m.Data) != "sync" {
						panic("bad sync payload " + string(m.Data))
					}
				}
				recvAll(c, 0, 1, n, 2*n)
			}
			// A duplicate would queue behind the last message: none may.
			c.Barrier()
			if _, dup := c.Probe(1-c.Rank(), par.AnyTag); dup {
				panic(fmt.Sprintf("rank %d: a message arrived twice", c.Rank()))
			}
		})
	}()
	select {
	case exits := <-result:
		for r, e := range exits {
			if !e.OK {
				t.Fatalf("rank %d: %+v", r, e)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hung: the match-ack or a stream was lost with the cut")
	}
}
