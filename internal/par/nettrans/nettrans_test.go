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
func world(t *testing.T, n int, network string, tune func(*Config)) []*Transport {
	t.Helper()
	dir := t.TempDir()
	ts := make([]*Transport, n)
	for r := 0; r < n; r++ {
		cfg := Config{
			Rank: r, Size: n, Network: network, RegistryDir: dir, Epoch: 1,
			Heartbeat: 50 * time.Millisecond, Liveness: 10 * time.Second,
			DrainTimeout: 3 * time.Second,
		}
		if tune != nil {
			tune(&cfg)
		}
		tr, err := New(cfg)
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
	ts := world(t, 2, "tcp", nil)
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

func TestRendezvousSsend(t *testing.T) {
	ts := world(t, 2, "tcp", nil)
	var order []string
	var mu sync.Mutex
	note := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	exits := runWorld(t, ts, func(c *par.Comm) {
		if c.Rank() == 0 {
			c.Ssend(1, 3, []byte("sync payload"))
			note("ssend returned")
		} else {
			time.Sleep(200 * time.Millisecond) // let the Ssend arrive unmatched
			note("receiving")
			m := c.Recv(0, 3)
			if string(m.Data) != "sync payload" {
				panic("bad payload")
			}
		}
	})
	for r, e := range exits {
		if !e.OK {
			t.Fatalf("rank %d: %+v", r, e)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "receiving" {
		t.Fatalf("Ssend completed before the receive matched: %v", order)
	}
}

func TestCollectivesFourRanksUnix(t *testing.T) {
	ts := world(t, 4, "unix", nil)
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
	ts := world(t, 2, "tcp", nil)
	const n = 200
	exits := runWorld(t, ts, func(c *par.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 1, []byte{byte(i), byte(i >> 8)})
				if i == n/2 {
					// Sever rank 0's end of the link mid-stream; the
					// dialer must reconnect and resume from the last
					// ack without duplicating delivery.
					if sc := ts[0].peers[1].current(); sc != nil {
						sc.close()
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

func TestCrashNotifyTriggersFailStop(t *testing.T) {
	ts := world(t, 2, "tcp", nil)
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

// deadSink is a par.Sink that only records the ranks reported dead.
type deadSink chan int

func (deadSink) Deliver(par.Envelope, func()) {}

func (s deadSink) PeerDead(r int, _ string) {
	select {
	case s <- r:
	default:
	}
}

// TestLastGaspNeverBecomesTheLink dials rank 1 as rank 0's CrashNotify
// does while rank 0's link is up: a hello marked as a last gasp, then
// a crash bye. Rank 1 must keep its link and report rank 0 dead at
// once, not after the liveness timeout.
func TestLastGaspNeverBecomesTheLink(t *testing.T) {
	ts := world(t, 2, "tcp", nil) // liveness 10 s
	sinks := []deadSink{make(deadSink, 2), make(deadSink, 2)}
	for r, tr := range ts {
		if err := tr.Attach(sinks[r]); err != nil {
			t.Fatal(err)
		}
	}
	p := ts[1].peers[0]
	for p.current() == nil {
		time.Sleep(time.Millisecond)
	}
	link := p.current()

	c, err := net.Dial("tcp", ts[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeFrame(c, frame{Kind: kHello, Src: 0, Dst: 1, Size: 2, Epoch: 1, Crashed: true}); err != nil {
		t.Fatal(err)
	}
	if w, err := readFrame(c, 1<<10); err != nil || w.Kind != kWelcome {
		t.Fatalf("welcome: %+v, %v", w, err)
	}
	if got := p.current(); got != link {
		t.Fatal("the last gasp replaced the link")
	}
	if err := writeFrame(c, frame{Kind: kBye, Crashed: true, Reason: "test crash"}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-sinks[1]:
		if r != 0 {
			t.Fatalf("rank %d reported dead, want 0", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crash notice lost: rank 0 not reported dead")
	}
	// Retiring rank 0 closed the link it found, which was the original.
	if !link.dead.Load() {
		t.Fatal("the original link outlived the crash notice")
	}
	if ts[1].Probe(0) {
		t.Fatal("rank 1 still believes rank 0 is alive")
	}
}

// TestCrashBeforeTheLinkIsUp: rank 0 dies before its link to rank 1
// is up, so its crash notice travels on a last-gasp dial racing its
// own link dial. Rank 1 must learn of it from the notice, well inside
// the 10 s liveness timeout.
func TestCrashBeforeTheLinkIsUp(t *testing.T) {
	for i := 0; i < 10; i++ {
		ts := world(t, 2, "tcp", nil)
		start := time.Now()
		exits := runWorld(t, ts, func(c *par.Comm) {
			if c.Rank() == 0 {
				panic("deliberate crash")
			}
			c.Recv(0, 1)
		})
		if exits[1].OK {
			t.Fatal("rank 1 should have cascaded on the dead peer")
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("run %d: rank 1 took %v to learn of the crash", i, d)
		}
	}
}

func TestLivenessTimeoutDetectsSilentPeer(t *testing.T) {
	// Rank 1 never attaches (its process "hangs" before starting);
	// rank 0 must declare it dead by liveness timeout and cascade out
	// of the blocking Recv rather than hang.
	dir := t.TempDir()
	mk := func(r int) *Transport {
		tr, err := New(Config{
			Rank: r, Size: 2, Network: "tcp", RegistryDir: dir, Epoch: 1,
			Heartbeat: 25 * time.Millisecond, Liveness: 500 * time.Millisecond,
			DrainTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	t0 := mk(0)
	_ = mk(1) // published but never attached: silent forever
	start := time.Now()
	_, exit := par.RunRank(par.Config{Ranks: 2}, 0, t0, func(c *par.Comm) {
		c.Recv(1, 1)
	})
	if exit.OK {
		t.Fatal("rank 0 returned OK despite dead peer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failure detection took %v", elapsed)
	}
}

func TestCleanFinishIsNotDeath(t *testing.T) {
	ts := world(t, 2, "tcp", nil)
	var sawDead bool
	exits := runWorld(t, ts, func(c *par.Comm) {
		if c.Rank() == 1 {
			c.Send(0, 1, []byte("bye"))
			return // finishes early and closes cleanly
		}
		c.Recv(1, 1)
		// Give rank 1 time to close; a clean goodbye must not mark it
		// dead.
		time.Sleep(300 * time.Millisecond)
		sawDead = c.RankDead(1)
	})
	for r, e := range exits {
		if !e.OK {
			t.Fatalf("rank %d: %+v", r, e)
		}
	}
	if sawDead {
		t.Fatal("cleanly-finished rank was reported dead")
	}
}

func TestDrainDeliversTrailingSends(t *testing.T) {
	// A rank that fires off eager sends and immediately closes must
	// not lose them: Close drains until the peer acks.
	ts := world(t, 2, "tcp", nil)
	exits := runWorld(t, ts, func(c *par.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				c.Send(1, 1, []byte{byte(i)})
			}
			return
		}
		time.Sleep(100 * time.Millisecond) // rank 0 is already closing
		for i := 0; i < 50; i++ {
			m := c.Recv(0, 1)
			if m.Data[0] != byte(i) {
				panic(fmt.Sprintf("message %d arrived as %d", i, m.Data[0]))
			}
		}
	})
	for r, e := range exits {
		if !e.OK {
			t.Fatalf("rank %d: %+v", r, e)
		}
	}
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
	ts := world(t, n, "tcp", nil)
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
					a, b := ts[i].peers[j].current(), ts[j].peers[i].current()
					if a == nil || b == nil {
						panic(fmt.Sprintf("pair %d-%d: link down after an exchange", i, j))
					}
					if a.c.LocalAddr().String() != b.c.RemoteAddr().String() || a.c.RemoteAddr().String() != b.c.LocalAddr().String() {
						panic(fmt.Sprintf("pair %d-%d: ends of different connections: %v→%v and %v→%v",
							i, j, a.c.LocalAddr(), a.c.RemoteAddr(), b.c.LocalAddr(), b.c.RemoteAddr()))
					}
					if b.c.RemoteAddr().String() == ts[i].Addr() {
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
	ts := world(t, 2, "tcp", nil)
	const n = 200
	// Large enough that the cut catches frames in flight both ways.
	msg := func(i int) []byte {
		b := make([]byte, 16<<10)
		b[0], b[1] = byte(i), byte(i>>8)
		return b
	}
	recvAll := func(c *par.Comm, src, tag, from, to int) (last uint64) {
		for i := from; i < to; i++ {
			m := c.Recv(src, tag)
			if got := int(m.Data[0]) | int(m.Data[1])<<8; got != i {
				panic(fmt.Sprintf("rank %d: message %d from %d arrived as %d", c.Rank(), i, src, got))
			}
			last = m.Seq
		}
		return last
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
				// Wait until the Ssend, rank 0's next envelope, is
				// delivered; then stream and cut this, the accepting,
				// end mid-stream.
				last := recvAll(c, 0, 1, 0, n)
				p := ts[1].peers[0]
				for p.delivered() <= last {
					time.Sleep(time.Millisecond)
				}
				for i := 0; i < 2*n; i++ {
					c.Send(0, 2, msg(i))
					if i != n/2 {
						continue
					}
					sc := p.current()
					if sc == nil {
						panic("link down before the cut")
					}
					sc.close()
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
