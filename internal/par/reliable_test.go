package par

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRetransmitDelivers: with the reliable link enabled, a lossy
// channel still delivers every eager message intact and in order —
// drops become retransmissions, not losses.
func TestRetransmitDelivers(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultPlan{Seed: 3, Retransmit: true, DropProb: 0.4}
	const msgs = 64
	var stats []Stats
	stats = Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(1, 5, []byte(fmt.Sprintf("m%04d", i)))
			}
			return
		}
		for i := 0; i < msgs; i++ {
			m := c.Recv(0, 5)
			if want := fmt.Sprintf("m%04d", i); string(m.Data) != want {
				t.Fatalf("message %d = %q, want %q", i, m.Data, want)
			}
		}
	})
	if stats[0].Retransmits == 0 {
		t.Error("40% drop rate caused no retransmissions")
	}
	if stats[0].MsgsDropped == 0 {
		t.Error("40% drop rate dropped no frames")
	}
}

// TestCorruptionRecovered: corrupted frames are caught by the CRC32C
// envelope and retransmitted; payloads arrive unmodified.
func TestCorruptionRecovered(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultPlan{Seed: 9, Retransmit: true, CorruptProb: 0.5}
	const msgs = 64
	stats := Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(1, 7, []byte(fmt.Sprintf("payload-%04d", i)))
			}
			return
		}
		for i := 0; i < msgs; i++ {
			m := c.Recv(0, 7)
			if want := fmt.Sprintf("payload-%04d", i); string(m.Data) != want {
				t.Fatalf("message %d corrupted through the checksum layer: %q", i, m.Data)
			}
		}
	})
	if stats[0].FramesCorrupted == 0 {
		t.Error("50% corruption rate injured no frames")
	}
	if stats[0].Retransmits == 0 {
		t.Error("corrupted frames caused no retransmissions")
	}
}

// TestRetransmitDeterminism: the same seed must produce the same fault
// decisions and modeled charges, run to run.
func TestRetransmitDeterminism(t *testing.T) {
	run := func() []Stats {
		cfg := DefaultConfig(3)
		cfg.Faults = &FaultPlan{Seed: 11, Retransmit: true, DropProb: 0.2, CorruptProb: 0.2}
		return Run(cfg, func(c *Comm) {
			for i := 0; i < 20; i++ {
				dst := (c.Rank() + 1) % c.Size()
				c.Send(dst, 1, []byte{byte(i)})
				c.Recv((c.Rank()+c.Size()-1)%c.Size(), 1)
			}
		})
	}
	a, b := run(), run()
	for r := range a {
		if a[r].Retransmits != b[r].Retransmits || a[r].FramesCorrupted != b[r].FramesCorrupted {
			t.Errorf("rank %d fault counts differ across runs: %+v vs %+v", r, a[r], b[r])
		}
		if a[r].CommModel != b[r].CommModel {
			t.Errorf("rank %d modeled comm differs across runs: %v vs %v", r, a[r].CommModel, b[r].CommModel)
		}
	}
}

// TestRetransmitBudgetExhausted: a link that never delivers fail-stops
// the sender after maxRetries attempts instead of spinning forever.
// Retries cost modeled time only, so the 64 of them are quick.
func TestRetransmitBudgetExhausted(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultPlan{Seed: 1, Retransmit: true, DropProb: 1.0}
	_, exits := RunStatus(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []byte("doomed"))
			return
		}
		c.RecvTimeout(0, 3, 0)
	})
	if !exits[0].FaultKilled || !strings.Contains(exits[0].Reason, fmt.Sprintf("after %d attempts", maxRetries)) {
		t.Errorf("sender on a dead link should fail-stop after %d attempts, got %+v", maxRetries, exits[0])
	}
}

// TestCollectivesOverLossyLink: the collectives run on internal tags,
// which the reliable link also protects — so a corrupting, dropping
// link must not change any collective's result.
func TestCollectivesOverLossyLink(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Faults = &FaultPlan{Seed: 21, Retransmit: true, DropProb: 0.15, CorruptProb: 0.15}
	sums := make([]int64, 4)
	stats := Run(cfg, func(c *Comm) {
		v := int64(c.Rank() + 1)
		sums[c.Rank()] = c.Allreduce(v, Sum)
		c.Barrier()
		b := c.Bcast(0, []byte("settings"))
		if string(b) != "settings" {
			t.Errorf("rank %d bcast got %q", c.Rank(), b)
		}
	})
	for r, s := range sums {
		if s != 10 {
			t.Errorf("rank %d allreduce = %d, want 10", r, s)
		}
	}
	total := 0
	for _, s := range stats {
		total += s.Retransmits
	}
	if total == 0 {
		t.Error("lossy link caused no retransmissions across collectives")
	}
}

// TestFTCollectivesSurviveDeath: on a survivable machine a rank killed
// mid-alltoall must not wedge or cascade the surviving ranks'
// collectives.
func TestFTCollectivesSurviveDeath(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Faults = &FaultPlan{Seed: 1, Crashes: []Crash{CrashAtAlltoallSend(2, 1)}}
	gots := make([][]bool, 4)
	sums := make([]int64, 4)
	_, exits := RunStatus(cfg, func(c *Comm) {
		bufs := make([][]byte, c.Size())
		for d := range bufs {
			bufs[d] = []byte{byte(c.Rank()), byte(d)}
		}
		out, got := c.Alltoallv(bufs)
		gots[c.Rank()] = got
		for s, b := range out {
			if !got[s] {
				continue
			}
			if len(b) != 2 || int(b[0]) != s || int(b[1]) != c.Rank() {
				t.Errorf("rank %d got bad buffer from %d: %v", c.Rank(), s, b)
			}
		}
		c.Barrier()
		sums[c.Rank()] = c.Allreduce(int64(c.Rank()+1), Sum)
		if b := c.Bcast(0, []byte("go")); string(b) != "go" {
			t.Errorf("rank %d Bcast got %q", c.Rank(), b)
		}
	})
	if !exits[2].FaultKilled {
		t.Fatalf("rank 2 should have been fault-killed, got %+v", exits[2])
	}
	for _, r := range []int{0, 1, 3} {
		if !exits[r].OK {
			t.Fatalf("survivor %d did not finish: %+v", r, exits[r])
		}
		if gots[r][2] {
			t.Errorf("survivor %d claims to have rank 2's buffer", r)
		}
		// 1 + 2 + 4: the dead rank contributes nothing.
		if sums[r] != 7 {
			t.Errorf("survivor %d Allreduce = %d, want 7", r, sums[r])
		}
	}
}

// deadRecvEnds returns the sources of the receives on rank's track that
// ended without a message (EvRecvEnd with C == -1): one per wait a dead
// peer or a deadline ended, so a polling loop would show up as many.
func deadRecvEnds(tr *obs.Tracer, rank int) []int64 {
	var srcs []int64
	for _, e := range tr.Events(rank) {
		if e.Kind == obs.EvRecvEnd && e.C == -1 {
			srcs = append(srcs, e.A)
		}
	}
	return srcs
}

// TestCollectivesWakeOnDeath: survivors parked in a collective on a
// peer the plan kills are woken by the death itself. Each waiter's
// trace holds exactly one failed receive, naming the dead source — the
// wait is one blocking span, not a train of poll spans — and the
// collective reports the missing contribution.
func TestCollectivesWakeOnDeath(t *testing.T) {
	const p, victim, tagDie = 4, 2, 99
	cases := []struct {
		name    string
		crash   Crash
		waiters []int // survivors whose collective waits on the victim
		body    func(c *Comm) []bool
	}{
		{"gather", Crash{Rank: victim, AfterSends: 1, Tag: tagGather}, []int{0},
			func(c *Comm) []bool { _, got := c.Gather(0, []byte{1}); return got }},
		{"alltoallv", CrashAtAlltoallSend(victim, 1), []int{0, 1, 3},
			func(c *Comm) []bool { _, got := c.Alltoallv(make([][]byte, p)); return got }},
		{"barrier", Crash{Rank: victim, AfterSends: 1, Tag: tagBarrier}, []int{0},
			func(c *Comm) []bool { c.Barrier(); return nil }},
	}
	for _, tc := range cases {
		tr := obs.NewTracer(p, 1<<10)
		cfg := DefaultConfig(p)
		cfg.Trace = tr
		cfg.Faults = &FaultPlan{Crashes: []Crash{tc.crash}}
		gots := make([][]bool, p)
		_, exits := RunStatus(cfg, func(c *Comm) {
			if c.Rank() == victim {
				// Let the survivors park before dying at the first send.
				time.Sleep(20 * time.Millisecond)
			}
			gots[c.Rank()] = tc.body(c)
		})
		if !exits[victim].FaultKilled {
			t.Fatalf("%s: rank %d was not fault-killed: %+v", tc.name, victim, exits[victim])
		}
		waits := make(map[int]bool)
		for _, r := range tc.waiters {
			waits[r] = true
		}
		for r := 0; r < p; r++ {
			if r == victim {
				continue
			}
			if !exits[r].OK {
				t.Fatalf("%s: survivor %d did not finish: %+v", tc.name, r, exits[r])
			}
			if got := gots[r]; got != nil && (got[victim] || !got[r]) {
				t.Errorf("%s: survivor %d got = %v, want the dead rank %d missing", tc.name, r, got, victim)
			}
			ends := deadRecvEnds(tr, r)
			switch {
			case !waits[r] && len(ends) != 0:
				t.Errorf("%s: rank %d never waits on the victim but traced failed receives from %v", tc.name, r, ends)
			case waits[r] && (len(ends) != 1 || ends[0] != victim):
				t.Errorf("%s: rank %d traced failed receives from %v, want exactly one from rank %d", tc.name, r, ends, victim)
			}
		}
	}
}

// TestTimeCrashFiresInsideCollective: a rank with a planned time crash
// parked inside a collective dies on time — its own death time is the
// wait's deadline — instead of sleeping through it until a message
// happens to arrive.
func TestTimeCrashFiresInsideCollective(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Faults = &FaultPlan{Crashes: []Crash{{Rank: 1, After: 20 * time.Millisecond}}}
	done := make(chan []Exit, 1)
	go func() {
		_, exits := RunStatus(cfg, func(c *Comm) {
			if c.Rank() == 2 {
				// The barrier cannot complete before rank 1 is dead, so
				// rank 1 can only die while parked inside it.
				for !c.RankDead(1) {
					time.Sleep(time.Millisecond)
				}
			}
			c.Barrier()
		})
		done <- exits
	}()
	select {
	case exits := <-done:
		if !exits[1].FaultKilled {
			t.Errorf("rank 1 should have been killed by its time trigger, got %+v", exits[1])
		}
		if !exits[0].OK || !exits[2].OK {
			t.Errorf("survivors did not finish: %+v %+v", exits[0], exits[2])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("time crash never fired: rank 1 slept through it inside Barrier")
	}
}

// TestFailStopCollectivesCascade: on a machine with no fault plan and
// no transport a death is a bug, and every rank blocked in a collective
// on the panicked rank — directly, or on a root that cascaded — dies
// with it instead of finishing on partial data.
func TestFailStopCollectivesCascade(t *testing.T) {
	const p, victim = 4, 2
	bodies := map[string]func(c *Comm){
		"barrier":   func(c *Comm) { c.Barrier() },
		"allreduce": func(c *Comm) { c.Allreduce(1, Sum) },
		"alltoallv": func(c *Comm) { c.Alltoallv(make([][]byte, p)) },
		"staged":    func(c *Comm) { c.AlltoallvStaged(make([][]byte, p)) },
	}
	for name, body := range bodies {
		_, exits := RunStatus(DefaultConfig(p), func(c *Comm) {
			if c.Survivable() {
				t.Errorf("%s: a plain machine must be fail-stop", name)
			}
			if c.Rank() == victim {
				panic("boom")
			}
			body(c)
		})
		for r, e := range exits {
			switch {
			case r == victim && e.Reason != "panic: boom":
				t.Errorf("%s: victim exit %+v", name, e)
			case r != victim && (e.OK || e.FaultKilled):
				t.Errorf("%s: rank %d blocked on a dead peer should cascade, got %+v", name, r, e)
			}
		}
	}
}
