package par

import (
	"testing"
	"time"
)

// TestRecvTimeout: the deadline expires when nothing matches, and a
// matching message beats the deadline.
func TestRecvTimeout(t *testing.T) {
	RunStatus(DefaultConfig(2), func(c *Comm) {
		switch c.Rank() {
		case 0:
			if _, ok := c.RecvTimeout(1, 7, 20*time.Millisecond); ok {
				t.Error("timeout recv matched a message that was never sent")
			}
			c.Send(1, 5, []byte("go"))
			if m, ok := c.RecvTimeout(1, 9, 2*time.Second); !ok || string(m.Data) != "done" {
				t.Errorf("expected done message, got ok=%v", ok)
			}
		case 1:
			c.Recv(0, 5)
			c.Send(0, 9, []byte("done"))
		}
	})
}

// TestCrashAfterSends: a send-count trigger kills the rank before the
// fatal send, ranks blocked on it cascade instead of hanging, and
// RunStatus reports every exit.
func TestCrashAfterSends(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Faults = &FaultPlan{Crashes: []Crash{{Rank: 1, AfterSends: 2, Tag: 4}}}
	done := make(chan struct{})
	var exits []Exit
	go func() {
		defer close(done)
		_, exits = RunStatus(cfg, func(c *Comm) {
			switch c.Rank() {
			case 1:
				c.Send(2, 4, []byte("first"))
				c.Send(2, 4, []byte("second — never transmitted"))
				t.Error("rank 1 survived its crash trigger")
			case 2:
				c.Recv(1, 4)
				c.Recv(1, 4) // blocks on the lost send → cascade
				t.Error("rank 2 received a message the crash should have killed")
			case 0:
				c.Recv(2, 9) // never satisfied → cascade once 1 and 2 die
				t.Error("rank 0 recv returned")
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunStatus hung on a crashed machine")
	}
	if exits[1].OK || !exits[1].FaultKilled {
		t.Errorf("rank 1 exit: %+v", exits[1])
	}
	if exits[2].OK || exits[2].FaultKilled {
		t.Errorf("rank 2 should be a cascade death: %+v", exits[2])
	}
	if exits[0].OK {
		t.Errorf("rank 0 should cascade: %+v", exits[0])
	}
}

// TestCrashAfterTime: a wall-clock trigger kills the rank at its next
// runtime operation.
func TestCrashAfterTime(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultPlan{Crashes: []Crash{{Rank: 1, After: 10 * time.Millisecond}}}
	_, exits := RunStatus(cfg, func(c *Comm) {
		if c.Rank() == 1 {
			time.Sleep(30 * time.Millisecond)
			c.Send(0, 1, nil) // checkTime fires here
			t.Error("rank 1 survived its time trigger")
			return
		}
		if _, ok := c.RecvTimeout(1, 1, 5*time.Second); ok {
			t.Error("received a message the time trigger should have killed")
		}
		if !c.RankDead(1) {
			t.Error("rank 1 not reported dead")
		}
	})
	if exits[1].OK || !exits[1].FaultKilled {
		t.Errorf("rank 1 exit: %+v", exits[1])
	}
	if !exits[0].OK {
		t.Errorf("rank 0 exit: %+v", exits[0])
	}
}

// TestDropDeterminism: message drops are drawn from per-rank RNGs in
// operation order, so two identical runs drop identically.
func TestDropDeterminism(t *testing.T) {
	run := func() (dropped, received int) {
		cfg := DefaultConfig(2)
		cfg.Faults = &FaultPlan{Seed: 42, DropProb: 0.5}
		stats, exits := RunStatus(cfg, func(c *Comm) {
			const total = 40
			if c.Rank() == 0 {
				for i := 0; i < total; i++ {
					c.Send(1, 6, []byte{byte(i)})
				}
				c.Ssend(1, 7, nil) // reliable fence: rendezvous never drops
				return
			}
			c.Recv(0, 7)
			for {
				if _, ok := c.Probe(0, 6); !ok {
					break
				}
				received++
			}
		})
		for _, e := range exits {
			if !e.OK {
				t.Fatalf("exit: %+v", e)
			}
		}
		agg := Summarize(stats)
		if agg.TotalMsgsDropped != stats[0].MsgsDropped+stats[1].MsgsDropped {
			t.Errorf("Summarize dropped %d, want %d", agg.TotalMsgsDropped, stats[0].MsgsDropped+stats[1].MsgsDropped)
		}
		if agg.TotalMsgsRecv != stats[0].MsgsRecv+stats[1].MsgsRecv {
			t.Errorf("Summarize msgs recv %d, want %d", agg.TotalMsgsRecv, stats[0].MsgsRecv+stats[1].MsgsRecv)
		}
		if agg.TotalBytesRecv != stats[0].BytesRecv+stats[1].BytesRecv {
			t.Errorf("Summarize bytes recv %d, want %d", agg.TotalBytesRecv, stats[0].BytesRecv+stats[1].BytesRecv)
		}
		return stats[0].MsgsDropped, received
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Errorf("drops not deterministic: run1 (%d dropped, %d recv) vs run2 (%d, %d)", d1, r1, d2, r2)
	}
	if d1 == 0 || r1 == 0 || d1+r1 != 40 {
		t.Errorf("dropped %d + received %d should split 40 nontrivially", d1, r1)
	}
}

// TestDelayDelivers: a delayed message still arrives, and a receiver
// blocked on it is not treated as blocked forever.
func TestDelayDelivers(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultPlan{Seed: 1, DelayProb: 1, Delay: 20 * time.Millisecond}
	stats, exits := RunStatus(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []byte("late"))
			return // sender exits while the message is still in flight
		}
		if m := c.Recv(0, 3); string(m.Data) != "late" {
			t.Errorf("bad delayed payload %q", m.Data)
		}
	})
	for _, e := range exits {
		if !e.OK {
			t.Fatalf("exit: %+v", e)
		}
	}
	if stats[0].MsgsDropped != 0 {
		t.Error("delay counted as drop")
	}
}

// TestSsendToDeadRankCompletes: a rendezvous send to a crashed rank
// must not wedge the sender.
func TestSsendToDeadRankCompletes(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultPlan{Crashes: []Crash{{Rank: 1, AfterSends: 1, Tag: AnyTag}}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunStatus(cfg, func(c *Comm) {
			if c.Rank() == 1 {
				c.Send(0, 1, nil) // dies here
				return
			}
			for !c.RankDead(1) {
				time.Sleep(time.Millisecond)
			}
			c.Ssend(1, 2, []byte("into the void"))
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Ssend to a dead rank wedged")
	}
}

// TestRunPanicsOnDeath preserves Run's legacy contract for callers
// that do not expect rank deaths.
func TestRunPanicsOnDeath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run did not panic on a fault-killed rank")
		}
	}()
	cfg := DefaultConfig(2)
	cfg.Faults = &FaultPlan{Crashes: []Crash{{Rank: 1, AfterSends: 1, Tag: AnyTag}}}
	Run(cfg, func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 1, nil)
		} else {
			c.Recv(1, 1)
		}
	})
}

// TestZeroOverheadPath: without a plan, the fault hooks must not
// change any modeled statistic (spot check vs a hand-computed run).
func TestZeroOverheadPath(t *testing.T) {
	stats := Run(DefaultConfig(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 100))
		} else {
			c.Recv(0, 1)
		}
	})
	if stats[0].MsgsSent != 1 || stats[0].MsgsDropped != 0 || stats[1].MsgsRecv != 1 {
		t.Errorf("unexpected stats: %+v %+v", stats[0], stats[1])
	}
	want := DefaultConfig(2).Alpha.Seconds() + 100/DefaultConfig(2).Beta
	if stats[0].CommModel != want {
		t.Errorf("comm model %g != %g", stats[0].CommModel, want)
	}
}
