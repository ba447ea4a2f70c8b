package par

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestScheduleJitterPreservesPerSourceFIFO: under heavy perturbation,
// messages from one source must still arrive in send order — the
// non-overtaking guarantee the protocols rely on — while the content
// multiset is untouched.
func TestScheduleJitterPreservesPerSourceFIFO(t *testing.T) {
	const p = 5
	const msgs = 200
	cfg := DefaultConfig(p)
	cfg.Schedule = &SchedulePlan{Seed: 42}
	got := make([][]byte, 0, (p-1)*msgs)
	Run(cfg, func(c *Comm) {
		if c.Rank() != 0 {
			for i := 0; i < msgs; i++ {
				c.Send(0, 7, []byte{byte(c.Rank()), byte(i), byte(i >> 8)})
			}
			return
		}
		for i := 0; i < (p-1)*msgs; i++ {
			m := c.Recv(AnySource, 7)
			got = append(got, m.Data)
		}
	})
	next := make(map[int]int)
	for _, d := range got {
		src, seq := int(d[0]), int(d[1])|int(d[2])<<8
		if seq != next[src] {
			t.Fatalf("source %d: got message %d, want %d (per-source FIFO violated)", src, seq, next[src])
		}
		next[src]++
	}
	for r := 1; r < p; r++ {
		if next[r] != msgs {
			t.Fatalf("source %d: received %d messages, want %d", r, next[r], msgs)
		}
	}
}

// TestScheduleReordersAcrossSources: the perturbed wildcard receive
// must actually produce a cross-source interleaving different from the
// FIFO one for at least one seed — otherwise the hook explores
// nothing. Senders coordinate so all messages are queued before the
// receiver starts taking, making the FIFO baseline meaningful.
func TestScheduleReordersAcrossSources(t *testing.T) {
	const p = 4
	run := func(plan *SchedulePlan) []int {
		cfg := DefaultConfig(p)
		cfg.Schedule = plan
		var order []int
		Run(cfg, func(c *Comm) {
			if c.Rank() != 0 {
				for i := 0; i < 8; i++ {
					c.Send(0, 3, []byte{byte(c.Rank())})
				}
				c.Send(0, 4, nil) // "done queueing"
				return
			}
			for r := 1; r < p; r++ {
				c.Recv(r, 4)
			}
			for i := 0; i < (p-1)*8; i++ {
				m := c.Recv(AnySource, 3)
				order = append(order, m.Src)
			}
		})
		return order
	}
	fifo := run(nil)
	diverged := false
	for seed := int64(1); seed <= 8 && !diverged; seed++ {
		diverged = fmt.Sprint(run(&SchedulePlan{Seed: seed})) != fmt.Sprint(fifo)
	}
	if !diverged {
		t.Error("no seed in 1..8 produced a non-FIFO cross-source interleaving")
	}
}

// TestSchedulePreservesSpecificSourceOrder: a receive naming its
// source must be untouched by perturbation, tag wildcards included.
func TestSchedulePreservesSpecificSourceOrder(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Schedule = &SchedulePlan{Seed: 9}
	Run(cfg, func(c *Comm) {
		if c.Rank() == 1 {
			for i := 0; i < 64; i++ {
				c.Send(0, i%3, []byte{byte(i)})
			}
			return
		}
		time.Sleep(10 * time.Millisecond) // let the queue fill
		for i := 0; i < 64; i++ {
			m := c.Recv(1, AnyTag)
			if int(m.Data[0]) != i {
				panic(fmt.Sprintf("message %d arrived out of order (got %d)", i, m.Data[0]))
			}
		}
	})
}

// TestScheduleWithCollectives: perturbation must not break the
// collectives' correctness (they name their sources, so they only see
// put-side jitter, which respects per-source order).
func TestScheduleWithCollectives(t *testing.T) {
	const p = 6
	cfg := DefaultConfig(p)
	cfg.Schedule = &SchedulePlan{Seed: 5}
	Run(cfg, func(c *Comm) {
		sum := c.Allreduce(int64(c.Rank()), Sum)
		if want := int64(p * (p - 1) / 2); sum != want {
			panic(fmt.Sprintf("allreduce under schedule jitter: got %d, want %d", sum, want))
		}
		bufs := make([][]byte, p)
		for d := range bufs {
			bufs[d] = []byte{byte(c.Rank()), byte(d)}
		}
		recv, _ := c.Alltoallv(bufs)
		for s, b := range recv {
			if int(b[0]) != s || int(b[1]) != c.Rank() {
				panic("alltoallv under schedule jitter delivered wrong buffer")
			}
		}
	})
}

// TestJitterInsertBounds: the insertion index must stay within the
// valid range and behind same-source messages for arbitrary queues.
func TestJitterInsertBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12)
		queue := make([]envelope, n)
		for i := range queue {
			queue[i].src = rng.Intn(4)
		}
		src := rng.Intn(4)
		i := jitterInsert(queue, src, rng)
		if i < 0 || i > n {
			t.Fatalf("insert index %d outside [0,%d]", i, n)
		}
		for j := i; j < n; j++ {
			if queue[j].src == src {
				t.Fatalf("insert at %d would overtake same-source message at %d", i, j)
			}
		}
	}
}
