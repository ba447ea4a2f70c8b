package par

import (
	"fmt"
	"testing"
	"time"
)

func testCfg(p int) Config { return DefaultConfig(p) }

func TestSendRecvRing(t *testing.T) {
	const p = 8
	Run(testCfg(p), func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() - 1 + p) % p
		c.Send(next, 1, []byte{byte(c.Rank())})
		msg := c.Recv(prev, 1)
		if len(msg.Data) != 1 || msg.Data[0] != byte(prev) {
			panic(fmt.Sprintf("rank %d: bad ring message %v", c.Rank(), msg))
		}
		if msg.Src != prev || msg.Tag != 1 {
			panic("bad envelope")
		}
	})
}

func TestTagAndSourceMatching(t *testing.T) {
	Run(testCfg(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("five"))
			c.Send(1, 7, []byte("seven"))
		} else {
			// Receive out of order by tag.
			m7 := c.Recv(0, 7)
			m5 := c.Recv(AnySource, 5)
			if string(m7.Data) != "seven" || string(m5.Data) != "five" {
				panic("tag matching failed")
			}
		}
	})
}

func TestAnyTagPreservesFIFO(t *testing.T) {
	Run(testCfg(2), func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, i, []byte{byte(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				m := c.Recv(0, AnyTag)
				if m.Tag != i {
					panic(fmt.Sprintf("FIFO violated: got tag %d want %d", m.Tag, i))
				}
			}
		}
	})
}

func TestProbe(t *testing.T) {
	Run(testCfg(2), func(c *Comm) {
		if c.Rank() == 0 {
			if _, ok := c.Probe(AnySource, AnyTag); ok {
				panic("probe matched on empty mailbox")
			}
			c.Send(1, 3, []byte("x"))
			c.Recv(1, 4) // wait for ack so the probe below has a target
		} else {
			c.Recv(0, 3)
			c.Send(0, 4, []byte("y"))
		}
	})
}

func TestSsendCompletes(t *testing.T) {
	Run(testCfg(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Ssend(1, 1, []byte("sync"))
		} else {
			m := c.Recv(0, 1)
			if string(m.Data) != "sync" {
				panic("ssend data lost")
			}
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	// After a barrier, every pre-barrier send must be deliverable.
	const p = 6
	Run(testCfg(p), func(c *Comm) {
		for d := 0; d < p; d++ {
			if d != c.Rank() {
				c.Send(d, 9, []byte{byte(c.Rank())})
			}
		}
		c.Barrier()
		for s := 0; s < p; s++ {
			if s == c.Rank() {
				continue
			}
			if _, ok := c.Probe(s, 9); !ok {
				panic(fmt.Sprintf("rank %d: message from %d missing after barrier", c.Rank(), s))
			}
		}
	})
}

func TestBcastAllRootsAndSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for root := 0; root < p; root++ {
			payload := []byte(fmt.Sprintf("root=%d", root))
			Run(testCfg(p), func(c *Comm) {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out := c.Bcast(root, in)
				if string(out) != string(payload) {
					panic(fmt.Sprintf("p=%d root=%d rank=%d got %q", p, root, c.Rank(), out))
				}
			})
		}
	}
}

func TestRepeatedBcastEpochSafety(t *testing.T) {
	const p = 5
	Run(testCfg(p), func(c *Comm) {
		for epoch := 0; epoch < 20; epoch++ {
			root := epoch % p
			var in []byte
			if c.Rank() == root {
				in = []byte{byte(epoch)}
			}
			out := c.Bcast(root, in)
			if len(out) != 1 || out[0] != byte(epoch) {
				panic(fmt.Sprintf("epoch %d rank %d: got %v", epoch, c.Rank(), out))
			}
		}
	})
}

func TestGatherRoundTrip(t *testing.T) {
	const p = 7
	Run(testCfg(p), func(c *Comm) {
		parts, got := c.Gather(2, []byte{byte(c.Rank() * 3)})
		if c.Rank() != 2 {
			if parts != nil || got != nil {
				panic("gather returned data off the root")
			}
			return
		}
		for i := 0; i < p; i++ {
			if !got[i] || len(parts[i]) != 1 || parts[i][0] != byte(i*3) {
				panic("gather wrong")
			}
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	const p = 9
	Run(testCfg(p), func(c *Comm) {
		sum := c.Allreduce(int64(c.Rank()+1), Sum)
		if sum != int64(p*(p+1)/2) {
			panic(fmt.Sprintf("allreduce sum = %d on rank %d", sum, c.Rank()))
		}
		m := c.Allreduce(int64(c.Rank()), Max)
		if m != int64(p-1) {
			panic(fmt.Sprintf("allreduce max = %d on rank %d", m, c.Rank()))
		}
		mn := c.Allreduce(int64(c.Rank()), Min)
		if mn != 0 {
			panic(fmt.Sprintf("allreduce min = %d", mn))
		}
	})
}

func alltoallPayload(src, dst int) []byte {
	return []byte(fmt.Sprintf("%d->%d", src, dst))
}

func TestAlltoallvBothVariants(t *testing.T) {
	for _, staged := range []bool{false, true} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			Run(testCfg(p), func(c *Comm) {
				bufs := make([][]byte, p)
				for d := range bufs {
					bufs[d] = alltoallPayload(c.Rank(), d)
				}
				var got [][]byte
				if staged {
					got = c.AlltoallvStaged(bufs)
				} else {
					got, _ = c.Alltoallv(bufs)
				}
				for s := range got {
					want := string(alltoallPayload(s, c.Rank()))
					if string(got[s]) != want {
						panic(fmt.Sprintf("p=%d staged=%v rank=%d src=%d: %q != %q",
							p, staged, c.Rank(), s, got[s], want))
					}
				}
			})
		}
	}
}

func TestRepeatedAlltoallvEpochSafety(t *testing.T) {
	const p = 4
	Run(testCfg(p), func(c *Comm) {
		for epoch := 0; epoch < 10; epoch++ {
			bufs := make([][]byte, p)
			for d := range bufs {
				bufs[d] = []byte{byte(epoch), byte(c.Rank()), byte(d)}
			}
			got, _ := c.Alltoallv(bufs)
			for s := range got {
				if got[s][0] != byte(epoch) || got[s][1] != byte(s) || got[s][2] != byte(c.Rank()) {
					panic(fmt.Sprintf("epoch %d corrupted: %v", epoch, got[s]))
				}
			}
		}
	})
}

// TestStagedAlltoallvBoundsBuffers verifies the property the paper's
// customized Alltoallv exists for (Section 6): with large buffers the
// staged exchange keeps each rank's peak receive-buffer bytes near one
// buffer's worth, while the direct version can accumulate nearly the
// whole incoming volume.
func TestStagedAlltoallvBoundsBuffers(t *testing.T) {
	const p = 8
	const chunk = 1 << 16
	run := func(staged bool) int {
		stats := Run(testCfg(p), func(c *Comm) {
			bufs := make([][]byte, p)
			for d := range bufs {
				bufs[d] = make([]byte, chunk)
			}
			if staged {
				c.AlltoallvStaged(bufs)
			} else {
				c.Alltoallv(bufs)
			}
			c.Barrier()
		})
		return Summarize(stats).PeakBufBytes
	}
	direct := run(false)
	staged := run(true)
	if staged > 2*chunk {
		t.Errorf("staged peak buffer %d exceeds 2 chunks", staged)
	}
	if direct < staged {
		t.Errorf("direct peak %d unexpectedly below staged peak %d", direct, staged)
	}
}

func TestStatsAccounting(t *testing.T) {
	stats := Run(testCfg(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 1000))
		} else {
			c.Recv(0, 1)
		}
	})
	if stats[0].MsgsSent != 1 || stats[0].BytesSent != 1000 {
		t.Errorf("sender stats: %+v", stats[0])
	}
	if stats[1].MsgsRecv != 1 || stats[1].BytesRecv != 1000 {
		t.Errorf("receiver stats: %+v", stats[1])
	}
	if stats[0].CommModel <= 0 || stats[1].CommModel <= 0 {
		t.Error("comm model not charged")
	}
	agg := Summarize(stats)
	if agg.Ranks != 2 || agg.TotalBytes != 1000 || agg.TotalMsgs != 1 {
		t.Errorf("aggregate: %+v", agg)
	}
}

func TestCommModelScalesWithBytes(t *testing.T) {
	cost := func(n int) float64 {
		stats := Run(testCfg(2), func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 1, make([]byte, n))
			} else {
				c.Recv(0, 1)
			}
		})
		return stats[0].CommModel
	}
	small, large := cost(1000), cost(1000000)
	if large <= small {
		t.Errorf("comm model must grow with message size: %g vs %g", small, large)
	}
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate from rank body")
		}
	}()
	Run(testCfg(1), func(c *Comm) { panic("boom") })
}

func TestSingleRankDegenerates(t *testing.T) {
	Run(testCfg(1), func(c *Comm) {
		c.Barrier()
		if out := c.Bcast(0, []byte("x")); string(out) != "x" {
			panic("bcast p=1")
		}
		got, ok := c.Alltoallv([][]byte{[]byte("self")})
		if string(got[0]) != "self" || !ok[0] {
			panic("alltoallv p=1")
		}
		if c.Allreduce(7, Sum) != 7 {
			panic("allreduce p=1")
		}
	})
}

func TestSnapshotMidRun(t *testing.T) {
	Run(testCfg(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 100))
			c.ChargeCompute(0.5)
			s := c.Snapshot()
			if s.MsgsSent != 1 || s.BytesSent != 100 {
				panic("snapshot missing send stats")
			}
			if s.CompModel != 0.5 {
				panic("snapshot missing compute charge")
			}
			if s.Wall <= 0 {
				panic("snapshot wall not running")
			}
		} else {
			c.Recv(0, 1)
		}
	})
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Ranks: 3}.withDefaults()
	if cfg.Alpha <= 0 || cfg.Beta <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	// Explicit values survive.
	cfg2 := Config{Ranks: 3, Alpha: time.Millisecond, Beta: 1e9}.withDefaults()
	if cfg2.Alpha != time.Millisecond || cfg2.Beta != 1e9 {
		t.Errorf("explicit values overridden: %+v", cfg2)
	}
}

func TestModeledAggregation(t *testing.T) {
	stats := Run(testCfg(3), func(c *Comm) {
		c.ChargeCompute(float64(c.Rank()) * 0.1)
		c.Barrier()
	})
	agg := Summarize(stats)
	if agg.MaxComp < 0.2-1e-9 {
		t.Errorf("MaxComp = %g", agg.MaxComp)
	}
	if agg.MeanIdle <= 0 {
		t.Error("imbalanced ranks must show modeled idle")
	}
	if agg.MaxModeled < agg.MaxComp {
		t.Error("modeled total below compute")
	}
}
