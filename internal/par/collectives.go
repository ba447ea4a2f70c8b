package par

// Collective operations, all built on the point-to-point layer so their
// cost is charged through the same α + n/β model. There is one family.
// What a rank death does to a collective is a property of the machine
// (Survivable), not of the call: on a fail-stop machine every rank
// waiting on the corpse cascades; on a survivable one the collective
// completes over the surviving ranks — every live rank must still call
// it in the same order — and reports whose contribution is missing. A
// death wakes the blocked receives itself, so no collective polls. The
// root of the rooted steps must survive (the clustering master plays
// that role): a rank whose root died cascades on either machine.

// Barrier blocks until every rank (every surviving rank) has entered
// it. Linear gather to rank 0 followed by a broadcast — adequate at the
// rank counts simulated here.
func (c *Comm) Barrier() {
	p := c.Size()
	if p == 1 {
		return
	}
	if c.rank == 0 {
		// Receive from explicit sources: per-sender FIFO ordering then
		// keeps consecutive collective epochs from interleaving.
		for i := 1; i < p; i++ {
			c.recvFrom(i, tagBarrier)
		}
		for i := 1; i < p; i++ {
			c.Send(i, tagBarrier, nil)
		}
	} else {
		c.Send(0, tagBarrier, nil)
		c.Recv(0, tagBarrier)
	}
}

// Bcast distributes root's data to every rank and returns it. Non-root
// ranks pass nil. Binomial-tree dissemination on a fail-stop machine;
// on a survivable one the root sends to each rank directly, so there
// is no intermediate hop a dead rank could sever.
func (c *Comm) Bcast(root int, data []byte) []byte {
	p := c.Size()
	if p == 1 {
		return data
	}
	if c.Survivable() {
		if c.rank != root {
			return c.Recv(root, tagBcast).Data
		}
		for i := 0; i < p; i++ {
			if i != root {
				c.Send(i, tagBcast, data)
			}
		}
		return data
	}
	// Re-index so the root is virtual rank 0. In a binomial tree,
	// virtual rank vr receives from vr − msb(vr) and sends to vr + bit
	// for every power of two bit > vr.
	vr := (c.rank - root + p) % p
	if vr != 0 {
		parent := (vr - msb(vr) + root) % p
		msg := c.Recv(parent, tagBcast)
		data = msg.Data
	}
	for bit := 1; bit < p; bit <<= 1 {
		if vr < bit && vr+bit < p {
			dst := (vr + bit + root) % p
			c.Send(dst, tagBcast, data)
		}
	}
	return data
}

// Gather collects each rank's data at root. At the root, out has one
// entry per rank (the root's own at its index) and got[i] reports
// whether rank i's contribution arrived — false only for a rank that
// died on a survivable machine. Other ranks get nil slices.
func (c *Comm) Gather(root int, data []byte) (out [][]byte, got []bool) {
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil, nil
	}
	return c.collect(tagGather, data)
}

// collect receives one tag-message from every other rank, in rank
// order, next to this rank's own contribution.
func (c *Comm) collect(tag int, own []byte) (out [][]byte, got []bool) {
	p := c.Size()
	out = make([][]byte, p)
	got = make([]bool, p)
	out[c.rank], got[c.rank] = own, true
	for s := 0; s < p; s++ {
		if s != c.rank {
			m, ok := c.recvFrom(s, tag)
			out[s], got[s] = m.Data, ok
		}
	}
	return out, got
}

// ReduceOp combines two values.
type ReduceOp func(a, b int64) int64

// Sum is the addition reduce operator.
func Sum(a, b int64) int64 { return a + b }

// Max is the maximum reduce operator.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Min is the minimum reduce operator.
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Allreduce combines every rank's v with op and returns the result on
// all ranks; a dead rank simply does not contribute.
func (c *Comm) Allreduce(v int64, op ReduceOp) int64 {
	vals, got := c.Gather(0, encodeInt64(v))
	var out []byte
	if c.rank == 0 {
		acc := v
		for i := 1; i < len(vals); i++ {
			if got[i] {
				acc = op(acc, decodeInt64(vals[i]))
			}
		}
		out = encodeInt64(acc)
	}
	return decodeInt64(c.Bcast(0, out))
}

// Alltoallv exchanges bufs[dst] from every rank to every rank using
// direct eager sends: all p−1 messages are posted before any is
// received, so a rank's receive buffers may hold up to the full
// incoming volume at once — the behaviour whose worst-case buffer
// growth the paper's customized version exists to avoid (Section 6).
// Returns out[src] = the buffer src sent to this rank. A send to a dead
// rank vanishes harmlessly; got[src] = false means src died before its
// send reached this rank (survivable machine only), and the caller
// must recover that exchange from redundant data.
func (c *Comm) Alltoallv(bufs [][]byte) (out [][]byte, got []bool) {
	p := c.Size()
	if len(bufs) != p {
		panic("par: alltoallv needs one buffer per rank")
	}
	for d := 0; d < p; d++ {
		if d != c.rank {
			c.Send(d, tagAlltoall, bufs[d])
		}
	}
	return c.collect(tagAlltoall, bufs[c.rank])
}

// CrashAtAlltoallSend returns a Crash trigger that kills rank
// immediately before its n-th send inside an Alltoallv exchange (the
// redistribution and fragment-fetch steps of GST construction use
// these internal tags), so fault plans can target GST construction
// deterministically.
func CrashAtAlltoallSend(rank, n int) Crash {
	return Crash{Rank: rank, AfterSends: n, Tag: tagAlltoall}
}

// AlltoallvStaged is the paper's customized Alltoallv: p−1 rounds of
// pairwise exchanges (round r pairs rank i with i+r and i−r mod p), so
// at most one incoming buffer is in flight per rank at a time and
// buffer space stays O(total/p) (Section 6). Returns recv[src].
func (c *Comm) AlltoallvStaged(bufs [][]byte) [][]byte {
	p := c.Size()
	if len(bufs) != p {
		panic("par: alltoallv needs one buffer per rank")
	}
	out := make([][]byte, p)
	out[c.rank] = bufs[c.rank]
	for r := 1; r < p; r++ {
		dst := (c.rank + r) % p
		src := (c.rank - r + p) % p
		// Rounds share a tag but each round's source is unique, and
		// per-sender FIFO keeps repeated calls ordered.
		msg := c.SendRecv(dst, bufs[dst], src, tagSendRecv)
		out[src] = msg.Data
	}
	return out
}

// msb returns the highest power of two ≤ v (v ≥ 1).
func msb(v int) int {
	b := 1
	for b<<1 <= v {
		b <<= 1
	}
	return b
}

func encodeInt64(v int64) []byte {
	b := make([]byte, 8)
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	return b
}

func decodeInt64(b []byte) int64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return int64(u)
}
