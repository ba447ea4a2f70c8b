package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/jobs"
	"repro/internal/par"
	"repro/internal/par/nettrans"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/unionfind"
	"repro/internal/wire"
)

// Microbenchmarks of the layers that have no stage of their own in the
// replay. Each does a fixed amount of work, so its counts repeat.

const (
	smallMsg  = 64      // bytes: a round trip dominated by latency
	largeMsg  = 1 << 16 // bytes: a transfer dominated by bandwidth
	pingTag   = 7
	rttRounds = 5000
	bwRounds  = 500
)

// replayUnionFind replays the recorded Same/Union sequence on a fresh
// structure and returns the seconds one replay takes (the mean of 20:
// one replay is well under a millisecond).
func replayUnionFind(n int, ops []ufOp) float64 {
	if len(ops) == 0 {
		return 0
	}
	const replays = 20
	t0 := time.Now()
	for r := 0; r < replays; r++ {
		uf := unionfind.New(n)
		for _, op := range ops {
			if op.union {
				uf.Union(int(op.a), int(op.b))
			} else {
				uf.Same(int(op.a), int(op.b))
			}
		}
	}
	return time.Since(t0).Seconds() / replays
}

// pingPong bounces a message of the given size between ranks 0 and 1
// and returns the seconds rank 0 spent on all rounds.
func pingPong(c *par.Comm, size, rounds int) float64 {
	buf := make([]byte, size)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if c.Rank() == 0 {
			c.Send(1, pingTag, buf)
			c.Recv(1, pingTag)
		} else {
			c.Send(0, pingTag, c.Recv(0, pingTag).Data)
		}
	}
	return time.Since(t0).Seconds()
}

// parMicro measures the in-process runtime: small-message round trip,
// large-message bandwidth, and a 4-rank Alltoallv.
func parMicro(set func(string, float64)) {
	var rtt, bw, a2a float64
	par.Run(par.DefaultConfig(2), func(c *par.Comm) {
		r, b := pingPong(c, smallMsg, rttRounds), pingPong(c, largeMsg, bwRounds)
		if c.Rank() == 0 {
			rtt, bw = r, b
		}
	})
	const ranks, rounds = 4, 200
	par.Run(par.DefaultConfig(ranks), func(c *par.Comm) {
		bufs := make([][]byte, ranks)
		for i := range bufs {
			bufs[i] = make([]byte, largeMsg)
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			c.Alltoallv(bufs)
		}
		if c.Rank() == 0 {
			a2a = time.Since(t0).Seconds()
		}
	})
	set("par.sendrecv_rtt_us", rtt/rttRounds*1e6)
	set("par.sendrecv_mb_per_s", ratio(2*bwRounds*largeMsg/mb, bw))
	set("par.alltoallv_mb_per_s", ratio(rounds*ranks*(ranks-1)*largeMsg/mb, a2a))
}

// nettransMicro runs the same ping-pong between two socket endpoints
// over loopback TCP. connect_ms is bind → first round trip complete.
func nettransMicro(dir string, set func(string, float64)) error {
	registry := filepath.Join(dir, "nettrans-registry")
	if err := os.MkdirAll(registry, 0o755); err != nil {
		return err
	}
	var connect, rtt, bw float64
	errs := make(chan error, 2)
	t0 := time.Now()
	for r := 0; r < 2; r++ {
		go func(r int) {
			t, err := nettrans.New(nettrans.Config{Rank: r, Size: 2, Network: "tcp", RegistryDir: registry, Epoch: 1})
			if err != nil {
				errs <- err
				return
			}
			_, exit := par.RunRank(par.DefaultConfig(2), r, t, func(c *par.Comm) {
				pingPong(c, smallMsg, 1)
				first := time.Since(t0).Seconds()
				s, b := pingPong(c, smallMsg, rttRounds), pingPong(c, largeMsg, bwRounds)
				if r == 0 {
					connect, rtt, bw = first, s, b
				}
			})
			err = t.Close()
			if !exit.OK {
				err = fmt.Errorf("nettrans rank %d: %s", r, exit.Reason)
			}
			errs <- err
		}(r)
	}
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	set("nettrans.connect_ms", connect*1e3)
	set("nettrans.rtt_us", rtt/rttRounds*1e6)
	set("nettrans.mb_per_s", ratio(2*bwRounds*largeMsg/mb, bw))
	return nil
}

// wireMicro measures the codec the protocol messages use (varint
// lists) and the checksummed frame envelope.
func wireMicro(set func(string, float64)) {
	const rounds = 2000
	ints := make([]int, 8192)
	for i := range ints {
		ints[i] = i * 37
	}
	w := wire.NewBuffer(largeMsg)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		w.Reset()
		w.PutInts(ints)
	}
	enc := time.Since(t0).Seconds()
	encoded := w.Bytes()
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		wire.NewReader(encoded).Ints()
	}
	dec := time.Since(t0).Seconds()
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		if _, ok := wire.DecodeFrame(wire.EncodeFrame(encoded)); !ok {
			panic("wire: frame round trip failed")
		}
	}
	frame := time.Since(t0).Seconds()
	bytesMB := float64(rounds*len(encoded)) / mb
	set("wire.encode_mb_per_s", ratio(bytesMB, enc))
	set("wire.decode_mb_per_s", ratio(bytesMB, dec))
	set("wire.frame_mb_per_s", ratio(bytesMB, frame))
}

// diskstoreMicro measures reads served from the block cache and reads
// that miss it. The unit's own store fits one 64 KiB block, so it
// cannot miss; the reads are written 16 times over to span several
// blocks, then read with a whole-store cache (second pass: all hits)
// and with a one-block cache in a block-hopping order (all misses).
func diskstoreMicro(dir string, frags []*seq.Fragment, set func(string, float64)) error {
	const copies = 16
	var big []*seq.Fragment
	for c := 0; c < copies; c++ {
		for _, f := range frags {
			big = append(big, &seq.Fragment{Name: fmt.Sprintf("%s.%d", f.Name, c), Bases: f.Bases})
		}
	}
	storeDir := filepath.Join(dir, "micro-store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return err
	}
	readAll := func(s *diskstore.Store, order func(i int) int) (float64, float64) {
		bases := 0
		t0 := time.Now()
		for i := 0; i < s.N(); i++ {
			bases += len(s.Seq(order(i)))
		}
		return float64(bases) / mb, time.Since(t0).Seconds()
	}
	warm, err := diskstore.Create(storeDir, big, diskstore.Options{CacheBytes: 1 << 30})
	if err != nil {
		return err
	}
	inOrder := func(i int) int { return i }
	readAll(warm, inOrder)
	mbRead, s := readAll(warm, inOrder)
	warm.Close()
	set("diskstore.seq_hit_mb_per_s", ratio(mbRead, s))

	cold, err := diskstore.Open(storeDir, diskstore.Options{CacheBytes: 1})
	if err != nil {
		return err
	}
	n := cold.N()
	hop := func(i int) int { return (i%copies)*(n/copies) + i/copies }
	mbRead, s = readAll(cold, hop)
	cold.Close()
	set("diskstore.seq_miss_mb_per_s", ratio(mbRead, s))
	return nil
}

// journalMicro appends records to a fresh journal; every append is
// fsynced before it returns.
func journalMicro(dir string, set func(string, float64)) error {
	const appends = 100
	j, _, err := jobs.OpenJournal(filepath.Join(dir, "micro-journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	took := make([]float64, appends)
	t0 := time.Now()
	for i := range took {
		t := time.Now()
		if _, err := j.Append(jobs.Record{Op: jobs.OpSubmit, Job: fmt.Sprintf("j%016x", i), Key: "k"}); err != nil {
			return err
		}
		took[i] = float64(time.Since(t)) / 1e3
	}
	set("jobs.journal_append_us", median(took))
	set("jobs.journal_fsyncs_per_s", ratio(appends, time.Since(t0).Seconds()))
	return nil
}
