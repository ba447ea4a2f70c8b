package check

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

func TestStreamAcceptsHealthyRun(t *testing.T) {
	tr := obs.NewTracer(4, 0)
	cfg := par.DefaultConfig(4)
	cfg.Trace = tr
	par.Run(cfg, func(c *par.Comm) {
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseCluster, 0, 0)
		if c.Rank() == 0 {
			for i := 1; i < c.Size(); i++ {
				c.Recv(par.AnySource, 1)
			}
		} else {
			c.Send(0, 1, []byte{byte(c.Rank())})
		}
		c.Barrier()
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseCluster, 0, 0)
	})
	sum, err := Stream(tr, nil)
	if err != nil {
		t.Fatalf("Stream rejected a healthy run: %v", err)
	}
	if sum.RecvEvents == 0 || sum.Channels == 0 {
		t.Fatalf("no matched traffic in summary: %+v", sum)
	}
}

func TestStreamAcceptsCrashedRank(t *testing.T) {
	tr := obs.NewTracer(3, 0)
	cfg := par.DefaultConfig(3)
	cfg.Trace = tr
	cfg.Faults = &par.FaultPlan{Seed: 1, Crashes: []par.Crash{{Rank: 2, AfterSends: 1, Tag: par.AnyTag}}}
	_, exits := par.RunStatus(cfg, func(c *par.Comm) {
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGST, 0, 0)
		if c.Rank() != 0 {
			c.Send(0, 1, []byte{1}) // rank 2 dies here
		} else {
			c.RecvTimeout(par.AnySource, 1, 50*time.Millisecond)
			c.RecvTimeout(par.AnySource, 1, 50*time.Millisecond)
		}
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseGST, 0, 0)
	})
	if _, err := Stream(tr, func(r int) bool { return exits[r].OK }); err != nil {
		t.Fatalf("Stream rejected a run with an exempted crashed rank: %v", err)
	}
	// Treating the crashed rank as OK must fail span balance.
	if _, err := Stream(tr, nil); err == nil {
		t.Fatal("Stream accepted an unclosed span on a supposedly-OK rank")
	}
}

// TestDumpExemptsRanksThatDied: a dump carries no exit statuses, so a
// rank whose stream ends in its own crash instant is exempt from span
// balance; the same stream without that instant is not.
func TestDumpExemptsRanksThatDied(t *testing.T) {
	tr := obs.NewTracer(3, 0)
	cfg := par.DefaultConfig(3)
	cfg.Trace = tr
	cfg.Faults = &par.FaultPlan{Seed: 1, Crashes: []par.Crash{{Rank: 2, AfterSends: 1, Tag: par.AnyTag}}}
	par.RunStatus(cfg, func(c *par.Comm) {
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGST, 0, 0)
		if c.Rank() != 0 {
			c.Send(0, 1, []byte{1}) // rank 2 dies here
		} else {
			c.RecvTimeout(par.AnySource, 1, 50*time.Millisecond)
			c.RecvTimeout(par.AnySource, 1, 50*time.Millisecond)
		}
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseGST, 0, 0)
	})
	d := tr.Dump()
	if _, err := Dump(d, nil); err != nil {
		t.Fatalf("Dump rejected a run whose crashed rank recorded its death: %v", err)
	}
	rank2 := &d.Ranks[2]
	last := rank2.Events[len(rank2.Events)-1]
	if last.Kind != obs.EvFault || last.A != obs.FaultCrash {
		t.Fatalf("rank 2's last event is %v %d, want its crash instant", last.Kind, last.A)
	}
	rank2.Events = rank2.Events[:len(rank2.Events)-1]
	if _, err := Dump(d, nil); err == nil {
		t.Fatal("Dump accepted an unclosed span on a rank that recorded no death")
	}
}

func TestStreamRejectsBackwardsClock(t *testing.T) {
	tr := obs.NewTracer(1, 0)
	tr.Emit(0, obs.EvClusterMerge, 5, 5, 0, 0, 0)
	tr.Emit(0, obs.EvClusterMerge, 4, 5, 0, 0, 0)
	if _, err := Stream(tr, nil); err == nil {
		t.Fatal("Stream accepted a backwards modeled clock")
	}
}

func TestStreamRejectsRecvWithoutSend(t *testing.T) {
	tr := obs.NewTracer(2, 0)
	// Rank 1 claims to have completed a receive from rank 0, which
	// never sent anything.
	tr.Emit(1, obs.EvRecvBegin, 0, 0, 0, 7, 0)
	tr.Emit(1, obs.EvRecvEnd, 0, 0, 0, 7, 16)
	if _, err := Stream(tr, nil); err == nil {
		t.Fatal("Stream accepted a receive with no matching send")
	}
}

func TestStreamSkipsOverflowedRings(t *testing.T) {
	tr := obs.NewTracer(1, 4) // tiny ring: guaranteed overflow
	for i := 0; i < 64; i++ {
		tr.Emit(0, obs.EvRecvBegin, 0, 0, 0, 7, 0)
		tr.Emit(0, obs.EvRecvEnd, 0, 0, 0, 7, 16)
	}
	sum, err := Stream(tr, nil)
	if err != nil {
		t.Fatalf("Stream applied strict invariants to a truncated stream: %v", err)
	}
	if sum.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", sum.Skipped)
	}
}

func TestStreamRejectsSeqGap(t *testing.T) {
	tr := obs.NewTracer(1, 0)
	// Seq jumps 1 -> 3: a send went untraced.
	tr.EmitSeq(0, obs.EvSendBegin, 0, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendEnd, 1, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendBegin, 1, 0, 1, 7, 8, 3)
	tr.EmitSeq(0, obs.EvSendEnd, 2, 0, 1, 7, 8, 3)
	if _, err := Stream(tr, nil); err == nil {
		t.Fatal("Stream accepted a send sequence gap")
	}
}

func TestStreamRejectsSeqMismatchedRecv(t *testing.T) {
	tr := obs.NewTracer(2, 0)
	tr.EmitSeq(0, obs.EvSendBegin, 0, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendEnd, 1, 0, 1, 7, 8, 1)
	// Receiver claims seq 2, which rank 0 never sent. The channel
	// count invariant alone cannot see this.
	tr.EmitSeq(1, obs.EvRecvBegin, 0, 0, 0, 7, 0, 0)
	tr.EmitSeq(1, obs.EvRecvEnd, 1, 0, 0, 7, 8, 2)
	if _, err := Stream(tr, nil); err == nil {
		t.Fatal("Stream accepted a receive of a never-sent sequence number")
	}
}

func TestStreamRejectsDuplicateDelivery(t *testing.T) {
	tr := obs.NewTracer(3, 0)
	tr.EmitSeq(0, obs.EvSendBegin, 0, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendEnd, 1, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendBegin, 1, 0, 2, 7, 8, 2)
	tr.EmitSeq(0, obs.EvSendEnd, 2, 0, 2, 7, 8, 2)
	for r := 1; r <= 2; r++ {
		// Both receivers consume (src=0, seq=1): delivered twice.
		tr.EmitSeq(r, obs.EvRecvBegin, 0, 0, 0, 7, 0, 0)
		tr.EmitSeq(r, obs.EvRecvEnd, 1, 0, 0, 7, 8, 1)
	}
	if _, err := Stream(tr, nil); err == nil {
		t.Fatal("Stream accepted a duplicate delivery")
	}
}

func TestStreamSeqMatchedCounts(t *testing.T) {
	tr := obs.NewTracer(2, 0)
	cfg := par.DefaultConfig(2)
	cfg.Trace = tr
	par.Run(cfg, func(c *par.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("a"))
			c.Send(1, 1, []byte("b"))
		} else {
			c.Recv(0, 1)
			c.Recv(0, 1)
		}
	})
	sum, err := Stream(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SeqMatched != 2 {
		t.Fatalf("SeqMatched = %d, want 2", sum.SeqMatched)
	}
}

// TestStreamOverflowedRingSeqs: on a rank whose ring wrapped, the
// retained send seqs may skip (the sends in between were evicted) but
// must still increase.
func TestStreamOverflowedRingSeqs(t *testing.T) {
	sends := func(seqs ...uint64) *obs.Tracer {
		tr := obs.NewTracer(1, 8)
		for i, seq := range seqs {
			tr.EmitSeq(0, obs.EvSendBegin, float64(i), 0, 1, 7, 8, seq)
			tr.EmitSeq(0, obs.EvSendEnd, float64(i+1), 0, 1, 7, 8, seq)
		}
		if tr.Dropped(0) == 0 {
			t.Fatal("ring did not overflow")
		}
		return tr
	}
	// The ring keeps the last four sends: 8, 9, 11, 12.
	sum, err := Stream(sends(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12), nil)
	if err != nil {
		t.Fatalf("send seq gap on an overflowed ring rejected: %v", err)
	}
	if sum.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", sum.Skipped)
	}
	if _, err := Stream(sends(1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 10), nil); err == nil {
		t.Fatal("repeated send seq on an overflowed ring accepted")
	}
	if _, err := Stream(sends(1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11), nil); err == nil {
		t.Fatal("decreasing send seq on an overflowed ring accepted")
	}
}

// perProcessDumps runs a 2-rank machine but exports each rank's
// stream as its own dump, the shape a multi-process transport run
// leaves on disk.
func perProcessDumps(t *testing.T) []*obs.Dump {
	t.Helper()
	tr := obs.NewTracer(2, 0)
	cfg := par.DefaultConfig(2)
	cfg.Trace = tr
	par.Run(cfg, func(c *par.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("hello"))
		} else {
			c.Recv(0, 1)
		}
	})
	full := tr.Dump()
	var dumps []*obs.Dump
	for r, rd := range full.Ranks {
		d := &obs.Dump{}
		for q := range full.Ranks {
			if q == r {
				d.Ranks = append(d.Ranks, rd)
			} else {
				d.Ranks = append(d.Ranks, obs.RankDump{Rank: q})
			}
		}
		dumps = append(dumps, d)
	}
	return dumps
}

func TestDumpMergedPerProcess(t *testing.T) {
	dumps := perProcessDumps(t)
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Dump(merged, nil)
	if err != nil {
		t.Fatalf("merged per-process dumps rejected: %v", err)
	}
	if sum.Ranks != 2 || sum.SeqMatched == 0 {
		t.Fatalf("unexpected summary: %+v", sum)
	}
}

func TestDumpMergeMissingRankIsTruncated(t *testing.T) {
	dumps := perProcessDumps(t)
	// Drop rank 1's dump: its process was SIGKILLed before writing.
	merged, err := obs.MergeDumps(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Dump(merged, nil)
	if err != nil {
		t.Fatalf("merge with a missing rank rejected: %v", err)
	}
	if sum.Skipped != 1 {
		t.Fatalf("missing rank not marked truncated: %+v", sum)
	}
}

func TestMergeDumpsRejectsDuplicateRank(t *testing.T) {
	dumps := perProcessDumps(t)
	if _, err := obs.MergeDumps(dumps[0], dumps[0]); err == nil {
		t.Fatal("two dumps claiming rank 0 accepted")
	}
}
