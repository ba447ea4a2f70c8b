package analyze

import (
	"slices"
	"strings"
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
	rep, err := FromTracer(tr, Options{})
	if err != nil {
		t.Fatalf("a healthy run rejected: %v", err)
	}
	if rep.SeqMatched < 3 || rep.Unmatched != 0 {
		t.Fatalf("%d receives seq-matched, %d unmatched; want the 3 reports matched", rep.SeqMatched, rep.Unmatched)
	}
}

// crashedRun runs three ranks; rank 2 is killed by the fault plan
// inside its send, so its gst span never closes.
func crashedRun(t *testing.T) *obs.Tracer {
	t.Helper()
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
	return tr
}

// TestStreamAcceptsCrashedRank: a rank the fault plan killed leaves a
// span open, and its crash instant exempts it from span balance.
func TestStreamAcceptsCrashedRank(t *testing.T) {
	tr := crashedRun(t)
	if _, err := FromTracer(tr, Options{}); err != nil {
		t.Fatalf("a run with a crashed rank rejected: %v", err)
	}
	evs := tr.Dump().Ranks[2].Events
	if evs[len(evs)-1].Kind != obs.EvFault || slices.ContainsFunc(evs, func(e obs.Event) bool { return e.Kind == obs.EvPhaseExit }) {
		t.Fatal("rank 2 did not die inside its gst span")
	}
}

// TestDumpExemptsRanksThatDied: a dump carries no exit statuses, so a
// rank whose stream ends in its own crash instant is exempt from span
// balance; the same stream without that instant is not.
func TestDumpExemptsRanksThatDied(t *testing.T) {
	d := crashedRun(t).Dump()
	if _, err := Analyze(d, Options{}); err != nil {
		t.Fatalf("a run whose crashed rank recorded its death rejected: %v", err)
	}
	rank2 := &d.Ranks[2]
	last := rank2.Events[len(rank2.Events)-1]
	if last.Kind != obs.EvFault || last.A != obs.FaultCrash {
		t.Fatalf("rank 2's last event is %v %d, want its crash instant", last.Kind, last.A)
	}
	rank2.Events = rank2.Events[:len(rank2.Events)-1]
	if _, err := Analyze(d, Options{}); err == nil || !strings.Contains(err.Error(), "unclosed") {
		t.Fatalf("an unclosed span on a rank that recorded no death: err = %v", err)
	}
}

func TestStreamRejectsBackwardsClock(t *testing.T) {
	tr := obs.NewTracer(1, 0)
	tr.Emit(0, obs.EvClusterMerge, 5, 5, 0, 0, 0)
	tr.Emit(0, obs.EvClusterMerge, 4, 5, 0, 0, 0)
	if _, err := FromTracer(tr, Options{}); err == nil {
		t.Fatal("a backwards modeled clock accepted")
	}
}

// TestStreamRejectsRecvWithoutSend: rank 1 claims a receive from rank
// 0, which never sent anything, on a trace without seqs, so only the
// channel count can see it.
func TestStreamRejectsRecvWithoutSend(t *testing.T) {
	tr := obs.NewTracer(2, 0)
	tr.Emit(1, obs.EvRecvBegin, 0, 0, 0, 7, 0)
	tr.Emit(1, obs.EvRecvEnd, 0, 0, 0, 7, 16)
	if _, err := FromTracer(tr, Options{}); err == nil || !strings.Contains(err.Error(), "1 receives but only 0 sends") {
		t.Fatalf("a receive with no matching send: err = %v", err)
	}
}

func TestStreamSkipsOverflowedRings(t *testing.T) {
	tr := obs.NewTracer(1, 4) // tiny ring: guaranteed overflow
	for i := 0; i < 64; i++ {
		tr.Emit(0, obs.EvRecvBegin, 0, 0, 0, 7, 0)
		tr.Emit(0, obs.EvRecvEnd, 0, 0, 0, 7, 16)
	}
	rep, err := FromTracer(tr, Options{})
	if err != nil {
		t.Fatalf("strict invariants applied to a truncated stream: %v", err)
	}
	if !slices.Equal(rep.DroppedRanks, []int{0}) {
		t.Fatalf("DroppedRanks = %v, want [0]", rep.DroppedRanks)
	}
}

func TestStreamRejectsSeqGap(t *testing.T) {
	tr := obs.NewTracer(1, 0)
	// Seq jumps 1 -> 3: a send went untraced.
	tr.EmitSeq(0, obs.EvSendBegin, 0, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendEnd, 1, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendBegin, 1, 0, 1, 7, 8, 3)
	tr.EmitSeq(0, obs.EvSendEnd, 2, 0, 1, 7, 8, 3)
	if _, err := FromTracer(tr, Options{}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("a send sequence gap: err = %v", err)
	}
}

func TestStreamRejectsSeqMismatchedRecv(t *testing.T) {
	tr := obs.NewTracer(2, 0)
	tr.EmitSeq(0, obs.EvSendBegin, 0, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendEnd, 1, 0, 1, 7, 8, 1)
	// Receiver claims seq 2, which rank 0 never sent. The channel
	// count alone cannot see this.
	tr.EmitSeq(1, obs.EvRecvBegin, 0, 0, 0, 7, 0, 0)
	tr.EmitSeq(1, obs.EvRecvEnd, 1, 0, 0, 7, 8, 2)
	if _, err := FromTracer(tr, Options{}); err == nil || !strings.Contains(err.Error(), "no such send") {
		t.Fatalf("a receive of a never-sent seq: err = %v", err)
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
	for _, opt := range []Options{{}, {Partial: true}} {
		if _, err := FromTracer(tr, opt); err == nil || !strings.Contains(err.Error(), "delivered more than once") {
			t.Fatalf("a duplicate delivery, Partial %v: err = %v", opt.Partial, err)
		}
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
	rep, err := FromTracer(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeqMatched != 2 {
		t.Fatalf("SeqMatched = %d, want 2", rep.SeqMatched)
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
	rep, err := FromTracer(sends(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12), Options{})
	if err != nil {
		t.Fatalf("send seq gap on an overflowed ring rejected: %v", err)
	}
	if !slices.Equal(rep.DroppedRanks, []int{0}) {
		t.Fatalf("DroppedRanks = %v, want [0]", rep.DroppedRanks)
	}
	if _, err := FromTracer(sends(1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 10), Options{}); err == nil {
		t.Fatal("repeated send seq on an overflowed ring accepted")
	}
	if _, err := FromTracer(sends(1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11), Options{}); err == nil {
		t.Fatal("decreasing send seq on an overflowed ring accepted")
	}
}

// TestFromTracerRejectsRecvBeforeSend: one tracer's ranks share a wall
// clock, so a receive may not complete before its send began; dumps
// merged from several processes carry one clock each and are exempt.
func TestFromTracerRejectsRecvBeforeSend(t *testing.T) {
	clock := time.Unix(0, 0)
	tr := obs.NewTracerAt(2, 0, func() time.Time { return clock })
	set := func(ns int64) { clock = time.Unix(0, ns) }
	set(10)
	tr.EmitSeq(1, obs.EvRecvBegin, 0, 0, 0, 7, 0, 0)
	set(20)
	tr.EmitSeq(1, obs.EvRecvEnd, 1, 0, 0, 7, 8, 1)
	set(30)
	tr.EmitSeq(0, obs.EvSendBegin, 0, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendEnd, 1, 0, 1, 7, 8, 1)
	if _, err := FromTracer(tr, Options{}); err == nil || !strings.Contains(err.Error(), "before its send began") {
		t.Fatalf("a receive completed before its send began: err = %v", err)
	}
	if _, err := Analyze(tr.Dump(), Options{}); err != nil {
		t.Fatalf("a dump's wall clocks were compared across ranks: %v", err)
	}
}

// TestTruncatedRankExemptsOnlyItself: a truncated stream exempts the
// receives of its own sends, and nobody else's traffic: a run that lost
// one worker still certifies exactly-once delivery among the others.
func TestTruncatedRankExemptsOnlyItself(t *testing.T) {
	recv := func(src, seq int64, comm float64) []obs.Event {
		return []obs.Event{
			{Kind: obs.EvRecvBegin, Rank: 1, Comm: comm, A: src, B: 7},
			{Kind: obs.EvRecvEnd, Rank: 1, Comm: comm + 1, A: src, B: 7, C: 8, Seq: uint64(seq)},
		}
	}
	dump := func(rank1 ...[]obs.Event) *obs.Dump {
		return &obs.Dump{Ranks: []obs.RankDump{
			{Rank: 0, Events: []obs.Event{
				{Kind: obs.EvSendBegin, A: 1, B: 7, C: 8, Seq: 1},
				{Kind: obs.EvSendEnd, Comm: 1, A: 1, B: 7, C: 8, Seq: 1},
			}},
			{Rank: 1, Events: slices.Concat(rank1...)},
			{Rank: 2, Dropped: 1}, // killed before its stream was final
		}}
	}
	rep, err := Analyze(dump(recv(0, 1, 0), recv(2, 5, 1)), Options{})
	if err != nil {
		t.Fatalf("a receive from the truncated rank rejected: %v", err)
	}
	if rep.SeqMatched != 1 || rep.Unmatched != 1 {
		t.Fatalf("%d seq-matched, %d unmatched; want 1 and 1", rep.SeqMatched, rep.Unmatched)
	}
	if _, err := Analyze(dump(recv(0, 1, 0), recv(0, 1, 1)), Options{}); err == nil || !strings.Contains(err.Error(), "delivered more than once") {
		t.Fatalf("a duplicated survivor-to-survivor delivery beside a truncated rank: err = %v", err)
	}
	if _, err := Analyze(dump(recv(0, 2, 0)), Options{}); err == nil || !strings.Contains(err.Error(), "no such send") {
		t.Fatalf("a phantom survivor-to-survivor delivery beside a truncated rank: err = %v", err)
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
	merged, err := obs.MergeDumps(perProcessDumps(t)...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(merged, Options{})
	if err != nil {
		t.Fatalf("merged per-process dumps rejected: %v", err)
	}
	if rep.Ranks != 2 || rep.SeqMatched != 1 {
		t.Fatalf("%d ranks, %d seq-matched; want 2 and 1", rep.Ranks, rep.SeqMatched)
	}
}

// TestDumpMergeMissingRankIsTruncated: a rank no dump covers (its
// process was SIGKILLed before writing) counts as truncated, so the
// receive of its send is exempt.
func TestDumpMergeMissingRankIsTruncated(t *testing.T) {
	dumps := perProcessDumps(t)
	for r, d := range dumps {
		merged, err := obs.MergeDumps(d)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(merged, Options{})
		if err != nil {
			t.Fatalf("merge without rank %d rejected: %v", 1-r, err)
		}
		if !slices.Equal(rep.EmptyRanks, []int{1 - r}) || rep.Unmatched != r {
			t.Fatalf("merge without rank %d: empty ranks %v, %d unmatched", 1-r, rep.EmptyRanks, rep.Unmatched)
		}
	}
}

func TestMergeDumpsRejectsDuplicateRank(t *testing.T) {
	dumps := perProcessDumps(t)
	if _, err := obs.MergeDumps(dumps[0], dumps[0]); err == nil {
		t.Fatal("two dumps claiming rank 0 accepted")
	}
}
