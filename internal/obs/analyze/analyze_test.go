package analyze

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// handScript builds a two-rank dump by hand where every synchronized
// time is known:
//
//	rank 0: compute 3s, send 10 bytes to rank 1, compute 1s
//	rank 1: compute 1s, recv (blocks 2s+comm), compute 2s
//
// With alpha=1s, beta=10 B/s the transfer costs 2s on each side.
func handScript(t *testing.T) *obs.Dump {
	t.Helper()
	epoch := time.Unix(0, 0)
	tr := obs.NewTracerAt(2, 64, func() time.Time { return epoch })

	// rank 0: clocks are (comm, comp) at emission time.
	tr.EmitSeq(0, obs.EvPhaseEnter, 0, 0, obs.PhaseGST, 0, 0, 0)
	tr.EmitSeq(0, obs.EvSendBegin, 0, 3, 1, 7, 10, 1)
	tr.EmitSeq(0, obs.EvSendEnd, 2, 3, 1, 7, 10, 1)
	tr.EmitSeq(0, obs.EvPhaseExit, 2, 4, obs.PhaseGST, 0, 0, 0)

	tr.EmitSeq(1, obs.EvRecvBegin, 0, 1, 0, 7, 0, 0)
	tr.EmitSeq(1, obs.EvRecvEnd, 2, 1, 0, 7, 10, 1)
	tr.EmitSeq(1, obs.EvPhaseEnter, 2, 1, obs.PhaseCluster, 0, 0, 0)
	tr.EmitSeq(1, obs.EvPhaseExit, 2, 3, obs.PhaseCluster, 0, 0, 0)
	return tr.Dump()
}

func TestHandScriptedDAG(t *testing.T) {
	rep, err := Analyze(handScript(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// rank 0 finishes at 6s local = 6s synchronized (no waits).
	// rank 1: recv-begin at local 1s; recv-end arrival = max(send
	// begin v=3, local 1) ... send-begin v = 3 (3s comp charged at
	// send-begin). recv-end delta = 2 comm + 0 comp => v = 5? No:
	// arrival = max(progPred v=1, msgPred v=3) = 3, delta=2 => v=5,
	// idle=2. Then 2s compute => final v=7.
	if got := rep.RankTotals[1].TotalSec; math.Abs(got-7) > 1e-9 {
		t.Fatalf("rank 1 synchronized finish = %v, want 7", got)
	}
	if math.Abs(rep.MakespanSec-7) > 1e-9 {
		t.Fatalf("makespan = %v, want 7", rep.MakespanSec)
	}
	if rep.SlowestRank != 1 {
		t.Fatalf("slowest rank = %d, want 1", rep.SlowestRank)
	}
	if got := rep.RankTotals[1].IdleSec; math.Abs(got-2) > 1e-9 {
		t.Fatalf("rank 1 idle = %v, want 2", got)
	}
	// Raw makespan is the max local clock: rank 0 at 6s, rank 1 at 5s.
	if math.Abs(rep.RawMakespanSec-6) > 1e-9 {
		t.Fatalf("raw makespan = %v, want 6", rep.RawMakespanSec)
	}
	// Critical path: rank 0 through the send, hop to rank 1.
	if math.Abs(rep.CriticalPath.LengthSec-rep.MakespanSec) > 1e-12 {
		t.Fatalf("critical path %v != makespan %v", rep.CriticalPath.LengthSec, rep.MakespanSec)
	}
	if rep.CriticalPath.Hops != 1 {
		t.Fatalf("hops = %d, want 1", rep.CriticalPath.Hops)
	}
	if len(rep.CriticalPath.Segments) != 2 ||
		rep.CriticalPath.Segments[0].Rank != 0 || rep.CriticalPath.Segments[1].Rank != 1 {
		t.Fatalf("segments = %+v", rep.CriticalPath.Segments)
	}
	if rep.CriticalPath.Segments[1].Via != "msg" {
		t.Fatalf("second segment via = %q, want msg", rep.CriticalPath.Segments[1].Via)
	}
	assertConsistent(t, rep)
}

// assertConsistent checks the structural identities every report must
// satisfy: per-rank totals decompose exactly, phases partition the
// totals, and the critical path's phase attribution sums to its length.
func assertConsistent(t *testing.T, rep *Report) {
	t.Helper()
	var comm, comp, idle float64
	for _, rt := range rep.RankTotals {
		if d := math.Abs(rt.TotalSec - (rt.CommSec + rt.CompSec + rt.IdleSec)); d > 1e-6 {
			t.Errorf("rank %d: total %v != comm+comp+idle %v", rt.Rank, rt.TotalSec,
				rt.CommSec+rt.CompSec+rt.IdleSec)
		}
		comm += rt.CommSec
		comp += rt.CompSec
		idle += rt.IdleSec
	}
	if math.Abs(comm-rep.CommSec)+math.Abs(comp-rep.CompSec)+math.Abs(idle-rep.IdleSec) > 1e-6 {
		t.Errorf("rank totals disagree with run totals")
	}
	var pcomm, pcomp, pidle float64
	for _, ps := range rep.Phases {
		pcomm += ps.CommSec
		pcomp += ps.CompSec
		pidle += ps.IdleSec
	}
	if math.Abs(pcomm-rep.CommSec)+math.Abs(pcomp-rep.CompSec)+math.Abs(pidle-rep.IdleSec) > 1e-6 {
		t.Errorf("phase decomposition (%v,%v,%v) does not partition run totals (%v,%v,%v)",
			pcomm, pcomp, pidle, rep.CommSec, rep.CompSec, rep.IdleSec)
	}
	var cp float64
	for _, p := range rep.CriticalPath.PhaseTotals {
		cp += p.Sec
	}
	if math.Abs(cp-rep.CriticalPath.LengthSec) > 1e-6 {
		t.Errorf("critical-path phase totals %v != length %v", cp, rep.CriticalPath.LengthSec)
	}
	if math.Abs(rep.CriticalPath.LengthSec-rep.MakespanSec) > 1e-9+rep.MakespanSec*1e-9 {
		t.Errorf("critical path %v != makespan %v", rep.CriticalPath.LengthSec, rep.MakespanSec)
	}
}

// TestLiveMachine runs a real communication pattern through par and
// checks the DAG invariants hold on the resulting trace.
func TestLiveMachine(t *testing.T) {
	const ranks = 4
	tr := obs.NewTracer(ranks, 1<<12)
	cfg := par.Config{
		Ranks: ranks, Alpha: time.Millisecond, Beta: 1 << 20, Trace: tr,
	}
	par.Run(cfg, func(c *par.Comm) {
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGST, 0, 0)
		// Ring shift with unequal compute so ranks finish staggered.
		c.ChargeCompute(float64(c.Rank()+1) * 0.010)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		c.Send(next, 5, make([]byte, 1024))
		c.Recv(prev, 5)
		c.Barrier()
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseGST, 0, 0)
	})
	rep, err := FromTracer(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != ranks {
		t.Fatalf("ranks = %d", rep.Ranks)
	}
	if rep.MakespanSec < rep.RawMakespanSec-1e-12 {
		t.Fatalf("synchronized makespan %v < raw %v", rep.MakespanSec, rep.RawMakespanSec)
	}
	// The barrier synchronizes everyone behind rank 3's 40ms compute,
	// so every rank's synchronized finish time is near the makespan.
	for _, rt := range rep.RankTotals {
		if rt.TotalSec < rep.MakespanSec*0.9 {
			t.Errorf("rank %d finishes at %v, long before makespan %v — barrier edge missing?",
				rt.Rank, rt.TotalSec, rep.MakespanSec)
		}
	}
	assertConsistent(t, rep)
}

func TestMultiRunRejected(t *testing.T) {
	tr := obs.NewTracer(1, 64)
	par.Run(par.Config{Ranks: 1, Trace: tr}, func(c *par.Comm) {
		c.ChargeCompute(0.5)
		c.TraceEvent(obs.EvCheckpoint, 1, 0, 0)
	})
	// Second run on the same tracer: modeled clock restarts at zero.
	par.Run(par.Config{Ranks: 1, Trace: tr}, func(c *par.Comm) {
		c.TraceEvent(obs.EvCheckpoint, 2, 0, 0)
	})
	if _, err := FromTracer(tr, Options{}); err == nil {
		t.Fatal("multi-run dump accepted")
	} else if !strings.Contains(err.Error(), "more than one run") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAnnotatedChrome(t *testing.T) {
	d := handScript(t)
	rep, err := Analyze(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteAnnotatedChrome(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"crit":true`) {
		t.Fatal("no critical-path annotations in chrome output")
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "critical path") {
		t.Fatal("text report missing critical path section")
	}
}

// TestPartialToleratesUnmatchedRecv: in Partial mode a recv whose send
// has not been streamed yet is counted, not fatal; strict mode keeps
// rejecting it.
func TestPartialToleratesUnmatchedRecv(t *testing.T) {
	d := &obs.Dump{Ranks: []obs.RankDump{{
		Rank: 1,
		Events: []obs.Event{
			{Kind: obs.EvRecvBegin, Rank: 1, Comp: 1, A: 0, B: 7},
			{Kind: obs.EvRecvEnd, Rank: 1, Comm: 2, Comp: 1, A: 0, B: 7, C: 10, Seq: 1},
		},
	}}}
	if _, err := Analyze(d, Options{}); err == nil {
		t.Fatal("strict mode accepted an unmatched recv")
	}
	rep, err := Analyze(d, Options{Partial: true})
	if err != nil {
		t.Fatalf("partial mode: %v", err)
	}
	if rep.Unmatched != 1 {
		t.Fatalf("Unmatched = %d, want 1", rep.Unmatched)
	}
}
