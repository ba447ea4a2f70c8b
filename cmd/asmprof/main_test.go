package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
)

// writePerProcessDumps runs a 3-rank machine and writes each rank's
// events as its own stream, the shape a multi-process transport run
// leaves on disk (FILE.rank<r>).
func writePerProcessDumps(t *testing.T) []string {
	t.Helper()
	tr := obs.NewTracer(3, 0)
	cfg := par.DefaultConfig(3)
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
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseCluster, 0, 0)
	})
	full := tr.Dump()
	dir := t.TempDir()
	var paths []string
	for r, rd := range full.Ranks {
		d := &obs.Dump{Ranks: make([]obs.RankDump, len(full.Ranks))}
		d.Ranks[r] = rd
		paths = append(paths, writeDump(t, filepath.Join(dir, fmt.Sprintf("ev.json.rank%d", r)), d))
	}
	return paths
}

// writeDump writes d as a finished one-record events stream whose
// writer covers the ranks d holds events for.
func writeDump(t *testing.T, path string, d *obs.Dump) string {
	t.Helper()
	rec := &obs.Record{Size: len(d.Ranks), Final: true, ExitOK: true}
	for _, rd := range d.Ranks {
		if len(rd.Events) > 0 || rd.Dropped > 0 {
			rec.Covers = append(rec.Covers, rd.Rank)
			rec.Streams = append(rec.Streams, rd)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteRecord(f, rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExplainMergesPerProcessDumps: per-process dumps merge, pass the
// stream invariants and are explained; -chrome writes exactly what
// analyze renders for the merged dump.
func TestExplainMergesPerProcessDumps(t *testing.T) {
	paths := writePerProcessDumps(t)
	chrome := filepath.Join(t.TempDir(), "run.trace.json")
	var out, errOut bytes.Buffer
	if err := explain(&out, &errOut, paths, 0, false, chrome); err != nil {
		t.Fatalf("per-process dumps rejected: %v", err)
	}
	trust, report, _ := strings.Cut(out.String(), "\n")
	if !strings.HasPrefix(trust, "trace ok: 3 ranks, ") || !strings.Contains(trust, " 2 seq-matched recvs, 0 truncated rank(s)") {
		t.Errorf("trust line %q", trust)
	}
	if !strings.HasPrefix(report, "causal analysis: 3 ranks") {
		t.Errorf("report starts %q", report[:min(len(report), 40)])
	}

	d, rep, err := analyzeDumps(paths, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.WriteAnnotatedChrome(&want, d); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("-chrome output differs from analyze's annotated Chrome trace of the merged dump")
	}

	// Under -json the trust line moves to errOut and out is one document.
	out.Reset()
	errOut.Reset()
	if err := explain(&out, &errOut, paths, 0, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(errOut.String(), "trace ok: ") || !strings.HasPrefix(out.String(), "{") {
		t.Errorf("-json: stdout starts %q, stderr %q", out.String()[:min(out.Len(), 20)], errOut.String())
	}
}

// TestExplainRejectsDuplicateDelivery: a dump in which one (src, seq)
// is received twice fails the stream invariants, so asmprof explains
// nothing and writes no Chrome trace.
func TestExplainRejectsDuplicateDelivery(t *testing.T) {
	tr := obs.NewTracer(3, 0)
	tr.EmitSeq(0, obs.EvSendBegin, 0, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendEnd, 1, 0, 1, 7, 8, 1)
	tr.EmitSeq(0, obs.EvSendBegin, 1, 0, 2, 7, 8, 2)
	tr.EmitSeq(0, obs.EvSendEnd, 2, 0, 2, 7, 8, 2)
	for r := 1; r <= 2; r++ {
		tr.EmitSeq(r, obs.EvRecvBegin, 0, 0, 0, 7, 0, 0)
		tr.EmitSeq(r, obs.EvRecvEnd, 1, 0, 0, 7, 8, 1)
	}
	dir := t.TempDir()
	path := writeDump(t, filepath.Join(dir, "ev.json"), tr.Dump())
	chrome := filepath.Join(dir, "run.trace.json")
	var out, errOut bytes.Buffer
	err := explain(&out, &errOut, []string{path}, 0, false, chrome)
	if err == nil || !strings.Contains(err.Error(), "delivered more than once") {
		t.Fatalf("duplicate delivery: err = %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("a rejected dump was explained:\n%s", out.String())
	}
	if _, err := os.Stat(chrome); err == nil {
		t.Error("a rejected dump was rendered")
	}
}

// TestEmptyRankIsNotWrapped: a serial run's dump holds no events,
// since only the parallel runtime records, and that is not a truncated
// stream; a ring that did wrap is still reported as one.
func TestEmptyRankIsNotWrapped(t *testing.T) {
	dir := t.TempDir()
	explained := func(name string, tr *obs.Tracer) string {
		var out, errOut bytes.Buffer
		if err := explain(&out, &errOut, []string{writeDump(t, filepath.Join(dir, name), tr.Dump())}, 0, false, ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return errOut.String() + out.String()
	}
	got := explained("serial.json", obs.NewTracer(1, 0))
	if !strings.Contains(got, "0 truncated rank(s), 1 rank(s) with no events") || strings.Contains(got, "truncated streams") {
		t.Errorf("an empty one-rank dump reads as wrapped:\n%s", got)
	}
	tr := obs.NewTracer(1, 8)
	for i := 0; i < 12; i++ {
		tr.EmitSeq(0, obs.EvSendBegin, float64(i), 0, 0, 7, 8, uint64(i+1))
		tr.EmitSeq(0, obs.EvSendEnd, float64(i+1), 0, 0, 7, 8, uint64(i+1))
	}
	got = explained("wrapped.json", tr)
	if !strings.Contains(got, "1 truncated rank(s), 0 rank(s) with no events") || !strings.Contains(got, "WARNING: truncated streams on ranks [0] (a wrapped ring, or a writer that stopped before its final record)") {
		t.Errorf("a wrapped ring is not reported as wrapped:\n%s", got)
	}
}
