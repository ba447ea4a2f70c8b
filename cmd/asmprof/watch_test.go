package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/collector"
)

func TestRender(t *testing.T) {
	st := &collector.Status{
		Job:         "asmcluster",
		ExpectRanks: 4, SeenRanks: 4, Records: 80, EventsTotal: 3000,
		Live: &collector.LiveAnalysis{
			MakespanSec: 1.5, CommSec: 0.2, CompSec: 0.9, IdleSec: 0.4,
			SlowestRank: 3, Unmatched: 5,
			Stragglers: []collector.StragglerNote{
				{Rank: 1, Phase: "pairgen", Sec: 0.8, MeanSec: 0.3, Imbalance: 2.67},
			},
		},
		Ranks: []collector.RankStatus{
			{Rank: 3, State: collector.StateAlive, PID: 42, LagMs: 120, Phase: "gst",
				Events: 900, MsgsSent: 10, BytesSent: 2 << 20, IdlePct: 31, TotalSec: 1},
			{Rank: 0, State: collector.StateAlive, PID: 41, LagMs: 90, Phase: "master",
				Events: 1200, IdlePct: 99, TotalSec: 1},
			{Rank: 2, State: collector.StateDead, LagMs: 9000, Phase: "gst",
				Events: 1, LeaseExpires: 2},
			{Rank: 1, State: collector.StateAlive, PID: 43, LagMs: 100, Phase: "pairgen",
				Events: 800, Straggler: true, IdlePct: 12, TotalSec: 1},
		},
	}
	var b strings.Builder
	render(&b, st)
	out := b.String()

	for _, want := range []string{
		"job asmcluster",
		"ranks 4/4",
		"[running]",
		"unmatched 5",
		"straggler: rank 1 in pairgen",
		"STRAGGLER",
		"lease-exp=2",
		"dead",
		"10/2.0MB",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// Rows come out rank-sorted regardless of input order.
	last := -1
	for _, row := range []string{"\n   0  ", "\n   1  ", "\n   2  ", "\n   3  "} {
		idx := strings.Index(out, row)
		if idx < 0 || idx < last {
			t.Fatalf("ranks not sorted (row %q at %d, prev %d):\n%s", row, idx, last, out)
		}
		last = idx
	}
	// A rank that never reported has no PID and no idle share.
	deadRow := out[strings.Index(out, "\n   2  "):]
	deadRow = deadRow[:strings.Index(deadRow[1:], "\n")+1]
	if !strings.Contains(deadRow, "-") {
		t.Errorf("dead row should dash out unknown fields: %q", deadRow)
	}

	st.Complete = true
	st.ExitOK = true
	b.Reset()
	render(&b, st)
	if !strings.Contains(b.String(), "[complete ok]") {
		t.Errorf("complete-ok verdict missing:\n%s", b.String())
	}
	st.ExitOK = false
	b.Reset()
	render(&b, st)
	if !strings.Contains(b.String(), "[complete FAILED]") {
		t.Errorf("failed verdict missing:\n%s", b.String())
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1 << 10, "1.0KB"},
		{3 << 20, "3.0MB"},
		{5 << 30, "5.0GB"},
	}
	for _, c := range cases {
		if got := humanBytes(c.in); got != c.want {
			t.Errorf("humanBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// syncBuffer is an output the test reads while watch writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// appendRecord appends one record of a one-rank run's stream.
func appendRecord(t *testing.T, path string, rec obs.Record) {
	t.Helper()
	rec.Job, rec.Size, rec.Covers = "t", 1, []int{0}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteRecord(f, &rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchExitCodes: -watch follows a stream until the run completes
// and exits with the run's verdict, 1 when rank 0 died without one, or
// 2 when no stream ever appeared. Once the run is over, watching its
// files again prints exactly the last live snapshot.
func TestWatchExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		exitOK bool
		want   int
	}{
		{"complete-ok", true, 0},
		{"complete-failed", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ev.json")
			appendRecord(t, path, obs.Record{})
			var out, errOut syncBuffer
			code := make(chan int, 1)
			go func() { code <- watch(&out, &errOut, path, time.Millisecond) }()
			// Two running snapshots, then the verdict.
			for strings.Count(out.String(), "[running]") < 2 {
				select {
				case got := <-code:
					t.Fatalf("watch exited %d before the verdict:\n%s%s", got, out.String(), errOut.String())
				case <-time.After(time.Millisecond):
				}
			}
			appendRecord(t, path, obs.Record{Final: true, ExitOK: tc.exitOK})
			if got := <-code; got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, out.String(), errOut.String())
			}
			live := out.String()
			last := live[strings.LastIndex(live, "job t "):]
			if strings.Count(live, "job t ") < 3 || !strings.Contains(last, "[complete") {
				t.Errorf("want running snapshots, then the verdict:\n%s", live)
			}
			var again strings.Builder
			if got := watch(&again, io.Discard, path, time.Millisecond); got != tc.want || again.String() != last {
				t.Errorf("watching the finished run: exit %d, output\n%s\nwant the last live snapshot\n%s", got, again.String(), last)
			}
		})
	}

	t.Run("rank0-dead", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ev.json")
		appendRecord(t, path, obs.Record{})
		old := time.Now().Add(-collector.DeadAfter)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if got := watch(&out, io.Discard, path, time.Millisecond); got != 1 || !strings.Contains(out.String(), "dead") {
			t.Fatalf("exit %d, want 1 with rank 0 dead:\n%s", got, out.String())
		}
	})

	// An earlier run's finished stream at the path is not the verdict
	// of the run the watch was started for.
	t.Run("earlier-run", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ev.json")
		appendRecord(t, path, obs.Record{Run: 1, Final: true, ExitOK: true})
		old := time.Now().Add(-time.Hour)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		var out, errOut syncBuffer
		code := make(chan int, 1)
		go func() { code <- watch(&out, &errOut, path, 50*time.Millisecond) }()
		appendRecord(t, path+collector.PartSuffix, obs.Record{Run: 2})
		for !strings.Contains(out.String(), "[running]") {
			select {
			case got := <-code:
				t.Fatalf("watch exited %d on the earlier run:\n%s%s", got, out.String(), errOut.String())
			case <-time.After(time.Millisecond):
			}
		}
		appendRecord(t, path+collector.PartSuffix, obs.Record{Run: 2, Final: true})
		if got := <-code; got != 1 || strings.Contains(out.String(), "[complete ok]") {
			t.Fatalf("exit %d, want 1 with the new run's verdict alone:\n%s", got, out.String())
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		var out, errOut strings.Builder
		if got := watch(&out, &errOut, filepath.Join(t.TempDir(), "ev.json"), time.Millisecond); got != 2 {
			t.Fatalf("exit %d, want 2\nstderr: %s", got, errOut.String())
		}
	})
}
