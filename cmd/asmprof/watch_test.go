package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/collector"
)

func TestRender(t *testing.T) {
	st := &collector.Status{
		Job: "asmcluster", UptimeSec: 12.3,
		ExpectRanks: 4, SeenRanks: 4, Reports: 80, EventsTotal: 3000,
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

// TestWatchExitCodes: URL mode polls until the run completes and exits
// with the run's verdict, or 2 when no collector ever answered.
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
			// Two running snapshots, then the verdict.
			var mu sync.Mutex
			polls := 0
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/status" {
					http.NotFound(w, r)
					return
				}
				mu.Lock()
				polls++
				st := collector.Status{Job: "t", ExpectRanks: 1, SeenRanks: 1, Complete: polls > 2, ExitOK: tc.exitOK}
				mu.Unlock()
				json.NewEncoder(w).Encode(st)
			}))
			defer srv.Close()
			var out, errOut strings.Builder
			if got := watch(&out, &errOut, srv.URL+"/", time.Millisecond); got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, out.String(), errOut.String())
			}
			if n := strings.Count(out.String(), "job t"); n != 3 {
				t.Errorf("%d snapshots rendered, want 3:\n%s", n, out.String())
			}
		})
	}

	t.Run("unreachable", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close() // nothing listens here now
		var out, errOut strings.Builder
		if got := watch(&out, &errOut, "http://"+addr, time.Millisecond); got != 2 {
			t.Fatalf("exit %d, want 2\nstderr: %s", got, errOut.String())
		}
	})
}
