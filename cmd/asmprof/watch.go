package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/collector"
)

// pollInterval is how often watch reads a run's events streams.
const pollInterval = 500 * time.Millisecond

// watch reads the run whose -events-out is path (path and
// path.rank*) every interval and appends each status snapshot to out
// until the run completes. It returns the exit status: 0 when the run
// completes OK, 1 when it completes failed or rank 0 is dead with no
// final record, 2 when no stream appears within collector.DeadAfter's
// worth of polls or a stream cannot be read.
//
// A run that was already over when the watch began — rank 0's last
// append is older than the watch — may be an earlier run whose files
// are still at path, so the watch gives its successor the same polls
// to start before it reports the finished run.
func watch(out, errOut io.Writer, path string, interval time.Duration) int {
	began := time.Now()
	for polls := 1; ; polls++ {
		st, err := collector.Read(path, time.Now())
		if err != nil {
			fmt.Fprintln(errOut, "asmprof:", err)
			return 2
		}
		patient := polls <= int(collector.DeadAfter/pollInterval)
		if st.SeenRanks == 0 && !patient {
			fmt.Fprintf(errOut, "asmprof: no events stream at %s or %s.rank*\n", path, path)
			return 2
		}
		over := st.SeenRanks > 0 && (st.Complete || st.Ranks[0].State == collector.StateDead)
		if st.SeenRanks == 0 || over && patient && st.Ranks[0].Appended.Before(began) {
			time.Sleep(interval)
			continue
		}
		render(out, st)
		switch {
		case st.Complete && st.ExitOK:
			return 0
		case over:
			return 1
		}
		fmt.Fprintln(out)
		time.Sleep(interval)
	}
}

// render draws one status snapshot.
func render(w io.Writer, st *collector.Status) {
	verdict := "running"
	if st.Complete {
		verdict = "complete ok"
		if !st.ExitOK {
			verdict = "complete FAILED"
		}
	}
	job := st.Job
	if job == "" {
		job = "?"
	}
	fmt.Fprintf(w, "job %s  ranks %d/%d  records %d  events %d  [%s]\n",
		job, st.SeenRanks, st.ExpectRanks, st.Records, st.EventsTotal, verdict)
	if lv := st.Live; lv != nil {
		fmt.Fprintf(w, "live: makespan %.2fs  comm %.2fs  comp %.2fs  idle %.2fs  slowest r%d",
			lv.MakespanSec, lv.CommSec, lv.CompSec, lv.IdleSec, lv.SlowestRank)
		if lv.Unmatched > 0 {
			fmt.Fprintf(w, "  unmatched %d", lv.Unmatched)
		}
		if lv.Error != "" {
			fmt.Fprintf(w, "  analysis error: %s", lv.Error)
		}
		fmt.Fprintln(w)
		for _, s := range lv.Stragglers {
			fmt.Fprintf(w, "straggler: rank %d in %s — %.2fs vs %.2fs mean (×%.2f)\n",
				s.Rank, s.Phase, s.Sec, s.MeanSec, s.Imbalance)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%4s  %-7s  %6s  %7s  %-14s  %7s  %14s  %14s  %5s  %5s  %-20s  %s\n",
		"RANK", "STATE", "PID", "LAG", "PHASE", "EVENTS", "SENT", "RECV", "IDLE%", "RETX", "RUNTIME", "FLAGS")
	ranks := append([]collector.RankStatus(nil), st.Ranks...)
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].Rank < ranks[j].Rank })
	for _, r := range ranks {
		lag := "-"
		if r.LagMs >= 0 {
			lag = fmt.Sprintf("%dms", r.LagMs)
		}
		phase := r.Phase
		if phase == "" {
			phase = "·"
		}
		var flags []string
		if r.Straggler {
			flags = append(flags, "STRAGGLER")
		}
		if r.Faults > 0 {
			flags = append(flags, fmt.Sprintf("faults=%d", r.Faults))
		}
		if r.Drops > 0 {
			flags = append(flags, fmt.Sprintf("drops=%d", r.Drops))
		}
		if r.LeaseExpires > 0 {
			flags = append(flags, fmt.Sprintf("lease-exp=%d", r.LeaseExpires))
		}
		if r.ExitReason != "" {
			flags = append(flags, r.ExitReason)
		}
		fmt.Fprintf(w, "%4d  %-7s  %6s  %7s  %-14s  %7d  %14s  %14s  %5s  %5d  %-20s  %s\n",
			r.Rank, r.State, orDash(r.PID), lag, phase, r.Events,
			traffic(r.MsgsSent, r.BytesSent), traffic(r.MsgsRecv, r.BytesRecv),
			pct(r.IdlePct, r.TotalSec > 0), r.Retransmits, runtimeCol(r), strings.Join(flags, " "))
	}
}

// runtimeCol renders the rank's runtime health gauges — GC pause p99,
// scheduler latency p99, live heap — shipped by a profiling session's
// runtime/metrics sampler. "-" when the run profiles nothing.
func runtimeCol(r collector.RankStatus) string {
	if r.GCPauseP99Ns == 0 && r.SchedLatP99Ns == 0 && r.HeapLiveBytes == 0 {
		return "-"
	}
	return fmt.Sprintf("gc%s sch%s %s",
		humanNanos(r.GCPauseP99Ns), humanNanos(r.SchedLatP99Ns), humanBytes(r.HeapLiveBytes))
}

func humanNanos(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fs", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.0fms", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.0fµs", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dns", n)
	}
}

func orDash(pid int) string {
	if pid == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", pid)
}

func pct(v float64, known bool) string {
	if !known {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", v) // IdlePct is already 0–100
}

// traffic renders "messages/bytes" compactly (e.g. "412/1.3MB").
func traffic(msgs, bytes int64) string {
	return fmt.Sprintf("%d/%s", msgs, humanBytes(bytes))
}

func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
