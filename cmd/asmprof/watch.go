package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/collector"
)

// pollInterval is how often watch polls a run collector's /status.
const pollInterval = 500 * time.Millisecond

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// watch polls url's /status every interval and appends each snapshot
// to out until the run completes. It returns the exit status: 0 when
// the run completes OK or the collector goes away after it was seen,
// 1 when the run completes failed, 2 when the collector was never
// reachable.
func watch(out, errOut io.Writer, url string, interval time.Duration) int {
	url = strings.TrimSuffix(url, "/")
	client := &http.Client{Timeout: 5 * time.Second}
	for seen := false; ; seen = true {
		st, err := poll(client, url)
		if err != nil {
			if !seen {
				fmt.Fprintln(errOut, "asmprof:", err)
				return 2
			}
			// The collector went away after we saw it live: the job
			// process exited. Whatever we last rendered stands.
			fmt.Fprintf(out, "collector gone (%v)\n", err)
			return 0
		}
		render(out, st)
		if st.Complete {
			if st.ExitOK {
				return 0
			}
			return 1
		}
		fmt.Fprintln(out)
		time.Sleep(interval)
	}
}

func poll(client *http.Client, url string) (*collector.Status, error) {
	resp, err := client.Get(url + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%s/status returned %s", url, resp.Status)
	}
	var st collector.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /status: %w", err)
	}
	return &st, nil
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
	fmt.Fprintf(w, "job %s  up %5.1fs  ranks %d/%d  reports %d  events %d  [%s]\n",
		job, st.UptimeSec, st.SeenRanks, st.ExpectRanks, st.Reports, st.EventsTotal, verdict)
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
