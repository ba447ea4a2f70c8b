package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// ReporterConfig wires one process's telemetry stream to a collector.
type ReporterConfig struct {
	// URL is the collector's base URL (http://host:port).
	URL string
	// Rank identifies this process; Covers lists the ranks whose rings
	// this process's tracer owns (default: just Rank; an in-process
	// machine passes every rank).
	Rank   int
	Covers []int
	Job    string
	// Interval between reports (default 200ms).
	Interval time.Duration
	Tracer   *obs.Tracer
	Registry *obs.Registry
	// Client overrides the HTTP client (tests); default has a 5s
	// timeout so a wedged collector cannot block the final flush.
	Client *http.Client
}

// Reporter periodically ships the tracer's new events and a snapshot
// of the registry to the collector. Delivery is best-effort by design:
// telemetry must never take the run down, so a failed post is counted
// and not retried. Cursors are not rewound; the next report adds the
// lost events to each stream's drop count, so the collector marks the
// gap, and the final flush carries the full dump that makes the
// collector whole regardless of what streaming missed. Every report
// carries the whole registry, so a lost one costs no metrics.
type Reporter struct {
	cfg    ReporterConfig
	client *http.Client

	mu      sync.Mutex // serializes flushes (ticker vs Close)
	cursors map[int]uint64
	lost    map[int]uint64 // events of failed posts, per rank, not yet reported
	seq     uint64
	failed  uint64
	closed  bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartReporter begins streaming and returns the running reporter.
func StartReporter(cfg ReporterConfig) *Reporter {
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if len(cfg.Covers) == 0 {
		cfg.Covers = []int{cfg.Rank}
	}
	r := &Reporter{
		cfg:     cfg,
		client:  cfg.Client,
		cursors: map[int]uint64{},
		lost:    map[int]uint64{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: 5 * time.Second}
	}
	go r.loop()
	return r
}

func (r *Reporter) loop() {
	defer close(r.done)
	tick := time.NewTicker(r.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			_ = r.Flush()
		}
	}
}

// gather builds the next report under the flush lock.
func (r *Reporter) gather() *Report {
	r.seq++
	rep := &Report{
		Version: ProtoVersion,
		Job:     r.cfg.Job,
		Rank:    r.cfg.Rank,
		PID:     os.Getpid(),
		Seq:     r.seq,
		Covers:  r.cfg.Covers,
		Metrics: obs.CaptureMetrics(r.cfg.Registry),
	}
	for _, rank := range r.cfg.Covers {
		evs, next, lost := r.cfg.Tracer.EventsSince(rank, r.cursors[rank])
		r.cursors[rank] = next
		lost += r.lost[rank]
		delete(r.lost, rank)
		if len(evs) > 0 || lost > 0 {
			rep.Streams = append(rep.Streams, RankStream{Rank: rank, Events: evs, Dropped: lost})
		}
	}
	return rep
}

// send posts rep, and on failure counts it and keeps its events'
// tally for the next report's drop counts.
func (r *Reporter) send(rep *Report) error {
	err := r.post(rep)
	if err != nil {
		r.failed++
		for _, st := range rep.Streams {
			r.lost[st.Rank] += uint64(len(st.Events)) + st.Dropped
		}
	}
	return err
}

func (r *Reporter) post(rep *Report) error {
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	resp, err := r.client.Post(r.cfg.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("collector: ingest returned %s", resp.Status)
	}
	return nil
}

// Flush gathers and posts one report now. Errors are also tallied in
// Failed — the periodic loop ignores them.
func (r *Reporter) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	return r.send(r.gather())
}

// Failed returns how many reports could not be delivered.
func (r *Reporter) Failed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Close stops the periodic loop and delivers the final flush: the
// process's authoritative full dump (d, or the tracer's current dump
// when nil), its metrics, and the exit verdict. Safe to
// call once; a nil reporter is a no-op so call sites need no guards.
func (r *Reporter) Close(d *obs.Dump, exitOK bool, reason string) error {
	if r == nil {
		return nil
	}
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if d == nil {
		d = r.cfg.Tracer.Dump()
	}
	rep := r.gather()
	rep.Final = true
	rep.FinalDump = d
	rep.ExitOK = exitOK
	rep.ExitReason = reason
	return r.send(rep)
}
