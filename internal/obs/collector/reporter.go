package collector

import (
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// interval is how often a running reporter appends a record.
const interval = 200 * time.Millisecond

// PartSuffix names a stream while its writer appends to it: Path +
// PartSuffix. The final record publishes it under Path (Close) or
// Path + ".interrupted" (Interrupt), so a stream cut short never
// replaces a finished one an earlier run left at Path.
const PartSuffix = ".part"

// ReporterConfig wires one process's telemetry to its events stream.
type ReporterConfig struct {
	// Path is the name the finished stream takes. The process covering
	// rank 0, whose stream carries the run's verdict, creates its
	// stream (Path + PartSuffix, replacing any earlier one) as the
	// reporter starts; any other waits for its tracer's first event (or
	// its final record), so a worker rank killed before it traced
	// anything leaves no file.
	Path string
	// Run is the run's start in Unix nanoseconds, the same in every
	// process of the run (default: now, for a run of one process).
	// Readers of a path follow the newest run whose streams it holds.
	Run int64
	// Rank identifies this process; Covers lists the ranks whose rings
	// this process's tracer owns (default: just Rank; an in-process
	// machine passes every rank). Size is the machine size (default:
	// the highest covered rank + 1).
	Rank   int
	Covers []int
	Size   int
	Job    string
	Tracer *obs.Tracer
	// Registry is captured whole into every record (nil: empty).
	Registry *obs.Registry
}

// Reporter appends the tracer's new events and a snapshot of the
// registry to the stream every interval. Telemetry must never take
// the run down, so a failed write is not retried: the file is cut back
// to its last whole record, and the next record adds the lost events
// to each rank's drop count, so readers see the gap. Every record
// carries the whole registry, so a lost one costs no metrics. The
// stream is never synced: it is telemetry, not resume state.
type Reporter struct {
	cfg ReporterConfig

	mu      sync.Mutex // serializes appends (ticker vs Close)
	f       *os.File   // nil until the first append
	off     int64      // length of the whole records written
	cursors map[int]uint64
	lost    map[int]uint64 // events of failed writes, per rank, not yet reported
	closed  bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartReporter begins streaming and returns the running reporter.
func StartReporter(cfg ReporterConfig) *Reporter {
	if len(cfg.Covers) == 0 {
		cfg.Covers = []int{cfg.Rank}
	}
	if cfg.Size == 0 {
		cfg.Size = max(cfg.Rank, slices.Max(cfg.Covers)) + 1
	}
	if cfg.Run == 0 {
		cfg.Run = time.Now().UnixNano()
	}
	r := &Reporter{cfg: cfg, cursors: map[int]uint64{}, lost: map[int]uint64{},
		stop: make(chan struct{}), done: make(chan struct{})}
	if slices.Contains(cfg.Covers, 0) {
		// A watcher sees the run from its start, not an earlier
		// run's streams left at the same path. A failed append is
		// retried by the next one, like any other.
		_ = r.Flush()
	}
	go r.loop()
	return r
}

func (r *Reporter) loop() {
	defer close(r.done)
	tick := time.NewTicker(interval)
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

// gather builds the next record under the append lock.
func (r *Reporter) gather() *obs.Record {
	rec := &obs.Record{
		Run:     r.cfg.Run,
		Job:     r.cfg.Job,
		Rank:    r.cfg.Rank,
		PID:     os.Getpid(),
		Size:    r.cfg.Size,
		Covers:  r.cfg.Covers,
		Metrics: obs.CaptureMetrics(r.cfg.Registry),
	}
	for _, rank := range r.cfg.Covers {
		evs, next, lost := r.cfg.Tracer.EventsSince(rank, r.cursors[rank])
		r.cursors[rank] = next
		lost += r.lost[rank]
		delete(r.lost, rank)
		if len(evs) > 0 || lost > 0 {
			rec.Streams = append(rec.Streams, obs.RankDump{Rank: rank, Dropped: lost, Events: evs})
		}
	}
	return rec
}

// append writes rec, and on failure keeps its batches' tally for the
// next record's drop counts.
func (r *Reporter) append(rec *obs.Record) error {
	if r.f == nil && len(rec.Streams) == 0 && !rec.Final && !slices.Contains(r.cfg.Covers, 0) {
		return nil // a worker rank that has traced nothing yet
	}
	err := r.write(rec)
	if err != nil {
		for _, st := range rec.Streams {
			r.lost[st.Rank] += uint64(len(st.Events)) + st.Dropped
		}
	}
	return err
}

func (r *Reporter) write(rec *obs.Record) error {
	if r.f == nil {
		f, err := os.OpenFile(r.cfg.Path+PartSuffix, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		r.f = f
	}
	if err := obs.WriteRecord(r.f, rec); err != nil {
		r.f.Truncate(r.off) // best effort: no torn line before the next record
		return err
	}
	r.off, _ = r.f.Seek(0, io.SeekCurrent)
	return nil
}

// Flush appends one record now.
func (r *Reporter) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	return r.append(r.gather())
}

// Close stops the periodic loop, appends the final record with the
// exit verdict, closes the stream and publishes it under Path. A
// stream whose final record failed stays under its working name. Safe
// to call more than once; a nil reporter is a no-op so call sites need
// no guards.
func (r *Reporter) Close(exitOK bool, reason string) error {
	if r == nil {
		return nil
	}
	return r.finish(exitOK, reason, r.cfg.Path)
}

// Interrupt is Close for a process cut short by a signal: the stream,
// its verdict failed, is published under Path + ".interrupted".
func (r *Reporter) Interrupt(reason string) error {
	if r == nil {
		return nil
	}
	return r.finish(false, reason, r.cfg.Path+".interrupted")
}

func (r *Reporter) finish(exitOK bool, reason, name string) error {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	rec := r.gather()
	rec.Final, rec.ExitOK, rec.ExitReason = true, exitOK, reason
	err := r.append(rec)
	if r.f != nil {
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(r.cfg.Path+PartSuffix, name)
	}
	return err
}
