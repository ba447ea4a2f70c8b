package launch

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/collector"
	"repro/internal/obs/prof"
)

// Telemetry is the in-process half of a run session: the tracer and
// metrics registry, the run collector (the run's one telemetry
// server), the reporter streaming to it, and the profiling session.
// Session layers process spawning, the transport and signal handling
// on top; the job runner, which has its own drain protocol, uses this
// half alone. Tracer and Registry are
// nil when no telemetry output was requested, which every consumer
// treats as "off". Not safe for concurrent use.
type Telemetry struct {
	Tracer       *obs.Tracer
	Registry     *obs.Registry
	CollectorURL string // base URL of the collector this process reports to ("" = none)

	job     string
	opts    Options
	size    int
	rank    int
	perProc bool // every rank is its own OS process: dumps get a .rank<r> suffix
	spawned bool // re-executed worker rank: stays quiet on stdout

	colSrv *obs.Server
	rep    *collector.Reporter
	prof   *prof.Session
}

// StartTelemetry starts the telemetry half for an in-process run: one
// process whose tracer spans all ranks. Close it exactly once.
func StartTelemetry(job string, ranks int, o Options) (*Telemetry, error) {
	t := &Telemetry{job: job, opts: o, size: ranks}
	if err := t.startCollector(); err != nil {
		return nil, err
	}
	t.start()
	return t, nil
}

// startCollector creates the tracer and registry when some output
// consumes them, then resolves the collector this process reports to:
// an http(s):// value names a running collector; any other non-empty
// value is a listen address this process serves the run-scoped
// collector on, with this process's /metrics and /debug/pprof beside
// the collector's routes. The server must outlive every rank's final
// flush (see Session.release).
func (t *Telemetry) startCollector() error {
	addr := t.opts.Collector
	if addr != "" || t.opts.EventsOut != "" {
		t.Tracer = obs.NewTracer(t.size, obs.DefaultRingCap)
		t.Registry = obs.NewRegistry()
	}
	if addr == "" || isURL(addr) {
		t.CollectorURL = addr
		return nil
	}
	srv, err := collector.New(collector.Config{Ranks: t.size, Job: t.job}).Serve(addr, t.Registry)
	if err != nil {
		return err
	}
	t.colSrv, t.CollectorURL = srv, "http://"+srv.Addr
	fmt.Printf("collector on %s (/status /ranks /healthz /readyz /analyze /events /metrics /debug/pprof)\n", t.CollectorURL)
	return nil
}

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// start brings up the rest of what observes this process: the
// reporter and the profiling session. Neither can fail the run.
func (t *Telemetry) start() {
	o := t.opts
	if t.CollectorURL != "" {
		// An in-process machine has one tracer spanning every rank, so
		// its single reporter covers them all.
		covers := []int{t.rank}
		if !t.perProc {
			covers = make([]int, t.size)
			for i := range covers {
				covers[i] = i
			}
		}
		t.rep = collector.StartReporter(collector.ReporterConfig{
			URL: t.CollectorURL, Rank: t.rank, Covers: covers, Job: t.job,
			Tracer: t.Tracer, Registry: t.Registry,
		})
	}
	if o.ProfDir != "" {
		// PID-unique stems keep multi-process ranks, and a killed
		// attempt and its successor, from clobbering each other in a
		// shared directory.
		sess, err := prof.Start(prof.Config{
			Dir:      o.ProfDir,
			Name:     fmt.Sprintf("rank%d-p%d", t.rank, os.Getpid()),
			Registry: t.Registry,
		})
		if err != nil {
			// Profiling must never take the run down.
			fmt.Fprintf(os.Stderr, "%s: profiling disabled: %v\n", t.job, err)
		}
		t.prof = sess
	}
}

// StopProfile ends the profiling session, if one is running, and
// returns the path of the CPU profile it wrote ("" when none was
// running or stopping it failed). Close calls it; a caller that reads
// the artifact before closing calls it first.
func (t *Telemetry) StopProfile() string {
	if t.prof == nil {
		return ""
	}
	arts, err := t.prof.Stop()
	t.prof = nil
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: profile stop: %v\n", t.job, err)
		return ""
	}
	if !t.spawned {
		fmt.Printf("profile artifacts: %s (asmprof %s)\n", arts.CPU, t.opts.ProfDir)
	}
	return arts.CPU
}

// Close flushes the telemetry with the run's verdict (nil = ok) and
// stops the collector, lingering first so collector pollers observe the
// final state. It returns the first error writing a requested dump.
func (t *Telemetry) Close(runErr error) error {
	err := t.flush(runErr, false)
	t.stop(true)
	return err
}

// flush stops the profiler, writes the events dump, and delivers the
// reporter's final flush. The events file and the final flush share
// one tracer snapshot, so the collector's merged trace is
// byte-identical to merging the per-process dump files.
func (t *Telemetry) flush(runErr error, interrupted bool) error {
	t.StopProfile()
	var dump *obs.Dump
	var err error
	if t.Tracer != nil {
		dump = t.Tracer.Dump()
		err = t.writeDump(t.opts.EventsOut, interrupted, dump)
	}
	reason := ""
	if runErr != nil {
		reason = runErr.Error()
	}
	// Delivery is best-effort by design (telemetry never takes the run
	// down); a failed post is tallied by the reporter.
	_ = t.rep.Close(dump, runErr == nil, reason)
	return err
}

// writeDump writes the events dump under the session's single naming
// rule: <path>, then .rank<r> when every rank is its own OS process
// (asmprof merges them), then .interrupted when a signal cut the run
// short — a partial dump never overwrites a complete one.
func (t *Telemetry) writeDump(path string, interrupted bool, d *obs.Dump) error {
	if path == "" {
		return nil
	}
	if t.perProc {
		path = fmt.Sprintf("%s.rank%d", path, t.rank)
	}
	if interrupted {
		path += ".interrupted"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// stop closes the collector's server. The collector outlives the
// reporters' final flushes: callers stop only after every rank has
// exited.
func (t *Telemetry) stop(linger bool) {
	if t.colSrv != nil {
		if linger {
			time.Sleep(t.opts.CollectorLinger)
		}
		t.colSrv.Close()
	}
}
