package launch

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/collector"
	"repro/internal/obs/prof"
	"repro/internal/par/nettrans"
)

// CollectorService is the rendezvous-registry service name under which
// a run's collector base URL is published, so asmtop (and late-joining
// workers) can discover the collector from the registry directory
// alone.
const CollectorService = "collector"

// Telemetry is the in-process half of a run session: the run
// collector, the tracer and metrics registry, this rank's
// observability server, the reporter streaming to the collector, and
// the profiling session. Session layers process spawning, the
// transport and signal handling on top; the job runner, which has its
// own drain protocol, uses this half alone. Tracer and Registry are
// nil when no telemetry output was requested, which every consumer
// treats as "off". Not safe for concurrent use.
type Telemetry struct {
	Tracer       *obs.Tracer
	Registry     *obs.Registry
	CollectorURL string // base URL of the collector this process reports to ("" = none)

	job      string
	opts     Options
	size     int
	rank     int
	perProc  bool   // every rank is its own OS process: dumps get a .rank<r> suffix
	spawned  bool   // re-executed worker rank: stays quiet on stdout
	registry string // rendezvous directory services are published to ("" = none)
	epoch    uint64

	colSrv *obs.Server
	obsSrv *obs.Server
	rep    *collector.Reporter
	prof   *prof.Session
}

// StartTelemetry starts the telemetry half for an in-process run: one
// process whose tracer spans all ranks. Close it exactly once.
func StartTelemetry(job string, ranks int, o Options) (*Telemetry, error) {
	t := &Telemetry{job: job, opts: o, size: ranks}
	err := t.startCollector()
	if err == nil {
		err = t.start()
	}
	if err != nil {
		t.stop(false)
		return nil, err
	}
	return t, nil
}

// startCollector resolves the collector this process reports to: an
// http(s):// value names a running collector; any other non-empty
// value is a listen address this process serves a run-scoped collector
// on, publishing its base URL to the registry when there is one. The
// server must outlive every rank's final flush (see Session.release).
func (t *Telemetry) startCollector() error {
	addr := t.opts.Collector
	if addr == "" || isURL(addr) {
		t.CollectorURL = addr
		return nil
	}
	srv, err := collector.New(collector.Config{Ranks: t.size, Job: t.job}).Serve(addr)
	if err != nil {
		return err
	}
	t.colSrv, t.CollectorURL = srv, "http://"+srv.Addr
	if t.registry != "" {
		if err := nettrans.PublishService(t.registry, CollectorService, t.CollectorURL, t.epoch); err != nil {
			return fmt.Errorf("launch: publish collector: %w", err)
		}
	}
	fmt.Printf("collector on %s (/status /ranks /healthz /readyz /analyze/live /events)\n", t.CollectorURL)
	return nil
}

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// start brings up everything that observes this process: tracer and
// registry (only when some output consumes them), the rank's obs
// server, the reporter, and the profiling session.
func (t *Telemetry) start() error {
	o := t.opts
	if o.ObsAddr != "" || o.EventsOut != "" || t.CollectorURL != "" {
		t.Tracer = obs.NewTracer(t.size, obs.DefaultRingCap)
		t.Registry = obs.NewRegistry()
	}
	if o.ObsAddr != "" {
		srv, err := obs.Serve(o.ObsAddr, t.Registry, t.Tracer, analyze.Endpoint(t.Tracer))
		if err != nil {
			return err
		}
		t.obsSrv = srv
		// Behind an ephemeral port the registry (service obs-rank-<r>) is
		// the only place the bound address exists, so every rank stays
		// scrapeable.
		if t.registry != "" {
			if err := nettrans.PublishService(t.registry, fmt.Sprintf("obs-rank-%d", t.rank), "http://"+srv.Addr, t.epoch); err != nil {
				return fmt.Errorf("launch: publish rank obs: %w", err)
			}
		}
		if !t.spawned {
			fmt.Printf("observability server on http://%s (/metrics /trace /timeline /analyze /debug/pprof)\n", srv.Addr)
		}
	}
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
	return nil
}

// StopProfile ends the profiling session, if one is running, and
// uploads the CPU artifact to the collector. Close calls it; a caller
// that reads the artifacts before closing calls it first.
func (t *Telemetry) StopProfile() {
	if t.prof == nil {
		return
	}
	arts, err := t.prof.Stop()
	t.prof = nil
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: profile stop: %v\n", t.job, err)
		return
	}
	if !t.spawned {
		fmt.Printf("profile artifacts: %s (asmprof %s)\n", arts.CPU, t.opts.ProfDir)
	}
	if t.rep == nil {
		return
	}
	// Best-effort upload so the collector's /profiles plane can serve
	// the cross-rank merge while the artifacts stay local.
	if data, err := os.ReadFile(arts.CPU); err == nil {
		if err := t.rep.PostProfile(filepath.Base(arts.CPU), data); err != nil {
			fmt.Fprintf(os.Stderr, "%s: profile upload: %v\n", t.job, err)
		}
	}
}

// Close flushes the telemetry with the run's verdict (nil = ok) and
// stops the servers, lingering first so collector pollers observe the
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

// stop closes the servers. The collector outlives the reporters'
// final flushes: callers stop only after every rank has exited.
func (t *Telemetry) stop(linger bool) {
	if t.colSrv != nil {
		if linger {
			time.Sleep(t.opts.CollectorLinger)
		}
		t.colSrv.Close()
	}
	if t.obsSrv != nil {
		t.obsSrv.Close()
	}
}
