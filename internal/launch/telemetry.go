package launch

import (
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/collector"
	"repro/internal/obs/prof"
)

// Telemetry is the in-process half of a run session: the tracer and
// metrics registry, the reporter appending them to the events stream,
// and the profiling session. Session layers process spawning, the
// transport and signal handling on top; the job runner, which has its
// own drain protocol, uses this half alone. Tracer and Registry are
// nil when no events stream was requested, which every consumer
// treats as "off". Not safe for concurrent use.
type Telemetry struct {
	Tracer   *obs.Tracer
	Registry *obs.Registry

	job     string
	opts    Options
	size    int
	rank    int
	run     int64 // the run's start, shared by its processes (0: this process's start)
	perProc bool  // every rank is its own OS process: streams get a .rank<r> suffix
	spawned bool  // re-executed worker rank: stays quiet on stdout

	rep  *collector.Reporter
	prof *prof.Session
}

// StartTelemetry starts the telemetry half for an in-process run: one
// process whose tracer spans all ranks. Close it exactly once.
func StartTelemetry(job string, ranks int, o Options) *Telemetry {
	t := &Telemetry{job: job, opts: o, size: ranks}
	t.start()
	return t
}

// start brings up what observes this process: the tracer, registry and
// reporter when an events stream was requested, and the profiling
// session. Neither can fail the run.
func (t *Telemetry) start() {
	o := t.opts
	if o.EventsOut != "" {
		t.Tracer = obs.NewTracer(t.size, obs.DefaultRingCap)
		t.Registry = obs.NewRegistry()
		// An in-process machine has one tracer spanning every rank, so
		// its single stream covers them all.
		covers := []int{t.rank}
		if !t.perProc {
			covers = make([]int, t.size)
			for i := range covers {
				covers[i] = i
			}
		}
		t.rep = collector.StartReporter(collector.ReporterConfig{
			Path: t.eventsPath(), Run: t.run, Rank: t.rank, Covers: covers, Size: t.size, Job: t.job,
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

// eventsPath names this process's events stream: -events-out, with a
// .rank<r> suffix when every rank is its own OS process (asmprof
// merges them).
func (t *Telemetry) eventsPath() string {
	if t.perProc {
		return fmt.Sprintf("%s.rank%d", t.opts.EventsOut, t.rank)
	}
	return t.opts.EventsOut
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

// Close stops the profiler and appends the stream's final record with
// the run's verdict (nil = ok). It returns the error of that append.
func (t *Telemetry) Close(runErr error) error {
	return t.flush(runErr, false)
}

// flush is Close; an interrupted process publishes its stream as
// <stream>.interrupted, so a cut-short stream is never mistaken for a
// finished one.
func (t *Telemetry) flush(runErr error, interrupted bool) error {
	t.StopProfile()
	if t.rep == nil {
		return nil
	}
	reason := ""
	if runErr != nil {
		reason = runErr.Error()
	}
	path := t.eventsPath()
	var err error
	if interrupted {
		err = t.rep.Interrupt(reason)
		path += ".interrupted"
	} else {
		err = t.rep.Close(runErr == nil, reason)
	}
	if err == nil {
		fmt.Printf("wrote %s\n", path)
	}
	return err
}
