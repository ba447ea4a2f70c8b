package launch

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/par/nettrans"
)

// ErrUsage marks a Start error caused by the flag combination rather
// than the environment; Run exits 2 on it, as flag parsing does.
var ErrUsage = errors.New("usage")

// Options are a run session's settings: the flag surface every
// command shares (RegisterFlags).
type Options struct {
	Transport       string        // inproc goroutines, or tcp / unix OS processes
	EventsOut       string        // raw events dump path
	Collector       string        // host:port the job root serves a collector on, or the http:// URL of a running one
	CollectorLinger time.Duration // how long that collector outlives the run
	ProfDir         string        // profiling artifact directory
}

// RegisterFlags registers the session flags on fs, once for every
// command, and returns the Options they fill. transport is the
// command's default for -transport.
func RegisterFlags(fs *flag.FlagSet, transport string) *Options {
	o := &Options{}
	fs.StringVar(&o.Transport, "transport", transport, "run parallel ranks as: inproc goroutines, or tcp / unix OS processes")
	fs.StringVar(&o.EventsOut, "events-out", "", "write the raw events dump to this file, one FILE.rank<r> per process under tcp / unix; asmprof FILE... merges, checks and explains them (-chrome renders a Chrome trace)")
	fs.StringVar(&o.Collector, "collector", "", "live telemetry collector every rank streams health, metrics and trace deltas to, and the run's one telemetry server (watch it with asmprof URL): a host:port to serve one on, or the http:// URL of a running one")
	fs.DurationVar(&o.CollectorLinger, "collector-linger", 2*time.Second, "keep the collector serving this long after the run completes so pollers observe the final state")
	fs.StringVar(&o.ProfDir, "prof-dir", "", "capture a phase/rank-labeled CPU profile plus an allocation profile into this directory (asmprof reads them)")
	return o
}

// Session is one process's membership in a run: its rank, the
// transport to the other ranks (nil on the in-process machine, where
// one process holds them all), and the telemetry sinks the payload
// threads into the engine (nil when no telemetry was requested).
type Session struct {
	Rank      int
	Transport par.Transport
	Tracer    *obs.Tracer
	Registry  *obs.Registry

	tel          *Telemetry
	fleet        *Fleet
	tempRegistry string // registry directory this session created and removes

	mu     sync.Mutex // serialises Close against the signal handler
	closed bool
}

// Start joins (or, as the job root, creates) the run described by o:
// child detection → registry and epoch → tracer, registry and
// collector → spawn → transport → reporter → profiling → signal
// handler. Every rank of an SPMD job runs the same Start and
// only then diverges on Rank. On error nothing is left behind.
func Start(job string, ranks int, o Options) (*Session, error) {
	t := &Telemetry{job: job, opts: o, size: ranks}
	s := &Session{tel: t}
	root := false // this process forks the worker ranks
	var registry string
	var epoch uint64
	switch o.Transport {
	case "inproc":
	case "tcp", "unix":
		if ranks < 2 {
			return nil, fmt.Errorf("%w: -transport %s requires at least 2 ranks", ErrUsage, o.Transport)
		}
		t.perProc = true
		c, isChild, err := fromEnv()
		switch {
		case err != nil:
			return nil, err
		case isChild:
			// A re-executed worker finds its identity in the environment.
			// The parent decided its observability: stream to its
			// collector, if any.
			t.rank, registry, epoch, t.spawned = c.Rank, c.Registry, c.Epoch, true
			t.opts.Collector = c.Collector
		default:
			root = true
			// The epoch turns away handshakes and registry entries of
			// any other run; the wall clock is unique enough.
			dir, err := os.MkdirTemp("", job+"-registry-")
			if err != nil {
				return nil, err
			}
			registry, s.tempRegistry, epoch = dir, dir, uint64(time.Now().UnixNano())
		}
	default:
		return nil, fmt.Errorf("%w: unknown -transport %q (inproc, tcp, unix)", ErrUsage, o.Transport)
	}

	err := t.startCollector()
	if err == nil && root {
		s.fleet, err = spawn(child{Size: ranks, Registry: registry, Epoch: epoch, Collector: t.CollectorURL})
	}
	if err == nil && t.perProc {
		cfg := nettrans.Config{Rank: t.rank, Size: ranks, Network: o.Transport, RegistryDir: registry, Epoch: epoch}
		var nt *nettrans.Transport
		if nt, err = nettrans.New(cfg); err == nil {
			s.Transport = nt
		}
	}
	if err != nil {
		s.release(true, false)
		return nil, err
	}
	t.start()
	s.Rank, s.Tracer, s.Registry = t.rank, t.Tracer, t.Registry

	// Graceful interrupt: the same exit as Close, with an "interrupted"
	// verdict, dumps under .interrupted names, and the fleet killed.
	OnSignal(func(sig os.Signal) {
		s.shutdown(fmt.Errorf("interrupted: %s", sig), true)
	})
	if s.fleet != nil {
		// Printed once the handler is in place: from here on a signal
		// takes the whole fleet down through shutdown.
		fmt.Fprintf(os.Stderr, "%s: spawned ranks 1..%d\n", job, ranks-1)
	}
	return s, nil
}

// Close is the run's only exit: it stops the profiler, takes one
// tracer snapshot and writes the requested dumps from it, delivers the
// reporter's final flush with the verdict (runErr nil = ok), closes
// the transport, waits for the worker ranks — kills them first when
// the run failed, so none outlives a dead master — lets the collector
// linger and closes it, and removes the registry it created. It
// returns runErr, or else the first error of its own.
func (s *Session) Close(runErr error) error {
	return s.shutdown(runErr, false)
}

func (s *Session) shutdown(runErr error, interrupted bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runErr
	}
	s.closed = true
	err := s.tel.flush(runErr, interrupted)
	// An interrupted rank skips the transport's drain: the engine may
	// still be sending, and the process is about to exit anyway.
	if s.Transport != nil && !interrupted {
		if cerr := s.Transport.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("transport close: %w", cerr)
		}
	}
	s.release(runErr != nil, !interrupted)
	if runErr != nil {
		return runErr
	}
	return err
}

// release reaps the fleet, stops the servers and removes the temp
// registry, in that order: the collector must outlive every rank's
// final flush, the registry every rank's rendezvous.
func (s *Session) release(kill, linger bool) {
	if s.fleet != nil {
		if kill {
			s.fleet.KillAll()
		}
		s.fleet.Wait()
	}
	s.tel.stop(linger)
	if s.tempRegistry != "" {
		os.RemoveAll(s.tempRegistry)
	}
}

// Run is a command's main after flag parsing: Start, the payload,
// Close, and the exit status — 0, 1 for a failed run, 2 for ErrUsage.
func Run(job string, ranks int, o *Options, payload func(*Session) error) int {
	s, err := Start(job, ranks, *o)
	if err == nil {
		err = s.Close(payload(s))
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", job, err)
	if errors.Is(err, ErrUsage) {
		return 2
	}
	return 1
}
