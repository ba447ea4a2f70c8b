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
	Transport string // inproc goroutines, or tcp / unix OS processes
	EventsOut string // events stream path
	ProfDir   string // profiling artifact directory
}

// RegisterFlags registers the session flags on fs, once for every
// command, and returns the Options they fill. transport is the
// command's default for -transport.
func RegisterFlags(fs *flag.FlagSet, transport string) *Options {
	o := &Options{}
	fs.StringVar(&o.Transport, "transport", transport, "run parallel ranks as: inproc goroutines, or tcp / unix OS processes")
	fs.StringVar(&o.EventsOut, "events-out", "", "stream events and metrics to this file every 200ms while the run lasts, one FILE.rank<r> per process under tcp / unix; asmprof -watch FILE follows the run live, asmprof FILE... merges, checks and explains it afterwards (-chrome renders a Chrome trace)")
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
// child detection → registry and epoch → spawn → transport → tracer,
// registry and reporter → profiling → signal handler. Every rank of an
// SPMD job runs the same Start and only then diverges on Rank. On
// error nothing is left behind.
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
			t.rank, registry, epoch, t.spawned = c.Rank, c.Registry, c.Epoch, true
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

	// Every rank's events stream names the run by its epoch (0 in
	// process: the one stream's own start).
	t.run = int64(epoch)
	var err error
	if root {
		s.fleet, err = spawn(child{Size: ranks, Registry: registry, Epoch: epoch})
	}
	if err == nil && t.perProc {
		cfg := nettrans.Config{Rank: t.rank, Size: ranks, Network: o.Transport, RegistryDir: registry, Epoch: epoch}
		var nt *nettrans.Transport
		if nt, err = nettrans.New(cfg); err == nil {
			s.Transport = nt
		}
	}
	if err != nil {
		s.release(true)
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

// Close is the run's only exit: it stops the profiler, appends the
// events stream's final record with the verdict (runErr nil = ok),
// closes the transport, waits for the worker ranks — kills them first
// when the run failed, so none outlives a dead master — and removes
// the registry it created. It returns runErr, or else the first error
// of its own.
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
	s.release(runErr != nil)
	if runErr != nil {
		return runErr
	}
	return err
}

// release reaps the fleet, then removes the temp registry: it must
// outlive every rank's rendezvous.
func (s *Session) release(kill bool) {
	if s.fleet != nil {
		if kill {
			s.fleet.KillAll()
		}
		s.fleet.Wait()
	}
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
