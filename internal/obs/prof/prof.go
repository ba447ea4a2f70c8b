// Package prof is the continuous-profiling plane: a session manager
// that has the Go runtime write a phase/rank-labeled CPU profile and
// an allocs profile as .pb.gz artifacts next to the event dumps,
// samples runtime/metrics health gauges into the obs metrics registry,
// and — through the in-repo pprof decoder (proto.go) and attribution
// engine (attr.go, folded.go) — turns those artifacts into "top
// functions and top alloc sites on the critical path, per phase per
// rank" reports joined against the analyze causal decomposition. It
// reads profiles and never writes one: a merged profile file is `go
// tool pprof -proto DIR/*.cpu.pb.gz`'s job.
//
// Label propagation: internal/par tags every rank goroutine with a
// "rank" pprof label at Comm creation and swaps the "phase" label on
// every EvPhaseEnter/EvPhaseExit trace event, so CPU samples land
// pre-attributed. Goroutine labels follow child goroutines but never
// reach runtime system goroutines (GC workers, sweeper, scavenger) —
// those samples are classified under the "(runtime)" pseudo-phase by
// the attribution report. Alloc profiles carry no goroutine
// labels at all (a Go runtime limitation), so alloc sites are
// attributed by joining their call stacks against the per-function
// phase distribution learned from the labeled CPU samples.
//
// All label work is gated on one atomic flag that only an active
// session sets: with no session the hooks in internal/par cost a
// single atomic load on the (rare) phase-boundary events and nothing
// on the message hot path.
package prof

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Label keys the runtime attaches to rank goroutines.
const (
	LabelRank  = "rank"
	LabelPhase = "phase"
)

// Artifact name suffixes. A session writes <name><suffix>; asmprof
// discovers artifacts by suffix.
const (
	SuffixCPU    = ".cpu.pb.gz"
	SuffixAllocs = ".allocs.pb.gz"
)

// metricsInterval is the runtime/metrics sampling period.
const metricsInterval = 250 * time.Millisecond

// enabled gates every label operation; only an active Session sets
// it. Separate from the session singleton so the par hooks pay one
// atomic load and no pointer chase.
var enabled atomic.Bool

// Enabled reports whether a profiling session is active (labels are
// being applied).
func Enabled() bool { return enabled.Load() }

// rankStrs caches the label values for small ranks so phase swaps on
// big machines do not re-format the same integers.
var rankStrs = func() [64]string {
	var s [64]string
	for i := range s {
		s[i] = strconv.Itoa(i)
	}
	return s
}()

func rankStr(r int) string {
	if r >= 0 && r < len(rankStrs) {
		return rankStrs[r]
	}
	return strconv.Itoa(r)
}

// ApplyLabels tags the calling goroutine (and any goroutines it
// spawns afterwards) with the rank and, when non-empty, phase labels.
// A no-op unless a session is active.
func ApplyLabels(rank int, phase string) {
	if !enabled.Load() {
		return
	}
	var ls pprof.LabelSet
	if phase == "" {
		ls = pprof.Labels(LabelRank, rankStr(rank))
	} else {
		ls = pprof.Labels(LabelRank, rankStr(rank), LabelPhase, phase)
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), ls))
}

// ClearLabels removes the calling goroutine's labels. A no-op unless
// a session is active.
func ClearLabels() {
	if !enabled.Load() {
		return
	}
	pprof.SetGoroutineLabels(context.Background())
}

// Config tunes one profiling session.
type Config struct {
	// Dir receives the artifacts (created if missing).
	Dir string
	// Name is the artifact stem: Name + ".cpu.pb.gz" etc. Per-process
	// transports use "rank<N>"; in-process machines one stem for the
	// whole run.
	Name string
	// Registry, when non-nil, receives the runtime/metrics health
	// gauges (runtime_gc_pause_p99_ns, runtime_sched_latency_p99_ns,
	// runtime_heap_live_bytes, runtime_heap_goal_bytes,
	// runtime_gc_cycles), sampled every 250 ms and once at Stop. They
	// stream to a collector like any other gauge.
	Registry *obs.Registry
}

// Session is one active profiling capture window. At most one session
// per process (the runtime supports one CPU profile at a time).
type Session struct {
	cfg  Config
	cpuF *os.File

	mu      sync.Mutex
	stopped bool

	samplerStop chan struct{}
	samplerDone chan struct{}
}

// Artifacts lists the files one session wrote.
type Artifacts struct {
	CPU    string
	Allocs string
}

// sessionActive enforces the one-session-per-process invariant.
var sessionActive atomic.Bool

// Start opens a profiling session: begins the CPU profile streaming
// to <Dir>/<Name>.cpu.pb.gz, turns on label propagation, and starts
// the runtime/metrics sampler. Callers must Stop it.
func Start(cfg Config) (*Session, error) {
	if cfg.Name == "" {
		cfg.Name = "profile"
	}
	if !sessionActive.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("prof: a profiling session is already active")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		sessionActive.Store(false)
		return nil, err
	}
	f, err := os.Create(filepath.Join(cfg.Dir, cfg.Name+SuffixCPU))
	if err != nil {
		sessionActive.Store(false)
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		sessionActive.Store(false)
		return nil, fmt.Errorf("prof: start cpu profile: %w", err)
	}
	s := &Session{cfg: cfg, cpuF: f}
	enabled.Store(true)
	if cfg.Registry != nil {
		SampleRuntimeMetrics(cfg.Registry)
		s.samplerStop = make(chan struct{})
		s.samplerDone = make(chan struct{})
		go s.sampleLoop()
	}
	return s, nil
}

func (s *Session) sampleLoop() {
	defer close(s.samplerDone)
	tick := time.NewTicker(metricsInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.samplerStop:
			return
		case <-tick.C:
			SampleRuntimeMetrics(s.cfg.Registry)
		}
	}
}

// Stop ends the session: stops and flushes the CPU profile, writes
// the allocs snapshot (cumulative allocations; its samples also carry
// the live-heap values, so no separate heap snapshot is taken), takes
// a final runtime/metrics sample, and turns label propagation off.
// Safe to call once; later calls return the nil error without
// re-writing artifacts.
func (s *Session) Stop() (Artifacts, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	arts := Artifacts{
		CPU:    filepath.Join(s.cfg.Dir, s.cfg.Name+SuffixCPU),
		Allocs: filepath.Join(s.cfg.Dir, s.cfg.Name+SuffixAllocs),
	}
	if s.stopped {
		return arts, nil
	}
	s.stopped = true
	enabled.Store(false)
	pprof.StopCPUProfile()
	err := s.cpuF.Close()
	if s.samplerStop != nil {
		close(s.samplerStop)
		<-s.samplerDone
		SampleRuntimeMetrics(s.cfg.Registry)
	}
	if aerr := snapshotAllocs(arts.Allocs); err == nil {
		err = aerr
	}
	sessionActive.Store(false)
	return arts, err
}

// snapshotAllocs writes the runtime's allocs profile as a .pb.gz
// artifact (debug=0 is the gzipped proto encoding).
func snapshotAllocs(path string) error {
	if err := durable.Stage(path, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) }); err != nil {
		return err
	}
	return durable.SyncDir(filepath.Dir(path))
}

// DirArtifacts scans dir for profile artifacts by suffix, sorted for
// determinism. Unreadable directories return empty slices.
func DirArtifacts(dir string) (cpu, allocs []string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	for _, e := range ents {
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, SuffixCPU):
			cpu = append(cpu, path)
		case strings.HasSuffix(name, SuffixAllocs):
			allocs = append(allocs, path)
		}
	}
	sort.Strings(cpu)
	sort.Strings(allocs)
	return cpu, allocs
}

// ParseFiles decodes a list of artifacts, skipping files that fail to
// parse (a SIGKILLed attempt leaves an empty CPU artifact behind; the
// surviving artifacts still report). It returns the profiles, the
// skipped paths, and the first error only when nothing parsed.
func ParseFiles(paths []string) (ps []*Profile, skipped []string, err error) {
	var firstErr error
	for _, path := range paths {
		p, perr := ParseFile(path)
		if perr != nil {
			skipped = append(skipped, path)
			if firstErr == nil {
				firstErr = perr
			}
			continue
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 && firstErr != nil {
		return nil, skipped, firstErr
	}
	return ps, skipped, nil
}
