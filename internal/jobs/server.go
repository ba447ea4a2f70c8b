// Package jobs implements assembly-as-a-service: an HTTP job server
// backed by a crash-safe, append-only, checksummed journal.
// Submissions are idempotent (keyed on input + config fingerprint)
// and journaled before they are acknowledged; attempts run as runner
// subprocesses that checkpoint through the pipeline manifest; a
// restart replays the journal and re-adopts whatever was in flight,
// byte-identically — no submission is ever lost or duplicated.
//
// Every supervision decision — which job runs on which worker, how an
// attempt's exit is charged, retries with capped jittered backoff,
// per-attempt deadlines, workdir quotas, quarantine for jobs that
// exhaust their budget, graceful drain, reclaiming finished jobs'
// intermediates — is made by one core, supervisor, that holds no
// goroutine, lock, timer, process, file or clock. Server is the loops
// around it: the HTTP listener, the runner processes, the journal file
// and one timer armed at the core's next instant. A seeded simulator
// in the tests drives the core with a fake runner, an in-memory
// journal and a modeled clock.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/backoff"
	"repro/internal/durable"
	"repro/internal/launch"
	"repro/internal/seq"
)

// Config tunes the job server. Zero values get serviceable defaults.
type Config struct {
	// Dir is the service data directory: journal + per-job dirs.
	Dir string

	// Workers is the supervised worker-pool size (default 2).
	Workers int
	// MaxQueue bounds jobs in Queued+Running state; submissions over
	// the bound get 429 + Retry-After (default 32).
	MaxQueue int
	// MaxAttempts is the retry budget: a job failing this many
	// charged attempts is quarantined (default 3).
	MaxAttempts int
	// AttemptDeadline SIGKILLs an attempt that overstays (default 10m).
	AttemptDeadline time.Duration
	// DrainTimeout bounds the SIGTERM→checkpoint grace on shutdown
	// before stragglers are SIGKILLed (default 30s).
	DrainTimeout time.Duration
	// QuotaBytes, when positive, bounds a job dir's size; a breaching
	// attempt is killed and charged.
	QuotaBytes int64
	// MinFreeBytes, when positive, refuses new submissions (503) while
	// the data directory's filesystem has less free space.
	MinFreeBytes uint64
	// Retain is how long a terminal job keeps its intermediate
	// artifacts before they are reclaimed (default 24h). Cached
	// results (contigs + report) survive.
	Retain time.Duration
	// Backoff schedules uncharged/charged retry delays (default 500ms
	// doubling to 30s, ±20% jitter).
	Backoff backoff.Policy

	// Logf receives operational log lines (default: silent).
	Logf func(format string, args ...any)
}

// maxInputBytes bounds a submission body.
const maxInputBytes = 64 << 20

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.AttemptDeadline <= 0 {
		c.AttemptDeadline = 10 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Retain <= 0 {
		c.Retain = 24 * time.Hour
	}
	if c.Backoff == (backoff.Policy{}) {
		c.Backoff = backoff.Policy{Base: 500 * time.Millisecond, Cap: 30 * time.Second, Jitter: 0.2}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the assembly-as-a-service front end: the loops around the
// supervisor core. They own the HTTP listener, the runner processes,
// the journal file and one timer, and step the core under mu.
type Server struct {
	cfg Config

	mu    sync.Mutex
	sup   *supervisor
	jnl   *Journal
	procs map[int]*os.Process // live runners by PID
	wake  *time.Timer         // armed at the core's next instant

	quiet   chan struct{} // closed once a drain has nothing left running
	quieted func()        // closes quiet, once
	httpSrv *http.Server
}

// Open replays the journal in cfg.Dir and builds the server. Jobs
// journaled as Running belong to a previous incarnation; they are
// re-adopted by requeueing (uncharged) — their workdir manifest
// resumes the attempt from the last completed phase.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	jnl, recs, err := OpenJournal(filepath.Join(cfg.Dir, "journal"))
	if err != nil {
		return nil, err
	}
	now := time.Now()
	sup, fx, err := newSupervisor(cfg, rand.New(rand.NewSource(now.UnixNano())), recs, now)
	if err != nil {
		jnl.Close()
		return nil, err
	}
	s := &Server{cfg: cfg, sup: sup, jnl: jnl, procs: map[int]*os.Process{}, quiet: make(chan struct{})}
	s.quieted = sync.OnceFunc(func() { close(s.quiet) })
	s.wake = time.AfterFunc(time.Hour, func() { s.do(s.sup.tick) })
	s.carry(fx) // journals the re-adoptions and stops the timer until Start
	return s, nil
}

// Start launches the HTTP listener on addr (use "127.0.0.1:0" for an
// ephemeral port) and the supervisor's first tick, which hands queued
// jobs to the workers. The bound address is written to <dir>/addr for
// tooling discovery.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	bound := ln.Addr().String()
	if err := durable.WriteFile(filepath.Join(s.cfg.Dir, "addr"), []byte(bound+"\n")); err != nil {
		ln.Close()
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.handler()}
	go s.httpSrv.Serve(ln)
	s.do(s.sup.tick)
	s.logf("serving on http://%s (dir %s, %d workers)", bound, s.cfg.Dir, s.cfg.Workers)
	return bound, nil
}

// Drain gracefully stops the server: new submissions get 503, running
// attempts are SIGTERMed and given DrainTimeout to checkpoint at a
// phase boundary, stragglers are SIGKILLed; either way the jobs are
// requeued in the journal for the next incarnation. Safe to call more
// than once.
func (s *Server) Drain(ctx context.Context) {
	s.do(s.sup.drain)
	<-s.quiet
	if s.httpSrv != nil {
		s.httpSrv.Shutdown(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wake.Stop()
	s.jnl.Close()
	s.logf("drained")
}

// do steps the core with one event at the current time.
func (s *Server) do(event func(now time.Time) effects) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.carry(event(time.Now()))
}

// carry journals an event's records, then carries out its other
// effects; callers hold s.mu. Once the journal refuses writes the
// server can no longer uphold crash safety, so that is fatal by
// design.
func (s *Server) carry(fx effects) {
	for _, r := range fx.records {
		written, err := s.jnl.Append(r)
		if err != nil {
			panic(fmt.Sprintf("jobs: journal append failed, cannot continue safely: %v", err))
		}
		s.logf("journal %d: job %s %s %s%s", written.Seq, r.Job, r.Op, r.Err, r.Reason)
	}
	for _, pid := range fx.term {
		s.procs[pid].Signal(syscall.SIGTERM)
	}
	for _, pid := range fx.kill {
		s.procs[pid].Signal(syscall.SIGKILL)
	}
	for _, sp := range fx.spawn {
		go s.attempt(sp)
	}
	for _, id := range fx.gc {
		go s.reclaim(id)
	}
	if fx.wake.IsZero() {
		s.wake.Stop()
	} else {
		s.wake.Reset(time.Until(fx.wake))
	}
	if fx.quiet {
		s.quieted()
	}
}

// attempt runs one attempt's runner process and reports it to the
// core: started, a quota reading every quotaInterval when a quota is
// set, and its exit. Every event of the attempt comes from here, in
// order, so the worker index names it.
func (s *Server) attempt(sp spawn) {
	dir := s.jobDir(sp.job)
	cmd, err := launch.SelfExec([]string{runnerDirEnv + "=" + dir})
	if err == nil {
		if logf, lerr := os.OpenFile(filepath.Join(dir, runnerLogFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); lerr == nil {
			fmt.Fprintf(logf, "--- attempt %d ---\n", sp.attempt)
			cmd.Stdout, cmd.Stderr = logf, logf
			defer logf.Close()
		}
		err = cmd.Start()
	}
	if err != nil {
		err = fmt.Errorf("spawn: %w", err)
		s.do(func(now time.Time) effects { return s.sup.exited(sp.worker, err, now) })
		return
	}
	pid := cmd.Process.Pid
	s.logf("worker %d: job %s attempt %d started (pid %d)", sp.worker, sp.job, sp.attempt, pid)
	s.do(func(now time.Time) effects {
		s.procs[pid] = cmd.Process
		return s.sup.started(sp.worker, pid, now)
	})
	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()
	poll := time.NewTicker(quotaInterval)
	defer poll.Stop()
	for {
		select {
		case err := <-waitc:
			s.do(func(now time.Time) effects {
				delete(s.procs, pid)
				return s.sup.exited(sp.worker, err, now)
			})
			return
		case <-poll.C:
			if s.cfg.QuotaBytes > 0 {
				size := dirSize(dir)
				s.do(func(now time.Time) effects { return s.sup.quota(sp.worker, size, now) })
			}
		}
	}
}

// reclaim removes a terminal job's intermediate artifacts (pipeline
// workdir, input, progress marker and events streams) and reports
// whether it could; cached results (contigs + report + runner log)
// survive so repeat submissions stay instant.
func (s *Server) reclaim(id string) {
	dir := s.jobDir(id)
	ok := true
	for _, name := range []string{workDir, inputFile, progressFile, telemetryDir} {
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			s.logf("gc: job %s: %v", id, err)
			ok = false
		}
	}
	s.do(func(now time.Time) effects { return s.sup.reclaimed(id, ok, now) })
}

const quotaInterval = 250 * time.Millisecond

// dirSize walks dir summing regular-file sizes (best effort).
func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func (s *Server) jobDir(id string) string { return filepath.Join(s.cfg.Dir, "jobs", id) }
func (s *Server) logf(f string, a ...any) { s.cfg.Logf("asmserve: "+f, a...) }

// ---- HTTP API ----

func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/contigs", s.handleArtifact(contigsFile, "text/plain; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/report", s.handleArtifact(reportFile, "application/json"))
	mux.HandleFunc("GET /jobs/{id}/log", s.handleArtifact(runnerLogFile, "text/plain; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/profile", s.handleArtifact(profileFile, "application/octet-stream"))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		draining := s.sup.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// statusView is the wire form of a job's status. It embeds a COPY of
// the job, snapshotted under the server lock — encoding happens after
// the lock is released, while workers keep mutating the live struct.
type statusView struct {
	Job
	Phase  string `json:"phase,omitempty"`
	Events string `json:"events,omitempty"` // the running attempt's events stream
	Cached bool   `json:"cached,omitempty"`
}

func (s *Server) view(job *Job, cached bool) statusView {
	v := statusView{Job: *job, Cached: cached}
	dir := s.jobDir(job.ID)
	if b, err := os.ReadFile(filepath.Join(dir, progressFile)); err == nil {
		v.Phase = strings.TrimSpace(string(b))
	}
	if job.State == StateRunning && job.PID != 0 {
		v.Events = filepath.Join(dir, eventsFile(job.PID))
	}
	return v
}

// handleSubmit accepts a FASTA read set and returns 202 with the job
// ID — or 200 with the existing job when the same input+config was
// submitted before (idempotency), which for finished jobs is an
// instant cached result. Degraded modes: 503 while draining or under
// disk pressure, 429 when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := specFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	input, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxInputBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if _, err := seq.ReadFASTA(bytes.NewReader(input)); err != nil {
		http.Error(w, "malformed FASTA: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := IdempotencyKey(input, spec)
	free := uint64(math.MaxUint64)
	var st syscall.Statfs_t
	if s.cfg.MinFreeBytes > 0 && syscall.Statfs(s.cfg.Dir, &st) == nil {
		free = st.Bavail * uint64(st.Bsize)
	}

	s.mu.Lock()
	verdict, job := s.sup.admit(key, free)
	if verdict == admitCached {
		v := s.view(job, job.State == StateDone)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, v)
		return
	}
	if verdict != admitted {
		s.mu.Unlock()
		switch verdict {
		case admitFull:
			w.Header().Set("Retry-After", "10")
			http.Error(w, fmt.Sprintf("queue full (%d active)", s.cfg.MaxQueue), http.StatusTooManyRequests)
		case admitPressure:
			w.Header().Set("Retry-After", "60")
			http.Error(w, fmt.Sprintf("disk pressure: %d bytes free", free), http.StatusServiceUnavailable)
		default:
			http.Error(w, "draining", http.StatusServiceUnavailable)
		}
		return
	}
	id := jobID(key)
	if err := s.writeSubmission(s.jobDir(id), input, spec); err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sub, fx := s.sup.submit(key, spec, time.Now())
	s.carry(fx)
	v := s.view(&sub, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

// writeSubmission durably persists input + spec before the submit is
// journaled: a crash or power loss in between leaves an orphan dir
// that a repeat submission reuses (same key → same dir), never a
// journaled job without its input.
func (s *Server) writeSubmission(dir string, input []byte, spec Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	if err = durable.Stage(filepath.Join(dir, inputFile), durable.Bytes(input)); err == nil {
		err = durable.Stage(filepath.Join(dir, specFile), durable.Bytes(append(b, '\n')))
	}
	if err == nil {
		err = durable.SyncDir(dir)
	}
	if err == nil { // the job directory's own entry
		err = durable.SyncDir(filepath.Dir(dir))
	}
	return err
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := slices.SortedFunc(maps.Values(s.sup.jobs), newestFirst)
	views := make([]statusView, len(list))
	for i, job := range list {
		views[i] = s.view(job, false)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var v statusView
	s.mu.Lock()
	if job, ok := s.sup.jobs[r.PathValue("id")]; ok {
		v = s.view(job, false)
	}
	s.mu.Unlock()
	if v.ID == "" {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleArtifact serves a per-job result file. Artifacts of a running
// job may not exist yet — 409 tells the client to keep polling.
func (s *Server) handleArtifact(name, ctype string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		var state State
		s.mu.Lock()
		if job, ok := s.sup.jobs[id]; ok {
			state = job.State
		}
		s.mu.Unlock()
		if state == "" {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		b, err := os.ReadFile(filepath.Join(s.jobDir(id), name))
		if err != nil {
			if state.Terminal() {
				http.Error(w, "artifact not available: "+err.Error(), http.StatusNotFound)
			} else {
				http.Error(w, "job not finished (state "+string(state)+")", http.StatusConflict)
			}
			return
		}
		w.Header().Set("Content-Type", ctype)
		w.Write(b)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	stats := map[string]any{"jobs": len(s.sup.jobs), "workers": s.cfg.Workers, "max_queue": s.cfg.MaxQueue, "draining": s.sup.draining}
	counts := map[State]int{}
	for _, job := range s.sup.jobs {
		counts[job.State]++
	}
	s.mu.Unlock()
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateQuarantined} {
		stats[string(st)] = counts[st]
	}
	writeJSON(w, http.StatusOK, stats)
}

// specFromQuery decodes a Spec from submission query parameters.
func specFromQuery(r *http.Request) (Spec, error) {
	q := r.URL.Query()
	spec := Spec{Store: q.Get("store"), FailInject: q.Get("fail")}
	for _, p := range []struct {
		name string
		dst  any
	}{{"psi", &spec.Psi}, {"w", &spec.W}, {"ranks", &spec.Ranks}, {"aretries", &spec.AssemblyRetries},
		{"seed", &spec.Seed}, {"mask", &spec.Mask}, {"membudget", &spec.MemBudget}, {"profile", &spec.Profile}} {
		v := q.Get(p.name)
		if v == "" {
			continue
		}
		var err error
		switch d := p.dst.(type) {
		case *int:
			*d, err = strconv.Atoi(v)
		case *int64:
			*d, err = strconv.ParseInt(v, 10, 64)
		case *bool:
			*d, err = strconv.ParseBool(v)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("bad %s=%q", p.name, v)
		}
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
