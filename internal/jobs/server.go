// Package jobs implements assembly-as-a-service: an HTTP job server
// backed by a crash-safe append-only journal. Submissions are
// idempotent (keyed on input + config fingerprint), attempts run as
// supervised subprocesses that checkpoint through the pipeline
// manifest, and a restart replays the journal and re-adopts whatever
// was in flight — no submission is ever lost or duplicated.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/backoff"
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
	// MaxInputBytes bounds a submission body (default 64 MiB).
	MaxInputBytes int64
	// QuotaBytes, when positive, bounds a job dir's size; a breaching
	// attempt is killed and charged.
	QuotaBytes int64
	// MinFreeBytes, when positive, refuses new submissions (503) while
	// the data directory's filesystem has less free space.
	MinFreeBytes uint64
	// Retain is how long a terminal job keeps its intermediate
	// artifacts before the GC sweep removes them (default 24h).
	// Cached results (contigs + report) survive GC.
	Retain time.Duration
	// GCInterval is the sweep period (default 1m).
	GCInterval time.Duration
	// Backoff schedules uncharged/charged retry delays.
	Backoff backoff.Policy

	// Logf receives operational log lines (default: silent).
	Logf func(format string, args ...any)
	// Now overrides the clock (tests).
	Now func() time.Time
}

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
	if c.MaxInputBytes <= 0 {
		c.MaxInputBytes = 64 << 20
	}
	if c.Retain <= 0 {
		c.Retain = 24 * time.Hour
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
	if c.Backoff == (backoff.Policy{}) {
		c.Backoff = backoff.Policy{Base: 500 * time.Millisecond, Cap: 30 * time.Second, Jitter: 0.2}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the assembly-as-a-service front end.
type Server struct {
	cfg Config
	rng *rand.Rand

	mu    sync.Mutex
	jnl   *Journal
	jobs  map[string]*Job
	byKey map[string]string

	draining chan struct{}
	wake     chan struct{} // a submission for an idle worker; one slot per worker
	drainOne sync.Once
	wg       sync.WaitGroup // workers + gc sweep
	httpSrv  *http.Server
	addr     string
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
	jobsMap, byKey, err := Replay(recs)
	if err != nil {
		jnl.Close()
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Now().UnixNano())),
		jnl:      jnl,
		jobs:     jobsMap,
		byKey:    byKey,
		draining: make(chan struct{}),
		wake:     make(chan struct{}, cfg.Workers),
	}
	adopted := 0
	for _, job := range s.jobs {
		if job.State == StateRunning {
			s.applyLocked(Record{Op: OpRequeue, Job: job.ID, Reason: "server restart: re-adopted"})
			job.PID = 0
			adopted++
		}
	}
	if adopted > 0 {
		cfg.Logf("re-adopted %d in-flight job(s) after restart", adopted)
	}
	return s, nil
}

// Start launches the worker pool, the GC sweep, and the HTTP listener
// on addr (use "127.0.0.1:0" for an ephemeral port). The bound
// address is written to <dir>/addr for tooling discovery.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.addr = ln.Addr().String()
	if err := writeFileAtomic(filepath.Join(s.cfg.Dir, "addr"), []byte(s.addr+"\n")); err != nil {
		ln.Close()
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.handler()}
	go s.httpSrv.Serve(ln)
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.supervise(w)
	}
	s.wg.Add(1)
	go s.gcLoop()
	s.logf("serving on http://%s (dir %s, %d workers)", s.addr, s.cfg.Dir, s.cfg.Workers)
	return s.addr, nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() string { return s.addr }

// Drain gracefully stops the server: new submissions get 503, running
// attempts are SIGTERMed and given DrainTimeout to checkpoint at a
// phase boundary, stragglers are SIGKILLed; either way the jobs are
// requeued in the journal for the next incarnation. Safe to call more
// than once.
func (s *Server) Drain(ctx context.Context) {
	s.drainOne.Do(func() { close(s.draining) })
	s.wg.Wait()
	if s.httpSrv != nil {
		s.httpSrv.Shutdown(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jnl.Close()
	s.logf("drained")
}

// applyLocked journals a transition and applies it to memory; callers
// hold s.mu. Once the journal refuses writes, the server can no
// longer uphold crash safety, so the error is fatal by design.
func (s *Server) applyLocked(r Record) Record {
	r.T = s.now().UnixNano()
	written, err := s.jnl.Append(r)
	if err != nil {
		panic(fmt.Sprintf("jobs: journal append failed, cannot continue safely: %v", err))
	}
	if err := applyRecord(s.jobs, s.byKey, written); err != nil {
		panic(fmt.Sprintf("jobs: journaled record rejected by state machine: %v", err))
	}
	return written
}

func (s *Server) jobDir(id string) string { return filepath.Join(s.cfg.Dir, "jobs", id) }
func (s *Server) now() time.Time          { return s.cfg.Now() }
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
		if s.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// statusView is the wire form of a job's status. It embeds a COPY of
// the job, snapshotted under the server lock — encoding happens after
// the lock is released, while workers keep mutating the live struct.
type statusView struct {
	Job
	Phase        string `json:"phase,omitempty"`
	CollectorURL string `json:"collector_url,omitempty"`
	Cached       bool   `json:"cached,omitempty"`
}

func (s *Server) view(job *Job, cached bool) statusView {
	v := statusView{Job: *job, Cached: cached}
	dir := s.jobDir(job.ID)
	if b, err := os.ReadFile(filepath.Join(dir, progressFile)); err == nil {
		v.Phase = strings.TrimSpace(string(b))
	}
	if job.State == StateRunning {
		if b, err := os.ReadFile(filepath.Join(dir, collectorFile)); err == nil {
			v.CollectorURL = strings.TrimSpace(string(b))
		}
	}
	return v
}

// handleSubmit accepts a FASTA read set and returns 202 with the job
// ID — or 200 with the existing job when the same input+config was
// submitted before (idempotency), which for finished jobs is an
// instant cached result. Degraded modes: 503 while draining or under
// disk pressure, 429 when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.cfg.MinFreeBytes > 0 {
		var st syscall.Statfs_t
		if err := syscall.Statfs(s.cfg.Dir, &st); err == nil {
			if free := st.Bavail * uint64(st.Bsize); free < s.cfg.MinFreeBytes {
				w.Header().Set("Retry-After", "60")
				http.Error(w, fmt.Sprintf("disk pressure: %d bytes free", free), http.StatusServiceUnavailable)
				return
			}
		}
	}
	spec, err := specFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	input, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxInputBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if _, err := seq.ReadFASTA(bytes.NewReader(input)); err != nil {
		http.Error(w, "malformed FASTA: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := IdempotencyKey(input, spec)

	s.mu.Lock()
	if id, dup := s.byKey[key]; dup {
		job := s.jobs[id]
		v := s.view(job, job.State == StateDone)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, v)
		return
	}
	if n := s.activeLocked(); n >= s.cfg.MaxQueue {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "10")
		http.Error(w, fmt.Sprintf("queue full (%d active)", n), http.StatusTooManyRequests)
		return
	}
	id := jobID(key)
	dir := s.jobDir(id)
	if err := s.writeSubmission(dir, input, spec); err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.applyLocked(Record{Op: OpSubmit, Job: id, Key: key, Spec: &spec})
	job := s.jobs[id]
	v := s.view(job, false)
	s.mu.Unlock()
	// Wake an idle worker without blocking: wake holds a token per
	// worker, so when it is full every sleeping worker will wake anyway.
	select {
	case s.wake <- struct{}{}:
	default:
	}
	s.logf("job %s submitted (%d input bytes, %s)", id, len(input), spec.Flags())
	writeJSON(w, http.StatusAccepted, v)
}

// writeSubmission persists input + spec before the submit is
// journaled: a crash in between leaves an orphan dir that a repeat
// submission reuses (same key → same dir), never a journaled job
// without its input.
func (s *Server) writeSubmission(dir string, input []byte, spec Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, inputFile), input); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, specFile), append(b, '\n'))
}

// activeLocked counts jobs occupying queue slots.
func (s *Server) activeLocked() int {
	n := 0
	for _, job := range s.jobs {
		if !job.State.Terminal() {
			n++
		}
	}
	return n
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]*Job, 0, len(s.jobs))
	for _, job := range s.jobs {
		list = append(list, job)
	}
	sortJobs(list)
	views := make([]statusView, len(list))
	for i, job := range list {
		views[i] = s.view(job, false)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var v statusView
	if ok {
		v = s.view(job, false)
	}
	s.mu.Unlock()
	if !ok {
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
		s.mu.Lock()
		job, ok := s.jobs[id]
		var state State
		if ok {
			state = job.State
		}
		s.mu.Unlock()
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		path := filepath.Join(s.jobDir(id), name)
		b, err := os.ReadFile(path)
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
	counts := map[State]int{}
	for _, job := range s.jobs {
		counts[job.State]++
	}
	stats := map[string]any{
		"jobs":        len(s.jobs),
		"queued":      counts[StateQueued],
		"running":     counts[StateRunning],
		"done":        counts[StateDone],
		"quarantined": counts[StateQuarantined],
		"workers":     s.cfg.Workers,
		"max_queue":   s.cfg.MaxQueue,
		"draining":    s.isDraining(),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, stats)
}

// specFromQuery decodes a Spec from submission query parameters.
func specFromQuery(r *http.Request) (Spec, error) {
	q := r.URL.Query()
	spec := Spec{}
	intParam := func(name string, dst *int) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad %s=%q", name, v)
		}
		*dst = n
		return nil
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"psi", &spec.Psi}, {"w", &spec.W}, {"ranks", &spec.Ranks}, {"aretries", &spec.AssemblyRetries}} {
		if err := intParam(p.name, p.dst); err != nil {
			return Spec{}, err
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("bad seed=%q", v)
		}
		spec.Seed = n
	}
	if v := q.Get("mask"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return Spec{}, fmt.Errorf("bad mask=%q", v)
		}
		spec.Mask = b
	}
	spec.Store = q.Get("store")
	if v := q.Get("membudget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("bad membudget=%q", v)
		}
		spec.MemBudget = n
	}
	spec.FailInject = q.Get("fail")
	if v := q.Get("profile"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return Spec{}, fmt.Errorf("bad profile=%q", v)
		}
		spec.Profile = b
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
