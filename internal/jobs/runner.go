package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/launch"
	"repro/internal/pipeline"
	"repro/internal/preprocess"
	"repro/internal/seq"
)

// runnerDirEnv marks a process as a supervised job-attempt runner.
const runnerDirEnv = "ASM_JOB_DIR"

// Runner exit codes the supervisor maps to outcomes. Anything else
// non-zero is a charged failure.
const (
	// ExitInterrupted: the run checkpointed at a phase boundary after
	// SIGTERM (graceful drain) — requeue, no attempt charged.
	ExitInterrupted = 3
	// ExitBusy: the workdir is locked by another live run (an orphan
	// from a previous server still finishing) — requeue with backoff,
	// no attempt charged; resume converges once the orphan exits.
	ExitBusy = 4
)

// Per-job directory layout (under <data>/jobs/<id>/).
const (
	inputFile     = "input.fa"
	specFile      = "spec.json"
	workDir       = "work"
	contigsFile   = "contigs.fa"
	reportFile    = "report.json"
	progressFile  = "progress"
	collectorFile = "collector.url"
	runnerLogFile = "runner.log"
	// profDir collects per-attempt profiling artifacts (PID-unique
	// stems, so an orphan attempt never clobbers its successor's
	// capture); profileFile is the completing attempt's CPU profile,
	// copied byte for byte and served at /jobs/{id}/profile.
	profDir     = "prof"
	profileFile = "profile.pb.gz"
)

// Report is the summary the runner writes next to the contigs — the
// cached result a repeat submission gets back instantly.
type Report struct {
	InputFragments      int   `json:"input_fragments"`
	Clusters            int   `json:"clusters"`
	Singletons          int   `json:"singletons"`
	Contigs             int   `json:"contigs"`
	ContigBases         int   `json:"contig_bases"`
	QuarantinedClusters int   `json:"quarantined_clusters,omitempty"`
	ElapsedMs           int64 `json:"elapsed_ms"`
}

// MaybeRunJob turns this process into a job runner when the
// supervisor's environment marker is present. Commands embedding the
// job service call it first thing in main; it never returns in a
// runner process.
func MaybeRunJob() bool {
	dir := os.Getenv(runnerDirEnv)
	if dir == "" {
		return false
	}
	os.Exit(RunJob(dir))
	return true // unreachable
}

// RunJob executes one attempt of the job rooted at dir and returns
// its exit code. The attempt always runs with Resume on: a fresh
// workdir starts from scratch, a crashed or drained one picks up at
// the last journaled phase boundary, and a finished one just reloads
// its artifacts — all byte-identical by the pipeline's manifest
// contract.
func RunJob(dir string) int {
	// Graceful drain: SIGTERM requests a checkpoint at the next phase
	// boundary instead of killing the attempt mid-phase. Registered
	// before anything else so a drain landing in the attempt's first
	// milliseconds is not a death by default disposition.
	drain, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	var spec Spec
	b, err := os.ReadFile(filepath.Join(dir, specFile))
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		return 1
	}
	spec = spec.withDefaults()
	id := filepath.Base(dir)

	switch spec.FailInject {
	case "crash":
		fmt.Fprintln(os.Stderr, "runner: fail_inject=crash: injected failure")
		return 1
	case "hang":
		fmt.Fprintln(os.Stderr, "runner: fail_inject=hang: wedging forever")
		select {}
	}

	frags, err := seq.ReadFragmentsFile(filepath.Join(dir, inputFile))
	if err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		return 1
	}

	// Per-job telemetry: this attempt serves its own run collector so
	// asmprof, given the URL from the job status, can watch it live.
	// Profiling artifacts go under <job>/prof, every attempt's beside
	// the others' (a SIGKILLed attempt's CPU artifact is empty: the
	// runtime writes the profile only when it is stopped); asmprof
	// <job>/prof reports across all of them.
	topts := launch.Options{Collector: "127.0.0.1:0"}
	if spec.Profile {
		topts.ProfDir = filepath.Join(dir, profDir)
	}
	tel, err := launch.StartTelemetry(id, spec.Ranks, topts)
	if err != nil {
		// Telemetry must never take the job down: run on without the
		// collector (nothing else in the session can fail to start).
		fmt.Fprintln(os.Stderr, "runner: collector disabled:", err)
		topts.Collector = ""
		if tel, err = launch.StartTelemetry(id, spec.Ranks, topts); err != nil {
			fmt.Fprintln(os.Stderr, "runner:", err)
			return 1
		}
	}
	if tel.CollectorURL != "" {
		mark(dir, collectorFile, tel.CollectorURL)
	}
	// fail closes the telemetry with the failing verdict and maps the
	// error to the runner's exit code.
	fail := func(err error) int {
		tel.Close(err)
		fmt.Fprintln(os.Stderr, "runner:", err)
		switch {
		case errors.Is(err, pipeline.ErrInterrupted):
			return ExitInterrupted
		case errors.Is(err, pipeline.ErrWorkdirLocked):
			return ExitBusy
		}
		return 1
	}

	cfg := core.DefaultConfig()
	cfg.Cluster.Psi = spec.Psi
	cfg.Cluster.W = spec.W
	cfg.PreprocessEnabled = spec.Mask
	if spec.Mask {
		rng := rand.New(rand.NewSource(spec.Seed))
		sample := preprocess.Sample(rng, frags, 0.3)
		cfg.Preprocess.Repeats = preprocess.DetectRepeats(sample, 16, 4)
	}
	if spec.Ranks >= 2 {
		cfg.Parallel = cluster.DefaultParallelConfig(spec.Ranks)
		cfg.Parallel.Trace = tel.Tracer
		cfg.Parallel.Metrics = tel.Registry
	}
	cfg.AssemblyGuard = &assembly.Guard{
		Retries: spec.AssemblyRetries,
		Backoff: 10 * time.Millisecond,
		Trace:   tel.Tracer,
		Metrics: tel.Registry,
	}
	if spec.Store == "disk" {
		// Dir is left empty: the pipeline anchors the store under the
		// job's workdir and journals it in the manifest, so resumed
		// attempts reopen the same bytes.
		cfg.Store = core.StoreConfig{Backend: core.StoreDisk}
	}
	cfg.Cluster.MemBudget = spec.MemBudget

	started := time.Now()
	ranPhase := false
	res, err := pipeline.Run(frags, pipeline.Config{
		Core:      cfg,
		Workdir:   filepath.Join(dir, workDir),
		Resume:    true,
		Flags:     spec.Flags(),
		Interrupt: drain.Done(),
		OnPhase: func(p pipeline.Phase) {
			ranPhase = true
			mark(dir, progressFile, string(p))
		},
	})
	if err != nil {
		return fail(err)
	}
	defer res.Close()

	// The archive is the CPU profile of the attempt that ran the job's
	// last phase. An attempt that only reloaded a finished workdir (the
	// orphaned runner of a crashed server got there first) ran none,
	// and leaves the archive of the attempt that did.
	if cpu := tel.StopProfile(); cpu != "" && ranPhase {
		b, err := os.ReadFile(cpu)
		if err == nil {
			err = durable.Stage(filepath.Join(dir, profileFile), durable.Bytes(b)) // writeResults syncs the directory
		}
		if err != nil {
			// The job result stands; only the profile archive is lost.
			fmt.Fprintln(os.Stderr, "runner: profile archive:", err)
		}
	}
	if err := writeResults(dir, res, started); err != nil {
		return fail(err)
	}
	mark(dir, progressFile, "done")
	tel.Close(nil)
	return 0
}

// mark writes a status marker (progress, collector URL) for the status
// view. A marker is a hint, not a result: it is staged whole, but its
// rename waits for the directory's next sync, so a power loss may show
// an older one.
func mark(dir, name, text string) {
	durable.Stage(filepath.Join(dir, name), durable.Bytes([]byte(text+"\n")))
}

// writeResults persists the contigs and summary report durably, so
// neither a crash nor a power loss leaves a half-result behind a valid
// name: the contigs are staged, and the report's write syncs the
// directory for both.
func writeResults(dir string, res *core.Result, started time.Time) error {
	contigRecs := res.ContigRecords()
	bases := 0
	for _, rec := range contigRecs {
		bases += len(rec.Bases)
	}
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, contigRecs, 0); err != nil {
		return fmt.Errorf("encode contigs: %w", err)
	}
	if err := durable.Stage(filepath.Join(dir, contigsFile), durable.Bytes(buf.Bytes())); err != nil {
		return err
	}
	rpt := Report{
		InputFragments: res.Store.N(),
		Clusters:       len(res.Clusters),
		Singletons:     len(res.Singletons),
		Contigs:        res.TotalContigs(),
		ContigBases:    bases,
		ElapsedMs:      time.Since(started).Milliseconds(),
	}
	rpt.QuarantinedClusters = len(res.Quarantined())
	b, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(dir, reportFile), append(b, '\n'))
}
