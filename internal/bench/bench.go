// Package bench is the continuous-benchmark pipeline: fixed-seed
// workloads over the parallel clustering engine and the full
// pipeline, measured in both host terms (ns/op, allocs, peak RSS)
// and modeled terms (critical path, comm/comp decomposition from the
// causal DAG). Baselines are committed JSON; Compare gates each
// metric against its own noise-calibrated threshold so a regression
// fails `make bench-check` while host jitter does not.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/collector"
	"repro/internal/obs/prof"
	"repro/internal/par"
	"repro/internal/par/nettrans"
	"repro/internal/pipeline"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// Version of the baseline file format.
const Version = 1

// Metrics is one workload's measurement. Host-clock metrics
// (NsPerOp, AllocsPerOp, PeakRSSBytes) are noisy; modeled metrics
// come from the causal DAG over the run's trace and are stable up to
// master-protocol scheduling.
type Metrics struct {
	Workload string `json:"workload"`
	Ranks    int    `json:"ranks"`
	Iters    int    `json:"iters"`

	NsPerOp      int64  `json:"ns_per_op"`      // fastest iteration
	AllocsPerOp  uint64 `json:"allocs_per_op"`  // fewest-alloc iteration
	PeakRSSBytes uint64 `json:"peak_rss_bytes"` // VmHWM after the run

	CriticalPathSec float64 `json:"critical_path_sec"` // DAG makespan
	RawMakespanSec  float64 `json:"raw_makespan_sec"`
	CommSec         float64 `json:"comm_sec"`
	CompSec         float64 `json:"comp_sec"`
	IdleSec         float64 `json:"idle_sec"`
	CommCompRatio   float64 `json:"comm_comp_ratio"`
}

// Baseline is the committed benchmark file (BENCH_<workload>.json).
type Baseline struct {
	Version  int       `json:"version"`
	Workload []Metrics `json:"workloads"`
}

// Config tunes a benchmark run.
type Config struct {
	Ranks int // simulated machine size (default 8)
	Iters int // timed iterations; fastest wins (default 3)
	// Slowdown multiplies every modeled compute charge (par.Config
	// CompScale); 1 is natural speed. Used to prove bench-check
	// detects an injected regression.
	Slowdown float64
	// Collector streams telemetry to a live run collector for the
	// whole timed region, exactly as a production run under asmtop
	// would. Checking a collector-on run against a collector-off
	// baseline proves the streaming overhead stays under the noise
	// gates.
	Collector bool
}

func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 8
	}
	if c.Iters == 0 {
		c.Iters = 3
	}
	if c.Slowdown == 0 {
		c.Slowdown = 1
	}
	return c
}

// benchReads synthesizes the fixed benchmark input: every workload
// and every run sees the identical read set.
func benchReads() []*seq.Fragment {
	rng := rand.New(rand.NewSource(42))
	g := simulate.NewGenome(rng, "bench", simulate.GenomeConfig{
		Length:  20000,
		Repeats: []simulate.RepeatFamily{{Length: 300, Copies: 6, Divergence: 0.02}},
	})
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 200
	rc.LenSD = 30
	rc.VectorProb = 0
	return simulate.SampleWGS(rng, g, 6.0, rc, "r")
}

// workloadBody builds the per-iteration body for one named workload
// over a fixed read set — shared by the timed benchmark loop, the
// profiled capture and the overhead measurement so they all run the
// identical work.
func workloadBody(workload string, cfg Config, frags []*seq.Fragment) (func(tr *obs.Tracer) error, error) {
	var body func(tr *obs.Tracer) error
	switch workload {
	case "cluster":
		store := seq.NewStore(frags)
		ccfg := cluster.DefaultConfig()
		body = func(tr *obs.Tracer) error {
			machine := par.DefaultConfig(cfg.Ranks)
			machine.CompScale = cfg.Slowdown
			machine.Trace = tr
			pcfg := cluster.DefaultParallelConfig(cfg.Ranks)
			pcfg.Machine = machine
			_, _, err := cluster.Parallel(store, ccfg, pcfg)
			return err
		}
	case "transport":
		// The socket backend over loopback TCP: every rank runs its
		// own nettrans endpoint and the full clustering protocol flows
		// through real connections (framing, acks, heartbeats). Ranks
		// share this process so one tracer covers the whole machine —
		// the same measurement the other workloads take, now priced
		// with the transport in the path.
		store := seq.NewStore(frags)
		ccfg := cluster.DefaultConfig()
		epoch := uint64(0)
		body = func(tr *obs.Tracer) error {
			registry, err := os.MkdirTemp("", "bench-transport-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(registry)
			epoch++
			errs := make(chan error, cfg.Ranks)
			for r := 0; r < cfg.Ranks; r++ {
				go func(r int) {
					t, err := nettrans.New(nettrans.Config{
						Rank: r, Size: cfg.Ranks, Network: "tcp",
						RegistryDir: registry, Epoch: epoch,
					})
					if err != nil {
						errs <- err
						return
					}
					machine := par.DefaultConfig(cfg.Ranks)
					machine.CompScale = cfg.Slowdown
					machine.Trace = tr
					pcfg := cluster.DefaultParallelConfig(cfg.Ranks)
					pcfg.Machine = machine
					_, _, _, err = cluster.ParallelRank(store, ccfg, pcfg, r, t)
					if cerr := t.Close(); err == nil {
						err = cerr
					}
					errs <- err
				}(r)
			}
			var first error
			for i := 0; i < cfg.Ranks; i++ {
				if err := <-errs; err != nil && first == nil {
					first = err
				}
			}
			return first
		}
	case "pipeline":
		body = func(tr *obs.Tracer) error {
			coreCfg := core.DefaultConfig()
			coreCfg.PreprocessEnabled = false
			coreCfg.AssemblyWorkers = 2
			coreCfg.Parallel = cluster.DefaultParallelConfig(cfg.Ranks)
			coreCfg.Parallel.Machine = par.DefaultConfig(cfg.Ranks)
			coreCfg.Parallel.Machine.CompScale = cfg.Slowdown
			coreCfg.Parallel.Machine.Trace = tr
			_, err := pipeline.Run(frags, pipeline.Config{Core: coreCfg})
			return err
		}
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (want cluster, transport or pipeline)", workload)
	}
	return body, nil
}

// Run executes one named workload ("cluster", "transport" or
// "pipeline") and returns its metrics.
func Run(workload string, cfg Config) (*Metrics, error) {
	cfg = cfg.withDefaults()
	body, err := workloadBody(workload, cfg, benchReads())
	if err != nil {
		return nil, err
	}

	m := &Metrics{Workload: workload, Ranks: cfg.Ranks, Iters: cfg.Iters}
	var lastTracer *obs.Tracer
	for i := 0; i < cfg.Iters; i++ {
		tr := obs.NewTracer(cfg.Ranks, obs.DefaultRingCap)
		var rep *collector.Reporter
		var srv *obs.Server
		if cfg.Collector {
			// One reporter covers the whole shared-process machine, as
			// an in-process production run would. Setup and the final
			// flush stay outside the timed region; the periodic delta
			// streaming — the cost a live run actually pays — is in it.
			col := collector.New(collector.Config{Ranks: cfg.Ranks, Job: "bench-" + workload})
			var err error
			srv, err = col.Serve("127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("bench %s: collector: %w", workload, err)
			}
			covers := make([]int, cfg.Ranks)
			for r := range covers {
				covers[r] = r
			}
			rep = collector.StartReporter(collector.ReporterConfig{
				URL: "http://" + srv.Addr, Rank: 0, Covers: covers,
				Job: "bench-" + workload, Tracer: tr,
			})
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		if err := body(tr); err != nil {
			return nil, fmt.Errorf("bench %s: %w", workload, err)
		}
		ns := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if rep != nil {
			if err := rep.Close(tr.Dump(), true, ""); err != nil {
				return nil, fmt.Errorf("bench %s: collector flush: %w", workload, err)
			}
			srv.Close()
		}
		allocs := ms1.Mallocs - ms0.Mallocs
		if i == 0 || ns < m.NsPerOp {
			m.NsPerOp = ns
		}
		if i == 0 || allocs < m.AllocsPerOp {
			m.AllocsPerOp = allocs
		}
		lastTracer = tr
	}
	m.PeakRSSBytes = peakRSS()

	rep, err := analyze.FromTracer(lastTracer, analyze.Options{TopSpans: 1})
	if err != nil {
		return nil, fmt.Errorf("bench %s: analyzing trace: %w", workload, err)
	}
	m.CriticalPathSec = rep.CriticalPath.LengthSec
	m.RawMakespanSec = rep.RawMakespanSec
	m.CommSec = rep.CommSec
	m.CompSec = rep.CompSec
	m.IdleSec = rep.IdleSec
	if rep.CompSec > 0 {
		m.CommCompRatio = rep.CommSec / rep.CompSec
	}
	return m, nil
}

// CritPhases converts an analyze report's critical-path phase totals
// into the plain form prof.Attribute consumes.
func CritPhases(rep *analyze.Report) []prof.CritPhaseSec {
	if rep == nil {
		return nil
	}
	out := make([]prof.CritPhaseSec, 0, len(rep.CriticalPath.PhaseTotals))
	for _, cp := range rep.CriticalPath.PhaseTotals {
		out = append(out, prof.CritPhaseSec{Phase: cp.Phase, Sec: cp.Sec})
	}
	return out
}

// RunProfile executes one un-timed profiled iteration of a workload:
// a prof session captures the phase/rank-labeled CPU profile plus
// heap/alloc snapshots into dir, the run's events dump lands next to
// them (events.json), and the artifacts come back joined against the
// run's own causal critical path as an attribution report. It runs
// outside the timed loop so committed baselines never carry the
// profiling tax.
func RunProfile(workload string, cfg Config, dir string) (*prof.Report, prof.Artifacts, error) {
	cfg = cfg.withDefaults()
	body, err := workloadBody(workload, cfg, benchReads())
	if err != nil {
		return nil, prof.Artifacts{}, err
	}
	sess, err := prof.Start(prof.Config{Dir: dir, Name: "bench-" + workload, Registry: obs.NewRegistry()})
	if err != nil {
		return nil, prof.Artifacts{}, err
	}
	tr := obs.NewTracer(cfg.Ranks, obs.DefaultRingCap)
	runErr := body(tr)
	arts, stopErr := sess.Stop()
	if runErr != nil {
		return nil, arts, fmt.Errorf("bench %s: %w", workload, runErr)
	}
	if stopErr != nil {
		return nil, arts, fmt.Errorf("bench %s: profile stop: %w", workload, stopErr)
	}
	f, err := os.Create(filepath.Join(dir, "events.json"))
	if err != nil {
		return nil, arts, err
	}
	err = tr.WriteEvents(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, arts, err
	}
	rep, err := analyze.FromTracer(tr, analyze.Options{TopSpans: 1})
	if err != nil {
		return nil, arts, fmt.Errorf("bench %s: analyzing trace: %w", workload, err)
	}
	cpus, _, err := prof.ParseFiles([]string{arts.CPU})
	if err != nil {
		return nil, arts, fmt.Errorf("bench %s: parsing cpu profile: %w", workload, err)
	}
	allocs, _, err := prof.ParseFiles([]string{arts.Allocs})
	if err != nil {
		return nil, arts, fmt.Errorf("bench %s: parsing allocs profile: %w", workload, err)
	}
	return prof.Attribute(cpus, allocs, CritPhases(rep), prof.Options{}), arts, nil
}

// Overhead is ProfileOverhead's verdict: the fastest profiling-off
// and profiling-on iteration of the same workload in one process.
type Overhead struct {
	Workload string `json:"workload"`
	OffNs    int64  `json:"off_ns"`
	OnNs     int64  `json:"on_ns"`
}

// Pct is the profiling tax as a percentage of the off time.
func (o Overhead) Pct() float64 {
	if o.OffNs <= 0 {
		return 0
	}
	return 100 * (float64(o.OnNs) - float64(o.OffNs)) / float64(o.OffNs)
}

// ProfileOverhead measures the profiling tax by alternating off and
// on iterations in one process (so CPU frequency, cache state and
// heap age are shared) and comparing the fastest of each. Artifacts
// go to a throwaway directory.
func ProfileOverhead(workload string, cfg Config) (Overhead, error) {
	cfg = cfg.withDefaults()
	body, err := workloadBody(workload, cfg, benchReads())
	if err != nil {
		return Overhead{}, err
	}
	dir, err := os.MkdirTemp("", "bench-overhead-")
	if err != nil {
		return Overhead{}, err
	}
	defer os.RemoveAll(dir)
	ov := Overhead{Workload: workload}
	for i := 0; i < cfg.Iters; i++ {
		tr := obs.NewTracer(cfg.Ranks, obs.DefaultRingCap)
		t0 := time.Now()
		if err := body(tr); err != nil {
			return ov, fmt.Errorf("bench %s: %w", workload, err)
		}
		if ns := time.Since(t0).Nanoseconds(); i == 0 || ns < ov.OffNs {
			ov.OffNs = ns
		}

		sess, err := prof.Start(prof.Config{Dir: dir, Name: fmt.Sprintf("ov%d", i), Registry: obs.NewRegistry()})
		if err != nil {
			return ov, err
		}
		tr = obs.NewTracer(cfg.Ranks, obs.DefaultRingCap)
		t0 = time.Now()
		runErr := body(tr)
		ns := time.Since(t0).Nanoseconds()
		if _, serr := sess.Stop(); serr != nil && runErr == nil {
			runErr = serr
		}
		if runErr != nil {
			return ov, fmt.Errorf("bench %s (profiled): %w", workload, runErr)
		}
		if i == 0 || ns < ov.OnNs {
			ov.OnNs = ns
		}
	}
	return ov, nil
}

// peakRSS reads the process high-water RSS from /proc/self/status
// (VmHWM), falling back to the Go heap's Sys when unavailable.
func peakRSS() uint64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}

// WriteBaseline writes one workload's metrics as a baseline file.
func WriteBaseline(w io.Writer, ms ...Metrics) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Baseline{Version: Version, Workload: ms})
}

// ReadBaseline parses a baseline file.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	var b Baseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("bench: not a baseline file: %w", err)
	}
	if b.Version != Version {
		return nil, fmt.Errorf("bench: baseline version %d, want %d", b.Version, Version)
	}
	return &b, nil
}

// ReadBaselineFile reads and parses one baseline file.
func ReadBaselineFile(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := ReadBaseline(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// gate is one metric's regression threshold: current may exceed
// baseline by at most frac (fraction of baseline) before Compare
// flags it. Metrics without a gate are report-only.
type gate struct {
	name     string
	frac     float64
	baseline func(*Metrics) float64
}

// Gates returns the gated metrics and their thresholds. Host-clock
// metrics get wide margins (shared CI machines jitter); modeled
// metrics get tight ones — they vary only with the master protocol's
// scheduling, measured well under their margins in practice.
func Gates() []string {
	var out []string
	for _, g := range gates {
		out = append(out, fmt.Sprintf("%s +%.0f%%", g.name, g.frac*100))
	}
	return out
}

var gates = []gate{
	{"ns_per_op", 1.00, func(m *Metrics) float64 { return float64(m.NsPerOp) }},
	{"allocs_per_op", 0.50, func(m *Metrics) float64 { return float64(m.AllocsPerOp) }},
	{"critical_path_sec", 0.35, func(m *Metrics) float64 { return m.CriticalPathSec }},
	{"comp_sec", 0.35, func(m *Metrics) float64 { return m.CompSec }},
	{"comm_sec", 0.35, func(m *Metrics) float64 { return m.CommSec }},
}

// Compare checks current against the baseline for the same workload
// and returns one line per regression (empty: no regressions).
func Compare(baseline, current *Metrics) []string {
	var regressions []string
	for _, g := range gates {
		base := g.baseline(baseline)
		cur := g.baseline(current)
		if base <= 0 {
			continue
		}
		if cur > base*(1+g.frac) {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s: %.4g exceeds baseline %.4g by more than %.0f%%",
					current.Workload, g.name, cur, base, g.frac*100))
		}
	}
	return regressions
}
