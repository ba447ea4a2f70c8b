// Command benchmark is the repository's benchmark: it generates read
// sets from a seed, drives the built programs over them as
// subprocesses, checks every output against a serial in-process
// reference, and prints each metric of BENCHMARK.json by name.
//
//	go run ./benchmark -workload wgs_serial -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with no
// tracing anywhere; with -trace 1 it replays the workload's stages in
// process under spans and prints the per-layer metrics. The last line
// of standard output is one JSON object. README.md has the details.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the
// same names (manifest_test.go keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"reads_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"jobs_per_min", "1/min"},
}

// minUnits is the least number of units a run measures, however short
// -seconds is: medians and quartiles need at least three samples.
const minUnits = 3

// overallDeadline keeps one invocation inside the 180 s the benchmark
// contract allows, whatever hangs.
const overallDeadline = 170 * time.Second

// stat is one reported metric: its value and, where it summarizes
// several samples, their quartiles and count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

func medianStat(xs []float64) stat {
	q1, q3 := quartiles(xs)
	return stat{Value: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// outcome is everything one invocation reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]stat
	spans             []Span
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced in-process replay")
	outDir := flag.String("out", "", "also write result.json (and trace.json with -trace 1) to this directory")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of %v) and -trace 0|1\n", workloadNames())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, overallDeadline)
	defer cancel()

	// Everything the benchmark writes lives under .bench_build in the
	// checkout: binaries, and one scratch directory removed on exit.
	buildDir, err := filepath.Abs(".bench_build")
	if err != nil {
		return fail(err)
	}
	binDir := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), w.name+"-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	if err := buildPrograms(ctx, binDir); err != nil {
		return fail(err)
	}

	h := header(w.name, *seed, *seconds, *trace)
	fmt.Printf("# %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		w.name, *seed, *seconds, *trace, h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit)

	window := time.Duration(*seconds * float64(time.Second))
	var oc outcome
	var defs []metricDef
	if *trace == 0 {
		oc, defs = w.measure(ctx, binDir, scratch, *seed, window), endToEnd
	} else {
		oc, defs = w.traced(ctx, binDir, scratch, *seed, window), perLayer
	}

	for _, d := range defs {
		s := oc.metrics[d.name]
		s.Unit = d.unit
		oc.metrics[d.name] = s
		line := fmt.Sprintf("%-34s %14.6g %s", d.name, s.Value, s.Unit)
		if s.Q1 != 0 || s.Q3 != 0 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", s.Q1, s.Q3)
		}
		if s.N > 0 {
			line += fmt.Sprintf(" n=%d", s.N)
		}
		fmt.Println(line)
	}
	if *outDir != "" {
		if err := writeOut(*outDir, h, oc); err != nil {
			return fail(err)
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{oc.failed == 0, oc.attempted, oc.failed, map[string]value{}}
	for _, d := range defs {
		last.Metrics[d.name] = value{oc.metrics[d.name].Value, d.unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if oc.failed > 0 || ctx.Err() != nil {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// measure is the end-to-end run: units are prepared, run and kept
// until the window closes, then every output is verified — after the
// measuring, and on all cores, so that checking costs no measured time.
func (w *workload) measure(ctx context.Context, binDir, scratch string, seed int64, window time.Duration) outcome {
	var (
		units                     []*unit
		setups, walls, rates      []float64
		cpus, rsss, lats, perUnit []float64
		oc                        = outcome{metrics: map[string]stat{}}
	)
	jobsPerUnit := 1
	if w.jobs > 0 {
		jobsPerUnit = w.jobs
	}
	start := time.Now()
	for i := 0; (i < minUnits || time.Since(start) < window) && ctx.Err() == nil; i++ {
		t0 := time.Now()
		u, err := w.prepare(ctx, binDir, scratch, seed, i)
		setup := time.Since(t0).Seconds()
		oc.attempted += jobsPerUnit
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: unit %d set-up: %v\n", i, err)
			oc.failed += jobsPerUnit
			continue
		}
		units = append(units, u)
		s, err := w.run(ctx, binDir, u)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: unit %d: %v\n", i, err)
			continue // verify counts the jobs marked failed
		}
		fmt.Fprintf(os.Stderr, "unit %d: setup %.4fs wall %.4fs cpu %.4fs rss %.1fMB reads %d jobs %d\n",
			i, setup, s.wall, s.cpu, s.rssMB, s.reads, len(s.latencies))
		setups = append(setups, setup)
		walls = append(walls, s.wall)
		rates = append(rates, float64(s.reads)/s.wall)
		cpus = append(cpus, s.cpu)
		rsss = append(rsss, s.rssMB)
		lats = append(lats, s.latencies...)
		perUnit = append(perUnit, float64(len(s.latencies)))
	}
	if ctx.Err() != nil {
		oc.failed = oc.attempted // interrupted or out of time: nothing was verified
	} else {
		oc.failed += w.verifyAll(units)
	}

	oc.metrics["setup_s"] = medianStat(setups)
	oc.metrics["wall_s"] = medianStat(walls)
	oc.metrics["reads_per_s"] = medianStat(rates)
	oc.metrics["cpu_s"] = medianStat(cpus)
	oc.metrics["peak_rss_mb"] = medianStat(rsss)
	oc.metrics["job_latency_p50_s"] = medianStat(lats)
	oc.metrics["job_latency_p90_s"] = stat{Value: percentile(lats, 90), N: len(lats)}
	oc.metrics["jobs_per_min"] = stat{Value: ratio(60*sum(perUnit), sum(walls)), N: len(walls)}
	return oc
}

// verifyAll checks every unit on all cores and returns the number of
// jobs that failed or produced wrong output.
func (w *workload) verifyAll(units []*unit) int {
	var (
		mu     sync.Mutex
		failed int
		wg     sync.WaitGroup
	)
	next := make(chan *unit)
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				n, err := w.verify(u)
				mu.Lock()
				failed += n
				mu.Unlock()
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
				}
			}
		}()
	}
	for _, u := range units {
		next <- u
	}
	close(next)
	wg.Wait()
	return failed
}

// machine facts printed in the result header and written to result.json.
type runHeader struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func header(workload string, seed int64, seconds float64, trace int) runHeader {
	h := runHeader{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// writeOut writes result.json, and trace.json when spans were taken.
func writeOut(dir string, h runHeader, oc outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res := struct {
		runHeader
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]stat `json:"metrics"`
	}{h, oc.attempted, oc.failed, oc.metrics}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if oc.spans == nil {
		return nil
	}
	if b, err = json.MarshalIndent(oc.spans, "", " "); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(b, '\n'), 0o644)
}
