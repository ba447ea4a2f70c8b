// Command asmprof is the one command that reads telemetry: it watches
// a live run through its events streams, checks, explains and renders
// them afterwards, and turns the profiling plane's .pb.gz artifacts
// into critical-path attribution reports: which functions and
// allocation sites burn the phase the causal DAG says gates the run,
// per phase per rank, decoded entirely by the in-repo pprof reader.
//
// Usage:
//
//	asmprof -watch ev.json                  # watch a live run until it completes
//	asmprof ev.json                         # check + causal report of one run
//	asmprof ev.json.rank0 ev.json.rank1     # per-process dumps, merged first
//	asmprof -chrome run.trace.json ev.json  # also render a Chrome trace
//	asmprof DIR                             # attribution over every artifact in DIR
//	asmprof DIR ev.json.rank0 ...           # join against these dumps' critical path
//	asmprof -json DIR                       # machine-readable report
//	asmprof -folded -value cpu DIR          # collapsed stacks for a flamegraph
//	asmprof -diff OLDDIR NEWDIR             # what changed between two captures
//
// Every events stream (-events-out files; a multi-process run writes
// one per rank) is folded, merged and must pass the causal stream
// invariants, which the causal analysis checks as it walks the run,
// before anything is derived from it. A stream without its writer's
// final record (a killed process) counts as truncated, which exempts
// only that rank's own spans and the receives of its sends. Given
// dumps alone, asmprof prints a one-line trust summary and the causal
// analysis: critical path, per-rank and per-phase comm/comp/idle,
// stragglers.
// -chrome writes the run as Chrome trace_event JSON with the critical
// path marked (crit:true), for ui.perfetto.dev.
//
// With -watch PATH, where PATH is a running asmcluster's or
// asmpipeline's -events-out (or a job status's "events"), asmprof
// reads PATH and PATH.rank* (each also under its working .part and
// its .interrupted name) every 500 ms and appends one snapshot per
// poll: health state and the age of each stream's last append,
// current phase, event and traffic counters per rank, and the idle
// share and straggler flag from the live causal analysis of
// everything streamed so far. Of the streams at PATH it follows the
// newest run's; one that was already over when the watch began may be
// an earlier run, so the watch gives a successor 8 s to start before
// it reports that run. It exits 0 once the run completes OK, 1 when it
// completes failed or rank 0's stream died without its final record,
// and 2 when no stream appeared within 8 s.
//
// DIR holds artifacts a profiling session wrote (asmcluster/asmpipeline
// -prof-dir, or a job's prof/ directory): *.cpu.pb.gz and
// *.allocs.pb.gz, plus optionally the run's events.json. With dumps
// named after DIR (or an events.json found in DIR) the critical-path
// phase comes from the causal DAG; otherwise the largest labeled CPU
// phase stands in. Every report folds all of DIR's profiles in memory;
// unparseable artifacts (the empty CPU stream a SIGKILLed attempt
// leaves) are skipped, so a report is reproducible from whatever
// survived. asmprof writes no profile: a merged file for other pprof
// tools is `go tool pprof -proto DIR/*.cpu.pb.gz > merged.pb.gz`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/prof"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "asmprof:", err)
	os.Exit(1)
}

func main() {
	chromeOut := flag.String("chrome", "", "with events dumps alone: also write the run as a Chrome trace, critical path marked crit:true, to this file")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	folded := flag.Bool("folded", false, "emit collapsed stacks (flamegraph input) instead of a report")
	value := flag.String("value", "cpu", "sample value for -folded: a sample type name, or last type when absent")
	top := flag.Int("top", 5, "entries per ranked list (with events dumps alone: slowest spans listed, 10 unless set)")
	diff := flag.Bool("diff", false, "compare two capture directories: asmprof -diff OLD NEW")
	watchPath := flag.String("watch", "", "follow the run whose -events-out is this path until it completes")
	flag.Parse()

	if *watchPath != "" {
		if flag.NArg() != 0 {
			fail(fmt.Errorf("-watch follows one run alone, got %d more arguments", flag.NArg()))
		}
		os.Exit(watch(os.Stdout, os.Stderr, *watchPath, pollInterval))
	}

	if *diff {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-diff wants exactly two directories, got %d", flag.NArg()))
		}
		runDiff(flag.Arg(0), flag.Arg(1), *top, *jsonOut)
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: asmprof -watch EVENTS-OUT | asmprof [flags] EVENTS-DUMP... | asmprof [flags] ARTIFACT-DIR [EVENTS-DUMP...]  (see asmprof -h)")
		os.Exit(2)
	}
	dir, dumps := "", flag.Args()
	if st, err := os.Stat(dumps[0]); err == nil && st.IsDir() {
		dir, dumps = dumps[0], dumps[1:]
	}

	if dir == "" {
		if *folded {
			fail(fmt.Errorf("-folded reads profiles: name an artifact directory first"))
		}
		topSpans := 0 // analyze's default
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "top" {
				topSpans = *top
			}
		})
		if err := explain(os.Stdout, os.Stderr, dumps, topSpans, *jsonOut, *chromeOut); err != nil {
			fail(err)
		}
		return
	}
	if *chromeOut != "" {
		fail(fmt.Errorf("-chrome renders events dumps: name them without an artifact directory"))
	}

	cpus, allocs := loadDir(dir)
	if len(cpus) == 0 && len(allocs) == 0 {
		fail(fmt.Errorf("no profile artifacts under %s", dir))
	}

	if *folded {
		if len(cpus) == 0 {
			fail(fmt.Errorf("no CPU profiles under %s", dir))
		}
		if err := prof.WriteFolded(os.Stdout, cpus, *value); err != nil {
			fail(err)
		}
		return
	}

	crit := loadCritPhases(dir, dumps)
	rep := prof.Attribute(cpus, allocs, crit, prof.Options{Top: *top})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		return
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fail(err)
	}
}

// analyzeDumps reads the events streams at paths, merges them into one
// machine-wide dump (a rank no file covers counts as truncated) and
// analyzes it; nothing is derived from a dump that fails the stream
// invariants. Streams of two runs (an earlier run's file left at the
// same path) do not merge.
func analyzeDumps(paths []string, top int) (*obs.Dump, *analyze.Report, error) {
	dumps := make([]*obs.Dump, 0, len(paths))
	var first *obs.Stream
	for i, path := range paths {
		s, err := obs.ReadStreamFile(path)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = s
		} else if s.Run != first.Run {
			return nil, nil, fmt.Errorf("%s and %s are streams of different runs", paths[0], paths[i])
		}
		dumps = append(dumps, s.Dump)
	}
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		return nil, nil, err
	}
	rep, err := analyze.Analyze(merged, analyze.Options{TopSpans: top})
	if err != nil {
		return nil, nil, fmt.Errorf("%d dump(s) fail the stream invariants: %w", len(paths), err)
	}
	return merged, rep, nil
}

// explain checks the dumps at paths and writes the trust line and the
// causal report to out (the trust line to errOut under jsonOut, so out
// stays one JSON document); with chromePath set it also writes the
// critical-path-annotated Chrome trace there. top is the number of
// slowest spans to list (0: analyze's default).
func explain(out, errOut io.Writer, paths []string, top int, jsonOut bool, chromePath string) error {
	d, rep, err := analyzeDumps(paths, top)
	if err != nil {
		return err
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := rep.WriteAnnotatedChrome(f, d); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	trust := out
	if jsonOut {
		trust = errOut
	}
	fmt.Fprintf(trust, "trace ok: %d ranks, %d events, %d seq-matched recvs, %d truncated rank(s), %d rank(s) with no events, %d fault-model instants\n",
		rep.Ranks, rep.EventsTotal, rep.SeqMatched, len(rep.DroppedRanks), len(rep.EmptyRanks), rep.Faults)
	if jsonOut {
		return rep.WriteJSON(out)
	}
	return rep.WriteText(out)
}

// loadDir parses every artifact in dir, skipping what cannot parse
// (with a note — an empty CPU stream from a killed process is normal
// after a crash+resume).
func loadDir(dir string) (cpus, allocs []*prof.Profile) {
	cpuPaths, allocPaths := prof.DirArtifacts(dir)
	var skipped []string
	var err error
	cpus, skipped, err = prof.ParseFiles(cpuPaths)
	if err != nil {
		fail(err)
	}
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "asmprof: skipping unparseable %s\n", s)
	}
	allocs, skipped, err = prof.ParseFiles(allocPaths)
	if err != nil {
		fail(err)
	}
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "asmprof: skipping unparseable %s\n", s)
	}
	return cpus, allocs
}

// loadCritPhases derives the causal critical-path phase totals from
// the run's events dumps: the ones named after DIR, or DIR/events.json
// when present. No dump means no join — attribution falls back to CPU
// samples.
func loadCritPhases(dir string, dumps []string) []prof.CritPhaseSec {
	if len(dumps) == 0 {
		candidate := filepath.Join(dir, "events.json")
		if _, err := os.Stat(candidate); err != nil {
			return nil
		}
		dumps = []string{candidate}
	}
	_, rep, err := analyzeDumps(dumps, 1)
	if err != nil {
		fail(fmt.Errorf("analyzing %v: %w", dumps, err))
	}
	return critPhases(rep)
}

// critPhases converts an analyze report's critical-path phase totals
// into the plain form prof.Attribute consumes.
func critPhases(rep *analyze.Report) []prof.CritPhaseSec {
	out := make([]prof.CritPhaseSec, 0, len(rep.CriticalPath.PhaseTotals))
	for _, cp := range rep.CriticalPath.PhaseTotals {
		out = append(out, prof.CritPhaseSec{Phase: cp.Phase, Sec: cp.Sec})
	}
	return out
}

// runDiff localizes a regression between two captures: per-function
// flat CPU deltas and per-site allocation deltas, largest first.
func runDiff(oldDir, newDir string, top int, jsonOut bool) {
	oldCPUs, oldAllocs := loadDir(oldDir)
	newCPUs, newAllocs := loadDir(newDir)
	cpu := prof.DiffCPU(oldCPUs, newCPUs, top)
	alloc := prof.DiffAllocs(oldAllocs, newAllocs, top)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"cpu": cpu, "allocs": alloc}); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("CPU deltas (%s → %s):\n", oldDir, newDir)
	if len(cpu) == 0 {
		fmt.Println("  none")
	}
	for _, d := range cpu {
		fmt.Printf("  %+12.1fms  (%.1fms → %.1fms)  %s\n",
			float64(d.Delta)/1e6, float64(d.OldNanos)/1e6, float64(d.NewNanos)/1e6, d.Function)
	}
	fmt.Printf("\nallocation deltas:\n")
	if len(alloc) == 0 {
		fmt.Println("  none")
	}
	for _, d := range alloc {
		loc := d.Function
		if d.File != "" {
			loc = fmt.Sprintf("%s (%s:%d)", d.Function, d.File, d.Line)
		}
		fmt.Printf("  %+12.1fMB  %+10d objs  %s\n",
			float64(d.DeltaBytes)/(1<<20), d.NewObjects-d.OldObjects, loc)
	}
}
