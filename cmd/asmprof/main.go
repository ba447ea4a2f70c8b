// Command asmprof turns the profiling plane's .pb.gz artifacts into
// critical-path attribution reports: which functions and allocation
// sites burn the phase the causal DAG says gates the run, per phase
// per rank, decoded entirely by the in-repo pprof reader.
//
// Usage:
//
//	asmprof DIR                         # report over every artifact in DIR
//	asmprof -events DIR/events.json DIR # join against the causal critical path
//	asmprof -json DIR                   # machine-readable report
//	asmprof -folded -value cpu DIR      # collapsed stacks for a flamegraph
//	asmprof -merge-out merged.pb.gz DIR # write the cross-rank merged CPU profile
//	asmprof -diff OLDDIR NEWDIR         # what changed between two captures
//
// DIR holds artifacts a profiling session wrote (asmcluster/asmpipeline
// -prof-dir, whose -events-out DIR/events.json adds the causal join, or
// a job's prof/ directory):
// *.cpu.pb.gz, *.heap*.pb.gz, *.allocs.pb.gz, plus optionally the
// run's events.json. With -events (or an events.json found in DIR)
// the critical-path phase comes from the analyze causal DAG;
// otherwise the largest labeled CPU phase stands in. Truncated
// artifacts (a SIGKILLed attempt's partial stream) are skipped, so a
// report is reproducible from whatever survived.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	eventsPath := flag.String("events", "", "events dump to derive the causal critical path from (default: DIR/events.json when present)")
	jsonOut := flag.Bool("json", false, "emit the attribution report as JSON")
	folded := flag.Bool("folded", false, "emit collapsed stacks (flamegraph input) instead of a report")
	value := flag.String("value", "cpu", "sample value for -folded: a sample type name, or last type when absent")
	top := flag.Int("top", 5, "entries per ranked list")
	mergeOut := flag.String("merge-out", "", "write the cross-rank merged CPU profile to this .pb.gz file")
	diff := flag.Bool("diff", false, "compare two capture directories: asmprof -diff OLD NEW")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-diff wants exactly two directories, got %d", flag.NArg()))
		}
		runDiff(flag.Arg(0), flag.Arg(1), *top, *jsonOut)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asmprof [flags] ARTIFACT-DIR  (see asmprof -h)")
		os.Exit(2)
	}
	dir := flag.Arg(0)

	cpus, allocs := loadDir(dir)
	if len(cpus) == 0 && len(allocs) == 0 {
		fail(fmt.Errorf("no profile artifacts under %s", dir))
	}

	if *mergeOut != "" {
		if len(cpus) == 0 {
			fail(fmt.Errorf("no CPU profiles to merge under %s", dir))
		}
		merged, err := prof.Merge(cpus...)
		if err != nil {
			fail(err)
		}
		if err := merged.WriteFile(*mergeOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote merged profile %s (%d samples)\n", *mergeOut, len(merged.Samples))
		return
	}

	if *folded {
		if len(cpus) == 0 {
			fail(fmt.Errorf("no CPU profiles under %s", dir))
		}
		merged, err := prof.Merge(cpus...)
		if err != nil {
			fail(err)
		}
		if err := prof.WriteFolded(os.Stdout, merged, merged.ValueIndex(*value)); err != nil {
			fail(err)
		}
		return
	}

	crit := loadCritPhases(dir, *eventsPath)
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

// loadDir parses every artifact in dir, skipping what cannot parse
// (with a note — a truncated stream from a killed process is normal
// after a crash+resume).
func loadDir(dir string) (cpus, allocs []*prof.Profile) {
	cpuPaths, _, allocPaths := prof.DirArtifacts(dir)
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
// an events dump: the -events flag, or DIR/events.json when present.
// No dump means no join — attribution falls back to CPU samples.
func loadCritPhases(dir, eventsPath string) []prof.CritPhaseSec {
	if eventsPath == "" {
		candidate := filepath.Join(dir, "events.json")
		if _, err := os.Stat(candidate); err != nil {
			return nil
		}
		eventsPath = candidate
	}
	d, err := obs.ReadDumpFile(eventsPath)
	if err != nil {
		fail(err)
	}
	rep, err := analyze.Analyze(d, analyze.Options{TopSpans: 1})
	if err != nil {
		fail(fmt.Errorf("analyzing %s: %w", eventsPath, err))
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
