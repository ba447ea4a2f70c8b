package launch_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/prof"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// cli is the built commands plus one small input, shared by the
// subtests of TestCLIContract.
type cli struct {
	bin   string // directory holding asmcluster and asmpipeline
	reads string // input FASTA
}

// buildCLI compiles the two session commands once. Under a
// race-enabled test binary (make cli-smoke) the commands are built
// with -race too, so the session's signal and close paths run checked.
func buildCLI(t *testing.T) cli {
	t.Helper()
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				args = append(args, "-race")
			}
		}
	}
	args = append(args, "repro/cmd/asmcluster", "repro/cmd/asmpipeline")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	// Three 2 kbp islands under ~6× coverage of 300 bp reads: a few
	// multi-read clusters and contigs, well under a second per run.
	rng := rand.New(rand.NewSource(13))
	const islands, islandLen, reads = 3, 2000, 120
	genomes := make([]*simulate.Genome, islands)
	for i := range genomes {
		genomes[i] = simulate.NewGenome(rng, fmt.Sprintf("isl%d", i), simulate.GenomeConfig{Length: islandLen})
	}
	rc := simulate.DefaultReadConfig()
	rc.MeanLen, rc.LenSD, rc.VectorProb = 300, 30, 0
	var recs []seq.Record
	for i := 0; i < reads; i++ {
		start := (i / islands * 137) % (islandLen - rc.MeanLen)
		f := simulate.SampleAt(rng, genomes[i%islands], rc, start, fmt.Sprintf("r%04d", i))
		recs = append(recs, seq.Record{Name: f.Name, Bases: f.Bases})
	}
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, recs, 0); err != nil {
		t.Fatal(err)
	}
	c := cli{bin: bin, reads: filepath.Join(t.TempDir(), "reads.fa")}
	if err := os.WriteFile(c.reads, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return c
}

// command prepares one program run in a fresh working directory whose
// tmp/ subdirectory is the run's TMPDIR, so leftovers are countable.
func (c cli) command(t *testing.T, ctx context.Context, prog string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, filepath.Join(c.bin, prog), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(dir, "tmp"))
	return cmd, dir
}

// run executes prog to completion and returns its working directory,
// combined output and exit status.
func (c cli) run(t *testing.T, prog string, args ...string) (dir, out string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd, dir := c.command(t, ctx, prog, args...)
	b, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v\n%s", prog, args, err, b)
	}
	return dir, string(b), cmd.ProcessState.ExitCode()
}

// mustRun is run for an invocation that has to succeed.
func (c cli) mustRun(t *testing.T, prog string, args ...string) string {
	t.Helper()
	dir, out, code := c.run(t, prog, args...)
	if code != 0 {
		t.Fatalf("%s %v: exit %d\n%s", prog, args, code, out)
	}
	c.assertClean(t, dir)
	return dir
}

// assertClean fails if the finished run left anything in its TMPDIR
// (registry, disk-store temp dir) or any process of ours alive.
func (c cli) assertClean(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
	// The binaries live in a directory unique to this test, so any
	// process executing one of them is a rank that outlived its run.
	procs, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && strings.HasPrefix(exe, c.bin) {
			t.Errorf("process %s (%s) survived the run", filepath.Base(filepath.Dir(p)), exe)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkDumps merges the per-process events dumps base.rank0..n-1 (or
// base alone when n is 0) and runs the causal stream invariants.
func checkDumps(t *testing.T, base string, n int) {
	t.Helper()
	paths := []string{base}
	if n > 0 {
		paths = paths[:0]
		for r := 0; r < n; r++ {
			paths = append(paths, fmt.Sprintf("%s.rank%d", base, r))
		}
	}
	checkDumpFiles(t, analyze.Options{}, paths)
}

// checkDumpFiles merges the events dumps at paths and runs the causal
// stream invariants; opt.Partial tolerates a run that did not finish.
func checkDumpFiles(t *testing.T, opt analyze.Options, paths []string) {
	t.Helper()
	var dumps []*obs.Dump
	for _, p := range paths {
		s, err := obs.ReadStreamFile(p)
		if err != nil {
			t.Fatalf("events dump: %v", err)
		}
		dumps = append(dumps, s.Dump)
	}
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		t.Fatalf("merge %v: %v", paths, err)
	}
	if _, err := analyze.Analyze(merged, opt); err != nil {
		t.Errorf("merged dump of %v violates the stream invariants: %v", paths, err)
	}
}

// TestCLIContract drives the built asmcluster and asmpipeline
// through the argv shapes the benchmark and the verify notes use, and
// pins what every run owes its caller: the serial partition, identical
// contigs whatever the transport or store, one checkable events dump
// per process, a decodable profile, nothing left in TMPDIR and no
// surviving rank — on success, on failure and on interrupt.
func TestCLIContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command binaries")
	}
	c := buildCLI(t)

	frags, err := seq.ReadFragmentsFile(c.reads)
	if err != nil {
		t.Fatal(err)
	}
	store := seq.NewStore(frags)
	ccfg := cluster.DefaultConfig() // the commands' flag defaults
	ccfg.Psi, ccfg.W = 20, 10
	ccfg.Criteria.MinOverlap, ccfg.Criteria.MinIdentity = 40, 0.90
	refPath := filepath.Join(t.TempDir(), "ref.tsv")
	if err := cluster.WriteTSV(refPath, store, cluster.Serial(store, ccfg)); err != nil {
		t.Fatal(err)
	}
	wantTSV := readFile(t, refPath)
	if n := bytes.Count(wantTSV, []byte("\n")); n != len(frags) {
		t.Fatalf("reference TSV has %d lines for %d reads", n, len(frags))
	}

	t.Run("asmcluster", func(t *testing.T) {
		for _, args := range [][]string{
			{"-ranks", "1"},
			{"-ranks", "4", "-transport", "inproc"},
			{"-ranks", "4", "-transport", "tcp", "-events-out", "ev.json", "-prof-dir", "prof"},
			{"-ranks", "3", "-transport", "unix", "-events-out", "ev.json", "-prof-dir", "prof"},
		} {
			dir := c.mustRun(t, "asmcluster", append([]string{"-in", c.reads, "-out", "clusters.tsv"}, args...)...)
			if !bytes.Equal(readFile(t, filepath.Join(dir, "clusters.tsv")), wantTSV) {
				t.Errorf("asmcluster %v: clusters.tsv differs from cluster.WriteTSV(cluster.Serial)", args)
			}
			if len(args) > 4 {
				ranks, _ := strconv.Atoi(args[1])
				checkDumps(t, filepath.Join(dir, "ev.json"), ranks)
				cpus, _ := prof.DirArtifacts(filepath.Join(dir, "prof"))
				if len(cpus) != ranks {
					t.Fatalf("asmcluster %v: -prof-dir holds %d CPU artifacts, want one per rank: %v", args, len(cpus), cpus)
				}
				for _, p := range cpus {
					if _, err := prof.ParseFile(p); err != nil {
						t.Errorf("CPU artifact does not decode: %v", err)
					}
				}
			}
		}
	})

	t.Run("asmpipeline", func(t *testing.T) {
		var want []byte
		for _, args := range [][]string{
			{"-ranks", "1"},
			{"-ranks", "4", "-transport", "inproc", "-events-out", "ev.json"},
			{"-ranks", "4", "-transport", "tcp"},
			{"-ranks", "1", "-store", "disk", "-mem-budget", "65536", "-workdir", "work"},
			{"-ranks", "1", "-store", "disk", "-mem-budget", "65536"}, // no workdir: the store is a temp dir the run removes
		} {
			dir := c.mustRun(t, "asmpipeline", append([]string{"-in", c.reads, "-out", "contigs.fa"}, args...)...)
			got := readFile(t, filepath.Join(dir, "contigs.fa"))
			if want == nil {
				if want = got; !bytes.HasPrefix(want, []byte(">contig_0_0 len=")) {
					t.Fatalf("contigs.fa starts %q", want[:min(len(want), 40)])
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("asmpipeline %v: contigs.fa differs from the -ranks 1 run", args)
			}
			if len(args) > 4 && args[3] == "inproc" {
				// One process, one unsuffixed dump of every rank.
				checkDumps(t, filepath.Join(dir, "ev.json"), 0)
			}
		}
	})

	// A run that fails after the worker ranks exist still exits through
	// the session: status 1, no registry or store directory, no ranks.
	t.Run("error exit", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.fa")
		if err := os.WriteFile(bad, []byte("ACGT\n>r1\nACGT\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			prog string
			args []string
			msg  string
		}{
			{"asmcluster", []string{"-in", bad, "-ranks", "3", "-transport", "tcp"}, "malformed input"},
			{"asmcluster", []string{"-in", c.reads, "-ranks", "3", "-transport", "tcp", "-store", "bogus"}, "unknown store"},
			{"asmpipeline", []string{"-in", c.reads, "-ranks", "3", "-transport", "unix", "-store", "bogus"}, "unknown store"},
			{"asmpipeline", []string{"-in", c.reads, "-ranks", "2", "-store", "disk", "-faults", "crash=1@1"}, "workers died"},
			{"asmcluster", []string{"-in", c.reads, "-ranks", "3", "-store", "disk", "-out", "no/such/dir/c.tsv"}, "no such file"},
			{"asmcluster", []string{"-in", c.reads, "-ranks", "3", "-transport", "tcp", "-out", "no/such/dir/c.tsv"}, "no such file"},
		} {
			dir, out, code := c.run(t, tc.prog, tc.args...)
			if code != 1 || !strings.Contains(out, tc.msg) {
				t.Errorf("%s %v: exit %d, want 1 with %q\n%s", tc.prog, tc.args, code, tc.msg, out)
			}
			c.assertClean(t, dir)
		}
	})

	// One interrupt rule: a signalled rank writes <path>.rank<r>.interrupted
	// (never the normal name), takes its worker ranks with it and exits
	// 128+signal. The input is a FIFO nobody writes, so every rank blocks
	// opening it; the root prints the ranks it spawned after the session
	// installed the handler.
	t.Run("interrupt", func(t *testing.T) {
		for sig, want := range map[syscall.Signal]int{syscall.SIGINT: 130, syscall.SIGTERM: 143} {
			fifo := filepath.Join(t.TempDir(), "reads.fifo")
			if err := syscall.Mkfifo(fifo, 0o644); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			cmd, dir := c.command(t, ctx, "asmcluster", "-in", fifo, "-ranks", "3", "-transport", "tcp",
				"-events-out", "ev.json")
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(stderr)
			for sc.Scan() && !strings.Contains(sc.Text(), "spawned ranks 1..2") {
			}
			cmd.Process.Signal(sig)
			for sc.Scan() { // drain until the process closes stderr
			}
			cmd.Wait()
			cancel()
			if code := cmd.ProcessState.ExitCode(); code != want {
				t.Errorf("%s: exit %d, want %d", sig, code, want)
			}
			if _, err := os.Stat(filepath.Join(dir, "ev.json.rank0.interrupted")); err != nil {
				t.Errorf("%s: %v", sig, err)
			}
			if _, err := os.Stat(filepath.Join(dir, "ev.json.rank0")); err == nil {
				t.Errorf("%s: interrupted run wrote the normal path ev.json.rank0", sig)
			}
			// The worker ranks were killed, so only the root wrote a dump.
			// No rank finished, so spans may be open (Partial); everything
			// else holds.
			interrupted, _ := filepath.Glob(filepath.Join(dir, "ev.json*"))
			if len(interrupted) != 1 {
				t.Errorf("%s: dumps %v, want ev.json.rank0.interrupted alone", sig, interrupted)
			}
			checkDumpFiles(t, analyze.Options{Partial: true}, interrupted)
			c.assertClean(t, dir)
		}
	})
}
