package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pairgen"
	"repro/internal/pgst"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/simulate"
	"repro/internal/suffixtree"
)

// rssCellEnv carries one cell of measureRSSCells into a re-executed
// copy of this test binary.
const rssCellEnv = "PIPELINE_TEST_RSS_CELL"

// TestMain routes a re-executed copy of the test binary to the RSS
// cell it was spawned to measure, or to holding a workdir lock.
func TestMain(m *testing.M) {
	if dir := os.Getenv(lockHolderEnv); dir != "" {
		holdLockMain(dir)
	}
	if spec := os.Getenv(rssCellEnv); spec != "" {
		if err := rssCellMain(spec); err != nil {
			fmt.Fprintln(os.Stderr, "rss cell:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func diskCoreConfig() core.Config {
	cfg := testCoreConfig()
	cfg.Store = core.StoreConfig{Backend: core.StoreDisk, CacheBytes: 64 << 10}
	cfg.Cluster.MemBudget = 32 << 10
	return cfg
}

// TestOutOfCoreMatchesMem: the full out-of-core pipeline — disk store
// under the workdir, spilling GST — must produce contigs byte-identical
// to the in-memory pipeline, and must leave the store files journaled
// in the manifest.
func TestOutOfCoreMatchesMem(t *testing.T) {
	memRes, err := Run(testFrags(4, 3, 2200, 90), Config{
		Core: testCoreConfig(), Workdir: t.TempDir(), Flags: "ooc",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := contigBytes(memRes)

	dir := t.TempDir()
	res, err := Run(testFrags(4, 3, 2200, 90), Config{
		Core: diskCoreConfig(), Workdir: dir, Flags: "ooc",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if _, ok := res.Store.(*diskstore.Store); !ok {
		t.Fatalf("store is %T, want disk-backed", res.Store)
	}
	if !bytes.Equal(contigBytes(res), want) {
		t.Error("out-of-core contigs differ from in-memory pipeline")
	}

	mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{auxStoreData, auxStoreIdx} {
		sum, ok := m.auxSum(name)
		if !ok {
			t.Fatalf("manifest does not journal %s", name)
		}
		got, err := hashFile(filepath.Join(dir, "store", name))
		if err != nil {
			t.Fatal(err)
		}
		if got != sum {
			t.Fatalf("journaled %s checksum does not match the file", name)
		}
	}
}

// TestOutOfCoreResumeByteIdentical: kill the out-of-core pipeline
// after each phase boundary; the resumed run must reopen the journaled
// store (not rebuild it) and finish with byte-identical contigs.
func TestOutOfCoreResumeByteIdentical(t *testing.T) {
	cfg := diskCoreConfig()
	full := t.TempDir()
	ref, err := Run(testFrags(4, 3, 2200, 90), Config{Core: cfg, Workdir: full, Flags: "ooc"})
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	refBytes := contigBytes(ref)
	origIdx, err := hashFile(filepath.Join(full, "store", diskstore.IndexFile))
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k < len(Phases); k++ {
		t.Run(fmt.Sprintf("rollback_to_%d_phases", k), func(t *testing.T) {
			if err := Rollback(full, k); err != nil {
				t.Fatal(err)
			}
			res, err := Run(testFrags(4, 3, 2200, 90), Config{
				Core: cfg, Workdir: full, Resume: true, Flags: "ooc",
			})
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if !bytes.Equal(contigBytes(res), refBytes) {
				t.Error("resumed out-of-core contigs differ from uninterrupted run")
			}
			gotIdx, err := hashFile(filepath.Join(full, "store", diskstore.IndexFile))
			if err != nil {
				t.Fatal(err)
			}
			if gotIdx != origIdx {
				t.Error("resume rewrote the store index; it must reuse the journaled bytes")
			}
		})
	}
}

// TestOutOfCoreResumeRefusesCorruptStore: a resumed run must refuse a
// store file whose bytes no longer match the journaled checksum.
func TestOutOfCoreResumeRefusesCorruptStore(t *testing.T) {
	cfg := diskCoreConfig()
	dir := t.TempDir()
	res, err := Run(testFrags(4, 3, 2200, 90), Config{Core: cfg, Workdir: dir, Flags: "ooc"})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()

	dataPath := filepath.Join(dir, "store", diskstore.DataFile)
	b, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(dataPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(testFrags(4, 3, 2200, 90), Config{
		Core: cfg, Workdir: dir, Resume: true, Flags: "ooc",
	})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("resume with corrupt store: err=%v, want checksum refusal", err)
	}
}

// The memory gate of the out-of-core path, self-relative: the disk
// backend's peak RSS must stay flat when the input grows ×10 while the
// in-memory backend's grows, which proves both that the spilling sweep
// holds GST memory independent of input size and that the workload is
// big enough for the comparison to mean something. The bounds leave
// noise headroom over the measured ratios, about 1.10 (disk; 1.45–1.50
// before pair generation reused its memory across segments) and
// 7.5–8.7 (mem) on a 2-core Linux host.
const (
	rssScale       = 10
	rssSpillBudget = 16 << 20 // a handful of segments at ×10, far under its monolithic forest
	diskRatioMax   = 1.66
	memRatioMin    = 5.4
)

// rssCell is one (backend, input) measurement from a subprocess.
type rssCell struct {
	PeakRSS  uint64 // VmHWM at exit
	Pairs    int64
	PairHash uint64 // order-independent multiset hash
}

// rssCellSpec is what a cell subprocess is told to run.
type rssCellSpec struct {
	Dir     string // staged disk store both backends read
	Backend string // "mem" or "disk"
}

// rssScales are the two input sizes and the fixed-seed pair count each
// must yield.
var rssScales = [2]struct {
	scale int
	pairs int64
}{{1, 5818}, {rssScale, 36716}}

// rssCells holds the four measured cells, [×1, ×10][mem, disk], shared
// by the tests that check them so the subprocesses run once per binary.
var rssCells struct {
	once  sync.Once
	cells [2][2]rssCell
	err   error
}

// measureRSSCells runs the four cells — {mem, disk} × {×1, ×10 input} —
// each in its own subprocess, because VmHWM is a process-lifetime
// high-water mark. Tests that call it keep their names clear of
// outofcore-smoke's -run pattern: the ×10 mem cell peaks near 550 MB,
// which the race detector cannot afford.
func measureRSSCells(t *testing.T) *[2][2]rssCell {
	t.Helper()
	if testing.Short() {
		t.Skip("four subprocess cells; the ×10 mem cell peaks near 550 MB")
	}
	if _, err := vmHWM(); err != nil {
		t.Skipf("no peak RSS on this platform: %v", err)
	}
	rssCells.once.Do(func() {
		rssCells.err = func() error {
			for s, sc := range rssScales {
				dir, err := os.MkdirTemp("", "rsscell")
				if err != nil {
					return err
				}
				defer os.RemoveAll(dir)
				if err := diskstore.Write(dir, rssReads(sc.scale)); err != nil {
					return err
				}
				for i, backend := range []string{"mem", "disk"} {
					c, err := spawnRSSCell(rssCellSpec{Dir: dir, Backend: backend})
					if err != nil {
						return fmt.Errorf("%s ×%d: %w", backend, sc.scale, err)
					}
					rssCells.cells[s][i] = *c
				}
			}
			return nil
		}()
	})
	if rssCells.err != nil {
		t.Fatal(rssCells.err)
	}
	return &rssCells.cells
}

// TestDiskRSSFlatAcrossTenfoldInput gates the ×10/×1 peak-RSS ratios:
// flat for the disk backend, growing for the in-memory one.
func TestDiskRSSFlatAcrossTenfoldInput(t *testing.T) {
	cells := measureRSSCells(t)
	for s, sc := range rssScales {
		for i, backend := range []string{"mem", "disk"} {
			t.Logf("%-4s ×%-2d peak RSS %5.1f MB", backend, sc.scale, float64(cells[s][i].PeakRSS)/(1<<20))
		}
	}
	ratio := func(i int) float64 { return float64(cells[1][i].PeakRSS) / float64(cells[0][i].PeakRSS) }
	mem, disk := ratio(0), ratio(1)
	t.Logf("×%d/×1 peak RSS: disk %.3f (gate ≤ %.2f), mem %.3f (floor ≥ %.2f)", rssScale, disk, diskRatioMax, mem, memRatioMin)
	if disk > diskRatioMax {
		t.Errorf("disk ratio %.3f exceeds %.2f: the disk backend's memory scales with input", disk, diskRatioMax)
	}
	if mem < memRatioMin {
		t.Errorf("mem ratio %.3f under %.2f: the workload no longer grows memory, so the disk gate proves nothing", mem, memRatioMin)
	}
}

// TestDiskPairsMatchMemAcrossTenfoldInput: in the same cells, both
// backends must emit the same pair multiset at the fixed-seed pair
// counts, so the RSS gate compares equal work.
func TestDiskPairsMatchMemAcrossTenfoldInput(t *testing.T) {
	cells := measureRSSCells(t)
	for s, sc := range rssScales {
		for i, backend := range []string{"mem", "disk"} {
			if c := cells[s][i]; c.Pairs != sc.pairs {
				t.Errorf("%s ×%d: %d pairs, want %d (fixed-seed input: the algorithm changed)", backend, sc.scale, c.Pairs, sc.pairs)
			}
		}
		if mem, disk := cells[s][0].PairHash, cells[s][1].PairHash; mem != disk {
			t.Errorf("×%d: pair multisets differ between backends (mem %x, disk %x)", sc.scale, mem, disk)
		}
	}
}

// rssReads synthesizes the fixed input at a scale: the genome grows
// with scale at fixed coverage, so reads and suffixes grow ×scale.
func rssReads(scale int) []*seq.Fragment {
	rng := rand.New(rand.NewSource(4242))
	g := simulate.NewGenome(rng, "ooc", simulate.GenomeConfig{
		Length:  20000 * scale,
		Repeats: []simulate.RepeatFamily{{Length: 300, Copies: 6, Divergence: 0.02}},
	})
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 200
	rc.LenSD = 30
	rc.VectorProb = 0
	return simulate.SampleWGS(rng, g, 6.0, rc, "r")
}

// spawnRSSCell runs one cell in a fresh copy of this test binary.
func spawnRSSCell(spec rssCellSpec) (*rssCell, error) {
	sj, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), rssCellEnv+"="+string(sj))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var c rssCell
	if err := json.Unmarshal(out, &c); err != nil {
		return nil, fmt.Errorf("cell output: %w", err)
	}
	return &c, nil
}

// rssCellMain is a cell subprocess: open the staged store, run the
// backend's GST and pair generation, print peak RSS and the pair
// multiset hash as JSON.
func rssCellMain(specJSON string) error {
	var spec rssCellSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return err
	}
	st, err := diskstore.Open(spec.Dir, diskstore.Options{CacheBytes: 1 << 20})
	if err != nil {
		return err
	}
	ccfg := cluster.DefaultConfig()
	pg := pairgen.Config{Psi: ccfg.Psi, DuplicateElimination: ccfg.DuplicateElimination, NumFragments: st.N()}
	var c rssCell
	count := func(p pairgen.Pair) bool {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d/%d/%d/%d", p.ASid, p.BSid, p.APos, p.BPos, p.MatchLen)
		c.PairHash += h.Sum64()
		c.Pairs++
		return true
	}
	switch spec.Backend {
	case "disk":
		// The pipelined sweep serial clustering runs.
		pairgen.GenerateSweep(func(add func(*suffixtree.Tree), end func(float64) bool) bool {
			return pgst.Sweep(st, pgst.Config{W: ccfg.W, MinLen: ccfg.Psi, SpillBytes: rssSpillBudget}, add, end)
		}, pg, count)
		st.Close()
	case "mem":
		// The all-RAM reference materializes the fragments and the
		// monolithic forest, exactly like the in-memory pipeline.
		frags := make([]*seq.Fragment, st.N())
		for i := range frags {
			frags[i] = &seq.Fragment{Name: st.FragName(i), Bases: st.Seq(i)}
		}
		st.Close()
		pairgen.Generate(cluster.BuildSerialTree(seq.NewStore(frags), ccfg), pg, count)
	default:
		return fmt.Errorf("unknown backend %q", spec.Backend)
	}
	if c.PeakRSS, err = vmHWM(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(c)
}

// vmHWM reads this process's peak resident set size from
// /proc/self/status.
func vmHWM() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
