package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/wire"
)

func testFrags(seed int64, islands, islandLen, reads int) []*seq.Fragment {
	rng := rand.New(rand.NewSource(seed))
	genomes := make([]*simulate.Genome, islands)
	for i := range genomes {
		genomes[i] = simulate.NewGenome(rng, fmt.Sprintf("isl%d", i),
			simulate.GenomeConfig{Length: islandLen})
	}
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 300
	rc.LenSD = 30
	rc.VectorProb = 0
	var frags []*seq.Fragment
	for i := 0; i < reads; i++ {
		g := genomes[i%islands]
		start := (i / islands * 137) % (islandLen - rc.MeanLen)
		frags = append(frags, simulate.SampleAt(rng, g, rc, start, fmt.Sprintf("r%04d", i)))
	}
	return frags
}

func testCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.PreprocessEnabled = false
	cfg.Cluster.Psi = 16
	cfg.Cluster.W = 8
	cfg.AssemblyWorkers = 2
	return cfg
}

// contigBytes flattens a result's contigs for byte-level comparison.
func contigBytes(res *core.Result) []byte {
	return encodeContigs(res.Contigs, res.AssemblyOutcomes)
}

// TestRunMatchesCore: a checkpointed run must produce the same output
// as the plain core pipeline.
func TestRunMatchesCore(t *testing.T) {
	frags := testFrags(1, 3, 2200, 90)
	cfg := testCoreConfig()
	want, err := core.Run(testFrags(1, 3, 2200, 90), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(frags, Config{Core: cfg, Workdir: t.TempDir(), Flags: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(contigBytes(got), contigBytes(want)) {
		t.Error("checkpointed run's contigs differ from core.Run")
	}
}

// TestResumeByteIdentical is the satellite contract: kill the pipeline
// after each phase boundary, resume, and the final contigs must be
// byte-identical to the uninterrupted run.
func TestResumeByteIdentical(t *testing.T) {
	cfg := testCoreConfig()

	full := t.TempDir()
	ref, err := Run(testFrags(1, 3, 2200, 90), Config{Core: cfg, Workdir: full, Flags: "t"})
	if err != nil {
		t.Fatal(err)
	}
	refBytes := contigBytes(ref)
	mb, err := os.ReadFile(filepath.Join(full, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	fullManifest, err := decodeManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullManifest.records) != len(Phases) {
		t.Fatalf("full run recorded %d phases, want %d", len(fullManifest.records), len(Phases))
	}

	// "Kill after phase k": a workdir holding only the first k records
	// and their artifacts (the preprocess phase's includes the store),
	// exactly what a run killed at that boundary leaves behind.
	for k := 0; k <= len(fullManifest.records); k++ {
		k := k
		t.Run(fmt.Sprintf("killed_after_%d_phases", k), func(t *testing.T) {
			dir := t.TempDir()
			trunc := &manifest{dir: dir, input: fullManifest.input, flags: fullManifest.flags}
			trunc.records = fullManifest.records[:k]
			var files []string
			for _, r := range trunc.records {
				files = append(files, r.artifact)
				if r.name == string(PhasePreprocess) {
					for _, name := range storeFiles {
						files = append(files, filepath.Join(storeDir, name))
					}
				}
			}
			if err := os.Mkdir(filepath.Join(dir, storeDir), 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range files {
				b, err := os.ReadFile(filepath.Join(full, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := durable.WriteFile(filepath.Join(dir, manifestFile), trunc.encode()); err != nil {
				t.Fatal(err)
			}
			res, err := Run(testFrags(1, 3, 2200, 90), Config{
				Core: cfg, Workdir: dir, Resume: true, Flags: "t",
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(contigBytes(res), refBytes) {
				t.Error("resumed contigs are not byte-identical to the uninterrupted run")
			}
		})
	}
}

// TestResumeRefusesMismatch: a manifest written for different input or
// configuration must refuse to resume rather than mix state.
func TestResumeRefusesMismatch(t *testing.T) {
	frags := testFrags(1, 2, 1500, 40)
	cfg := testCoreConfig()
	dir := t.TempDir()
	if _, err := Run(frags, Config{Core: cfg, Workdir: dir, Flags: "t"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testFrags(2, 2, 1500, 40), Config{Core: cfg, Workdir: dir, Resume: true, Flags: "t"}); err == nil {
		t.Error("resume accepted different input")
	}
	if _, err := Run(frags, Config{Core: cfg, Workdir: dir, Resume: true, Flags: "other"}); err == nil {
		t.Error("resume accepted different configuration")
	}
	// Same input and flags resumes fine.
	if _, err := Run(testFrags(1, 2, 1500, 40), Config{Core: cfg, Workdir: dir, Resume: true, Flags: "t"}); err != nil {
		t.Errorf("legitimate resume failed: %v", err)
	}
}

// TestResumeDetectsCorruptArtifact: a recorded artifact that fails its
// checksum is an error, never a silent recompute over bad data.
func TestResumeDetectsCorruptArtifact(t *testing.T) {
	frags := testFrags(1, 2, 1500, 40)
	cfg := testCoreConfig()
	dir := t.TempDir()
	if _, err := Run(frags, Config{Core: cfg, Workdir: dir, Flags: "t"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, string(PhaseCluster)+".bin")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testFrags(1, 2, 1500, 40), Config{Core: cfg, Workdir: dir, Resume: true, Flags: "t"}); err == nil {
		t.Error("resume accepted a corrupted artifact")
	}
}

// TestQuarantineSurvivesResume: guard outcomes ride through the
// assembly artifact.
func TestQuarantineSurvivesResume(t *testing.T) {
	contigs := [][]assembly.Contig{
		{{Bases: []byte("ACGT"), Reads: []assembly.Placement{{Frag: 0}}, Depth: 1}},
	}
	outs := []assembly.Outcome{{Attempts: 2, Quarantined: true, Err: "assembler panic: boom"}}
	dec, decOuts, err := decodeContigs(encodeContigs(contigs, outs))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || string(dec[0][0].Bases) != "ACGT" {
		t.Errorf("contigs did not round-trip: %+v", dec)
	}
	if len(decOuts) != 1 || !decOuts[0].Quarantined || decOuts[0].Err != outs[0].Err {
		t.Errorf("outcomes did not round-trip: %+v", decOuts)
	}
}

// TestClusterArtifactRoundTrip: the cluster-phase artifact reuses the
// clustering checkpoint format and reproduces the exact partition.
func TestClusterArtifactRoundTrip(t *testing.T) {
	frags := testFrags(1, 2, 1500, 40)
	st := seq.NewStore(frags)
	ccfg := testCoreConfig().Cluster
	res := cluster.Serial(st, ccfg)
	cp, err := cluster.DecodeCheckpoint(cluster.CheckpointOf(res).Encode())
	if err != nil {
		t.Fatal(err)
	}
	back := cp.Result()
	want, got := res.Clusters(), back.Clusters()
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Error("partition did not survive the checkpoint round-trip")
	}
	if back.Stats.Merges != res.Stats.Merges {
		t.Errorf("stats lost: merges %d vs %d", back.Stats.Merges, res.Stats.Merges)
	}
}

// TestOlderManifestRestarts: a version 2 manifest (aux records, a
// preprocess artifact of encoded fragments) was written by an older
// build; resuming over it recomputes every phase and completes
// byte-identically, while a newer version is still refused.
func TestOlderManifestRestarts(t *testing.T) {
	cfg := testCoreConfig()
	want, err := Run(testFrags(1, 2, 1500, 40), Config{Core: cfg, Workdir: t.TempDir(), Flags: "t"})
	if err != nil {
		t.Fatal(err)
	}
	manifestOf := func(version uint64) []byte {
		w := wire.NewBuffer(64)
		w.PutUint(manifestMagic)
		w.PutUint(version)
		w.PutString("input fingerprint of an older build")
		w.PutString("t")
		w.PutUint(1)
		for _, f := range []string{"preprocess", "preprocess.bin", "sum"} {
			w.PutString(f)
		}
		w.PutUint(1)
		for _, f := range []string{"store.data", "store.data", "sum"} {
			w.PutString(f)
		}
		return w.Bytes()
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFile), manifestOf(2), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "preprocess.bin"), []byte("older encoding"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Run(testFrags(1, 2, 1500, 40), Config{Core: cfg, Workdir: dir, Resume: true, Flags: "t"})
	if err != nil {
		t.Fatalf("resume over a v2 manifest: %v", err)
	}
	if !bytes.Equal(contigBytes(got), contigBytes(want)) {
		t.Error("run restarted over a v2 manifest differs from a fresh run")
	}
	mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := decodeManifest(mb); err != nil || len(m.records) != len(Phases) {
		t.Fatalf("restarted run left a manifest that does not record every phase (err %v)", err)
	}

	if err := os.WriteFile(filepath.Join(dir, manifestFile), manifestOf(manifestVersion+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testFrags(1, 2, 1500, 40), Config{Core: cfg, Workdir: dir, Resume: true, Flags: "t"}); err == nil {
		t.Error("resume accepted a manifest of a newer version")
	}
}
