package prof

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Start(Config{Dir: dir, Name: "rank0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("labels not enabled under an active session")
	}
	if _, err := Start(Config{Dir: dir, Name: "second"}); err == nil {
		t.Fatal("second concurrent session started")
	}
	// Burn some CPU so the profile has samples, under labels.
	ApplyLabels(3, "gst")
	x := 1.0
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		x = x*1.0000001 + 1
	}
	_ = x
	ClearLabels()

	arts, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("labels still enabled after Stop")
	}
	for _, path := range []string{arts.CPU, arts.Allocs} {
		p, err := ParseFile(path)
		if err != nil {
			t.Fatalf("artifact %s does not decode: %v", path, err)
		}
		if len(p.SampleTypes) == 0 {
			t.Fatalf("artifact %s has no sample types", path)
		}
	}
	// Idempotent Stop, and the slot frees for a new session.
	if _, err := s.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	s2, err := Start(Config{Dir: dir, Name: "after"})
	if err != nil {
		t.Fatalf("session slot not released: %v", err)
	}
	if _, err := s2.Stop(); err != nil {
		t.Fatal(err)
	}

	// The registry picked up the runtime gauges.
	snap := reg.Snapshot()
	if _, ok := snap[GaugeHeapLive]; !ok {
		t.Fatalf("runtime gauges missing from registry: %v", snap)
	}

	cpu, allocs := DirArtifacts(dir)
	if len(cpu) != 2 || len(allocs) != 2 {
		t.Fatalf("DirArtifacts: cpu %v allocs %v", cpu, allocs)
	}
	// A session writes the CPU and allocs artifacts and nothing else.
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 4 {
		t.Fatalf("session directory holds %d entries (err %v), want 2 per session", len(ents), err)
	}
}

func TestLabelsNoopWithoutSession(t *testing.T) {
	if Enabled() {
		t.Fatal("enabled with no session")
	}
	// Must not panic or set labels; nothing observable to assert
	// beyond "does not blow up and stays disabled".
	ApplyLabels(1, "gst")
	ClearLabels()
	if Enabled() {
		t.Fatal("ApplyLabels flipped the gate")
	}
}

func TestParseFilesSkipsTruncated(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good"+SuffixCPU)
	if err := os.WriteFile(good, readSeed(t, "seed_synth_gz"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad"+SuffixCPU)
	if err := os.WriteFile(bad, []byte{0x1f, 0x8b, 0x01}, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, skipped, err := ParseFiles([]string{good, bad})
	if err != nil {
		t.Fatalf("ParseFiles errored despite a good artifact: %v", err)
	}
	if len(ps) != 1 || len(skipped) != 1 || skipped[0] != bad {
		t.Fatalf("ps %d skipped %v", len(ps), skipped)
	}
	// All-bad: the first error surfaces.
	if _, _, err := ParseFiles([]string{bad}); err == nil {
		t.Fatal("all-truncated input returned no error")
	}
	// Empty input: nothing to report.
	if ps, skipped, err := ParseFiles(nil); err != nil || len(ps) != 0 || len(skipped) != 0 {
		t.Fatalf("empty input: %v %v %v", ps, skipped, err)
	}
}

// TestParseFilesSkipsEmptyArtifact: a SIGKILLed attempt leaves a
// 0-byte CPU artifact (runtime/pprof writes the profile only at
// StopCPUProfile). It is no profile, so ParseFiles must skip it
// rather than hand Attribute an empty profile to count.
func TestParseFilesSkipsEmptyArtifact(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good"+SuffixCPU)
	if err := os.WriteFile(good, readSeed(t, "seed_synth_gz"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "killed"+SuffixCPU)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, skipped, err := ParseFiles([]string{good, empty})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || len(skipped) != 1 || skipped[0] != empty {
		t.Fatalf("parsed %d, skipped %v; want 1 parsed and %s skipped", len(ps), skipped, empty)
	}
}
