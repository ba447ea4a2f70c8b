package prof

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// FuzzParseProfile feeds the decoder arbitrary bytes. Invariants:
// never panic, never allocate unboundedly (the gunzip cap), one value
// per sample type in every decoded sample, and the same decode for a
// raw message and its gzip-wrapped copy (checkParse).
func FuzzParseProfile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("definitely not protobuf"))
	raw := readSeed(f, "seed_synth_raw")
	f.Add(raw)
	f.Add(gzipBytes(f, raw))
	var real bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&real, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
	})
}

// TestGenProfileCorpus regenerates the runtime-derived fuzz seeds when
// PROF_GEN_CORPUS=1, so the checked-in corpus keeps matching what the
// runtime actually emits. The synth seeds are frozen: they are the
// exact-decode fixtures of TestProtoRoundTripSynthetic.
func TestGenProfileCorpus(t *testing.T) {
	if os.Getenv("PROF_GEN_CORPUS") == "" {
		t.Skip("set PROF_GEN_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzParseProfile")
	var real bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&real, 0); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"seed_real_alloc": real.Bytes(),
		"seed_truncated":  readSeed(t, "seed_synth_raw")[:20],
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", name, len(data))
	}
}
