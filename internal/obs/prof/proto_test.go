package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
)

// synthProfile is what the committed seeds seed_synth_raw and
// seed_synth_gz decode to: labels, shared frames, multiple sample
// types. The seeds also carry fields the decoder skips — period, time
// and default-type scalars and a numeric label ("weight") on the
// third sample — so decoding them exactly also checks the skipping.
func synthProfile() *Profile {
	return &Profile{
		SampleTypes: []ValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}},
		Samples: []Sample{
			{
				Stack: []Frame{
					{Function: "repro/internal/suffixtree.(*builder).build", File: "suffixtree.go", Line: 337},
					{Function: "repro/internal/par.RunStatus.func1", File: "par.go", Line: 648},
				},
				Values: []int64{12, 120000000},
				Labels: []Label{{Key: "phase", Str: "gst"}, {Key: "rank", Str: "3"}},
			},
			{
				Stack:  []Frame{{Function: "runtime.gcBgMarkWorker", File: "mgc.go", Line: 1310}},
				Values: []int64{2, 20000000},
			},
			{
				Stack: []Frame{
					{Function: "repro/internal/align.extendBanded", File: "align.go", Line: 99},
					{Function: "repro/internal/par.RunStatus.func1", File: "par.go", Line: 648},
				},
				Values: []int64{5, 50000000},
				Labels: []Label{{Key: "phase", Str: "align-batch"}, {Key: "rank", Str: "0"}},
			},
		},
	}
}

// readSeed returns the input bytes of one committed FuzzParseProfile
// corpus file.
func readSeed(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseProfile", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(b), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("%s: not a []byte corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")\n"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

func gzipBytes(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkParse holds Parse of data to the fuzz invariants: it does not
// panic, a decoded sample has one value per sample type, and data not
// already gzip-wrapped decodes the same — profile or error — as its
// gzip-wrapped copy. It returns the profile, nil when data is refused.
func checkParse(t testing.TB, data []byte) *Profile {
	t.Helper()
	p, err := Parse(data)
	if err == nil {
		for i := range p.Samples {
			if len(p.Samples[i].Values) != len(p.SampleTypes) {
				t.Fatalf("sample %d has %d values, profile has %d sample types",
					i, len(p.Samples[i].Values), len(p.SampleTypes))
			}
		}
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		pz, zerr := Parse(gzipBytes(t, data))
		if (err == nil) != (zerr == nil) || !reflect.DeepEqual(pz, p) {
			t.Fatalf("raw and gzip-wrapped input decode differently:\n raw %+v (%v)\ngzip %+v (%v)", p, err, pz, zerr)
		}
	}
	return p
}

// TestProtoRoundTripSynthetic decodes the two committed seeds that
// were encoded from synthProfile: the encode half of the round trip is
// frozen in testdata, so the decode half must return exactly what went
// in. Never regenerate those two seeds.
func TestProtoRoundTripSynthetic(t *testing.T) {
	for _, seed := range []string{"seed_synth_raw", "seed_synth_gz"} {
		got, err := Parse(readSeed(t, seed))
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		if want := synthProfile(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decodes wrong:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestProtoParsesRuntimeProfile decodes a profile the Go runtime
// itself wrote (the allocs profile of this very test process) under
// the fuzz invariants, with and without its gzip wrapper.
func TestProtoParsesRuntimeProfile(t *testing.T) {
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(raw); err != nil {
		t.Fatalf("parsing runtime allocs profile: %v", err)
	}
	p := checkParse(t, raw)
	if len(p.Samples) == 0 || len(p.SampleTypes) == 0 {
		t.Fatalf("empty decode: %d samples, %d types", len(p.Samples), len(p.SampleTypes))
	}
	if p.ValueIndex("alloc_space") < 0 {
		t.Fatalf("alloc_space missing from %v", p.SampleTypes)
	}
}

func TestProtoRejectsMalformed(t *testing.T) {
	good := readSeed(t, "seed_synth_raw")
	cases := map[string][]byte{
		"empty":           nil,          // what a SIGKILLed CPU stream leaves
		"no sample types": {0x32, 0x00}, // a string table holding "" alone
		"truncated":       good[:len(good)/2],
		"garbage":         []byte("definitely not protobuf"),
		"bad gzip":        {0x1f, 0x8b, 0xff, 0x00, 0x01},
		"wire type 3":     {0x0b}, // field 1, obsolete group wire type
		"field number 0":  {0x00},
		"length overflow": {0x0a, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	// Truncation mid-gzip (a torn copy of an artifact).
	gz := readSeed(t, "seed_synth_gz")
	if _, err := Parse(gz[:len(gz)-4]); err == nil {
		t.Error("truncated gzip stream parsed without error")
	}
}

func TestValueIndex(t *testing.T) {
	p := synthProfile()
	if i := p.ValueIndex("cpu"); i != 1 {
		t.Fatalf("ValueIndex(cpu) = %d, want 1", i)
	}
	if i := p.ValueIndex("nope"); i != -1 {
		t.Fatalf("ValueIndex(nope) = %d, want -1", i)
	}
	if i := p.valueIndex("nope"); i != 1 {
		t.Fatalf("valueIndex(nope) = %d, want the last type 1", i)
	}
}
