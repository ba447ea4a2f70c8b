package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/pairgen"
	"repro/internal/unionfind"
	"repro/internal/wire"
)

func TestReportRoundTrip(t *testing.T) {
	in := report{
		pairs: []pairgen.Pair{
			{ASid: 1, BSid: 9, APos: 10, BPos: 0, MatchLen: 25},
			{ASid: 3, BSid: 4, APos: 0, BPos: 700, MatchLen: 20},
		},
		results: []alignResult{
			{fa: 1, fb: 2, accepted: true},
			{fa: 5, fb: 0, accepted: false},
		},
		passive: true,
	}
	out, err := decodeReport(encodeReport(in), testFragments)
	if err != nil {
		t.Fatal(err)
	}
	if out.passive != in.passive {
		t.Error("passive flag lost")
	}
	if len(out.pairs) != len(in.pairs) {
		t.Fatalf("%d pairs", len(out.pairs))
	}
	for i := range in.pairs {
		if out.pairs[i] != in.pairs[i] {
			t.Errorf("pair %d: %+v != %+v", i, out.pairs[i], in.pairs[i])
		}
	}
	if len(out.results) != len(in.results) {
		t.Fatalf("%d results", len(out.results))
	}
	for i := range in.results {
		if out.results[i] != in.results[i] {
			t.Errorf("result %d: %+v != %+v", i, out.results[i], in.results[i])
		}
	}
}

func TestReportRoundTripEmpty(t *testing.T) {
	out, err := decodeReport(encodeReport(report{}), testFragments)
	if err != nil {
		t.Fatal(err)
	}
	if out.passive || len(out.pairs) != 0 || len(out.results) != 0 {
		t.Errorf("empty report corrupted: %+v", out)
	}
}

func TestWorkRoundTrip(t *testing.T) {
	in := work{
		batch: []pairgen.Pair{{ASid: 7, BSid: 2, APos: 3, BPos: 4, MatchLen: 33}},
		r:     128,
	}
	out, err := decodeWork(encodeWork(in), testFragments)
	if err != nil {
		t.Fatal(err)
	}
	if out.r != in.r || len(out.batch) != 1 || out.batch[0] != in.batch[0] {
		t.Errorf("work roundtrip: %+v", out)
	}
}

func TestWorkRoundTripEmpty(t *testing.T) {
	out, err := decodeWork(encodeWork(work{r: 0}), testFragments)
	if err != nil {
		t.Fatal(err)
	}
	if out.r != 0 || len(out.batch) != 0 {
		t.Errorf("empty work corrupted: %+v", out)
	}
}

func TestWorkRoundTripAdopt(t *testing.T) {
	in := work{
		batch: []pairgen.Pair{{ASid: 1, BSid: 2, MatchLen: 20}},
		r:     64,
		adopt: []int{3, 7},
	}
	out, err := decodeWork(encodeWork(in), testFragments)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.adopt) != 2 || out.adopt[0] != 3 || out.adopt[1] != 7 {
		t.Errorf("adopt list corrupted: %+v", out.adopt)
	}
	// The adopt tail must cost nothing when absent: fault-free messages
	// stay byte-identical to the fault-unaware protocol.
	plain := work{batch: in.batch, r: in.r}
	withEmpty := work{batch: in.batch, r: in.r, adopt: []int{}}
	if !bytes.Equal(encodeWork(plain), encodeWork(withEmpty)) {
		t.Error("empty adopt list changes the encoding")
	}
}

// Truncated messages must produce errors, not panics or hangs: fault
// injection can cut a message at any byte.
func TestDecodeTruncated(t *testing.T) {
	rep := encodeReport(report{
		pairs:   []pairgen.Pair{{ASid: 1, BSid: 2, APos: 3, BPos: 4, MatchLen: 20}},
		results: []alignResult{{fa: 1, fb: 2, accepted: true}},
	})
	for i := 0; i < len(rep); i++ {
		if _, err := decodeReport(rep[:i], testFragments); err == nil {
			t.Errorf("report prefix of %d/%d bytes decoded without error", i, len(rep))
		}
	}
	wk := encodeWork(work{batch: []pairgen.Pair{{ASid: 1, BSid: 2, MatchLen: 20}}, r: 9})
	for i := 0; i < len(wk); i++ {
		if _, err := decodeWork(wk[:i], testFragments); err == nil {
			t.Errorf("work prefix of %d/%d bytes decoded without error", i, len(wk))
		}
	}
}

// A malformed length prefix must not cause a huge allocation.
func TestDecodeHugeCount(t *testing.T) {
	// passive=0 then a varint pair count of ~2^62 with no payload.
	b := []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}
	if _, err := decodeReport(b, testFragments); err == nil {
		t.Error("huge pair count decoded without error")
	}
	if _, err := decodeWork(append([]byte{5}, b[1:]...), testFragments); err == nil {
		t.Error("huge batch count decoded without error")
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	rep := append(encodeReport(report{}), 0x00)
	if _, err := decodeReport(rep, testFragments); err == nil {
		t.Error("trailing bytes accepted in report")
	}
}

func FuzzDecodeReport(f *testing.F) {
	f.Add(encodeReport(report{}))
	f.Add(encodeReport(report{
		pairs:   []pairgen.Pair{{ASid: 1, BSid: 2, APos: 3, BPos: 4, MatchLen: 20}},
		results: []alignResult{{fa: 0, fb: 1, accepted: true}},
		passive: true,
	}))
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := decodeReport(b, fuzzFragments) // must never panic
		if err == nil {
			// Anything that decodes must re-encode to the same bytes
			// (the format has a unique encoding).
			if !bytes.Equal(encodeReport(rep), b) {
				t.Errorf("decode/encode not idempotent for %x", b)
			}
		}
	})
}

func FuzzDecodeWork(f *testing.F) {
	f.Add(encodeWork(work{r: 64}))
	f.Add(encodeWork(work{batch: []pairgen.Pair{{ASid: 1, BSid: 2, MatchLen: 20}}, r: 1, adopt: []int{4}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		wk, err := decodeWork(b, fuzzFragments) // must never panic
		if err == nil && !bytes.Equal(encodeWork(wk), b) {
			t.Errorf("decode/encode not idempotent for %x", b)
		}
	})
}

// fuzzFragments is the fragment count the decoder fuzzers decode
// against: large, so that the shape checks are what they explore.
const fuzzFragments = 1 << 30

// TestDecodeRangeChecks: a well-formed message naming a sequence or a
// fragment the run does not have is a decode error — the receiver
// indexes with these — and so are the two encodings encodeWork never
// produces.
func TestDecodeRangeChecks(t *testing.T) {
	const n = testFragments
	pair := func(a, b int32) []pairgen.Pair { return []pairgen.Pair{{ASid: a, BSid: b, MatchLen: 20}} }
	for name, rep := range map[string]report{
		"result fa high": {results: []alignResult{{fa: 1 << 20, accepted: true}}},
		"result fa = n":  {results: []alignResult{{fa: n}}},
		"result fb < 0":  {results: []alignResult{{fb: -1}}},
		"pair sid < 0":   {pairs: pair(-5, 0)},
		"pair sid = 2n":  {pairs: pair(0, 2*n)},
	} {
		if _, err := decodeReport(encodeReport(rep), n); err == nil {
			t.Errorf("report with %s decoded", name)
		}
	}
	if _, err := decodeReport(encodeReport(report{pairs: pair(2*n-1, 0), results: []alignResult{{fa: n - 1}}}), n); err != nil {
		t.Errorf("report at the upper bounds refused: %v", err)
	}
	for name, wk := range map[string]work{
		"batch sid high": {batch: pair(1<<30, 0)},
		"batch sid < 0":  {batch: pair(0, -1)},
		"r overflow":     {r: -1},
	} {
		if _, err := decodeWork(encodeWork(wk), n); err == nil {
			t.Errorf("work with %s decoded", name)
		}
	}
	explicitEmptyAdopt := append(encodeWork(work{r: 3}), 0)
	if _, err := decodeWork(explicitEmptyAdopt, n); err == nil {
		t.Error("work with an explicitly encoded empty adopt list decoded")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	uf := unionfind.New(10)
	uf.Union(0, 3)
	uf.Union(3, 7)
	uf.Union(4, 5)
	st := Stats{Generated: 100, Aligned: 60, Accepted: 20, Skipped: 40,
		Merges: 3, WorkersLost: 1, Requeued: 12, GSTSeconds: 1.5}
	enc := CheckpointOf(&Result{N: 10, UF: uf, Stats: st}).Encode()
	// Format version 1, ending in an empty pair list: workdirs written
	// before the pair list was retired still resume.
	if want := "f0d68d9b06010a0002040008080c001012c80178285006021880808080808080fc3f000000"; fmt.Sprintf("%x", enc) != want {
		t.Errorf("checkpoint bytes changed:\n got %x\nwant %s", enc, want)
	}

	got, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 10 || got.Stats != st {
		t.Errorf("checkpoint corrupted: %+v", got)
	}
	ruf := got.Result().UF
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if ruf.Same(i, j) != uf.Same(i, j) {
				t.Fatalf("restored partition differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Error("garbage accepted as checkpoint")
	}
	enc := CheckpointOf(&Result{N: 4, UF: unionfind.New(4)}).Encode()
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeCheckpoint(enc[:i]); err == nil {
			t.Errorf("checkpoint prefix %d/%d accepted", i, len(enc))
		}
	}
	// A mid-run snapshot with pending pairs is not a completed clustering.
	w := wire.NewBuffer(8)
	encodePairs(w, []pairgen.Pair{{ASid: 1, BSid: 2, MatchLen: 25}})
	if _, err := DecodeCheckpoint(append(enc[:len(enc)-1:len(enc)-1], w.Bytes()...)); err == nil {
		t.Error("checkpoint with pending pairs accepted")
	}
}
