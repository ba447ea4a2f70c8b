package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pairgen"
)

// TestWriteFuzzCorpus regenerates the committed seed corpora of the
// package's four fuzz targets (run explicitly with WRITE_FUZZ_CORPUS=1;
// skipped otherwise).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write("FuzzDecodeReport", "seed-empty-report", encodeReport(report{}))
	write("FuzzDecodeReport", "seed-full-report", encodeReport(report{
		pairs: []pairgen.Pair{
			{ASid: 1, BSid: 2, APos: 3, BPos: 4, MatchLen: 20},
			{ASid: 9, BSid: 5, APos: 0, BPos: 77, MatchLen: 31},
		},
		results: []alignResult{
			{fa: 0, fb: 1, accepted: true},
			{fa: 3, fb: 2},
		},
		passive: true,
	}))
	write("FuzzDecodeReport", "seed-failed-report", encodeReport(report{fail: "worker protocol error"}))
	write("FuzzDecodeReport", "seed-garbage", []byte{0xff})

	write("FuzzDecodeWork", "seed-empty-work", encodeWork(work{}))
	write("FuzzDecodeWork", "seed-full-work", encodeWork(work{
		batch: []pairgen.Pair{
			{ASid: 1, BSid: 2, APos: 3, BPos: 4, MatchLen: 20},
			{ASid: 9, BSid: 5, APos: 0, BPos: 77, MatchLen: 31},
		},
		r: 64,
	}))
	write("FuzzDecodeWork", "seed-adopt-work", encodeWork(work{r: 12, adopt: []int{3, 7}}))
	write("FuzzDecodeWork", "seed-explicit-empty-adopt", append(encodeWork(work{r: 12}), 0))
	write("FuzzDecodeWork", "seed-sid-out-of-range", encodeWork(work{batch: []pairgen.Pair{{ASid: -5, BSid: 2, MatchLen: 20}}}))
	write("FuzzDecodeWork", "seed-garbage", []byte{0xff})

	// FuzzWorkerStep scripts; the encoding is documented at the target.
	write("FuzzWorkerStep", "seed-faithful-master", []byte{0x23,
		0x04, 0x03, 0x34, 0x02, 0x08, 0x04, 0xf1, 0x01, 0x0f, 0x07})
	write("FuzzWorkerStep", "seed-generate-ahead-to-the-cap", []byte{0x10,
		0xf0, 0x00, 0xf1, 0x00, 0xf0, 0x00, 0x0f, 0x00})
	write("FuzzWorkerStep", "seed-passive-then-adopts", []byte{0x4f,
		0x0f, 0x00, 0x0f, 0x00, 0x0f, 0x00, 0x0f, 0x00, 0x0f, 0x00, 0x0f, 0x00, 0x0f, 0x00, 0x0f, 0x00,
		0x0f, 0x08, 0x0f, 0x02, 0x0f, 0x08, 0x0f, 0x00})
	write("FuzzWorkerStep", "seed-adopts-while-busy", []byte{0x33,
		0x24, 0x0a, 0x24, 0x0b, 0x08, 0x05})
	write("FuzzWorkerStep", "seed-starved-of-requests", []byte{0x20,
		0x30, 0x01, 0x30, 0x00, 0x30, 0x00, 0x05, 0x02})
	for _, bad := range []byte{0, 3, 6} { // three of badWorks
		write("FuzzWorkerStep", fmt.Sprintf("seed-refuses-bad-work-%d", bad), []byte{0x23,
			0x34, 0x02, 0x22, 0xf0 | bad})
	}

	// FuzzMasterStep scripts; the encoding is documented at simOp.
	w := simOp
	write("FuzzMasterStep", "seed-fault-free-p4", []byte{2,
		w(1, simReport), 5, w(2, simReport), 7, w(3, simReport), 6, w(1, simReport), 4,
		w(2, simReport), 3, w(3, simReport), 2 | simExhaust, w(1, simReport), 1})
	write("FuzzMasterStep", "seed-passive-worker-kept-busy", []byte{1,
		w(1, simReport), simExhaust, w(2, simReport), 7, w(1, simReport), 0, w(2, simReport), 7,
		w(1, simReport), 0, w(2, simReport), 7, w(1, simReport), 0, w(2, simReport), 7})
	write("FuzzMasterStep", "seed-lease-expiry-adoption", []byte{1 | simSurvivable,
		w(1, simReport), 6, w(1, simSilence), 3, w(1, simReport), 4, w(1, simSilence), 2,
		w(1, simReport), 3, w(1, simReport), 2 | simExhaust})
	write("FuzzMasterStep", "seed-parked-worker-adopts", []byte{1 | simSurvivable,
		w(1, simReport), simExhaust, w(2, simReport), 0, w(2, simKill), 0, w(1, simSilence), 0,
		w(1, simReport), 5})
	write("FuzzMasterStep", "seed-zombie-report", []byte{2 | simSurvivable,
		w(1, simReport), 7, w(2, simReport), 7, w(1, simSilence), 5, w(3, simReport), 2,
		w(1, simReport), 3, w(2, simReport), 3})
	write("FuzzMasterStep", "seed-died-after-sending", []byte{1 | simSurvivable,
		w(1, simReport), 7, w(2, simReport), 6, w(2, simKill), 0, w(2, simReport), 5,
		w(1, simReport), 2})
	write("FuzzMasterStep", "seed-malformed-survivable", []byte{2 | simSurvivable,
		w(1, simReport), 7, w(2, simReport), 7, w(1, simMalformed), simBad, w(3, simReport), 1,
		w(2, simFail), simBad | simExhaust})
	write("FuzzMasterStep", "seed-out-of-range-survivable", []byte{2 | simSurvivable,
		w(1, simReport), 7, w(2, simReport), 7, w(2, simOutOfRange), simBad | 3, w(3, simReport), 2,
		w(1, simReport), 3 | simExhaust})
	write("FuzzMasterStep", "seed-out-of-range-aborts", []byte{2,
		w(1, simReport), 7, w(2, simReport), 7, w(1, simReport), 4, w(1, simOutOfRange), simBad})
	write("FuzzMasterStep", "seed-fail-report-aborts", []byte{2,
		w(1, simReport), 7, w(2, simReport), 7, w(3, simFail), simBad})
	write("FuzzMasterStep", "seed-all-workers-die", []byte{1 | simSurvivable,
		w(1, simReport), 7, w(2, simReport), 7, w(1, simKill), 0, w(2, simKill), 0,
		w(1, simSilence), 1})
	write("FuzzMasterStep", "seed-passive-worker-dies", []byte{1 | simSurvivable,
		w(1, simReport), 2 | simExhaust, w(1, simReport), 0, w(1, simReport), 0, w(1, simKill), 0,
		w(2, simReport), 3 | simExhaust, w(2, simSilence), 1})
}
