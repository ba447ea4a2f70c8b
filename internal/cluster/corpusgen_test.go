package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pairgen"
)

// TestWriteFuzzCorpus regenerates the committed FuzzDecodeReport and
// FuzzMasterStep seed corpora (run explicitly with WRITE_FUZZ_CORPUS=1;
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
	write("FuzzMasterStep", "seed-fail-report-aborts", []byte{2,
		w(1, simReport), 7, w(2, simReport), 7, w(3, simFail), simBad})
	write("FuzzMasterStep", "seed-all-workers-die", []byte{1 | simSurvivable,
		w(1, simReport), 7, w(2, simReport), 7, w(1, simKill), 0, w(2, simKill), 0,
		w(1, simSilence), 1})
	write("FuzzMasterStep", "seed-passive-worker-dies", []byte{1 | simSurvivable,
		w(1, simReport), 2 | simExhaust, w(1, simReport), 0, w(1, simReport), 0, w(1, simKill), 0,
		w(2, simReport), 3 | simExhaust, w(2, simSilence), 1})
}
