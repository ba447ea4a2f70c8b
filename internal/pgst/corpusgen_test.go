package pgst

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFuzzCorpus regenerates the committed seed corpus of
// FuzzBuildMatchesSerial (run explicitly with WRITE_FUZZ_CORPUS=1;
// skipped otherwise).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBuildMatchesSerial")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// (seed, p−2, first owner 1, batch bytes − 1, staged, w−2 and
	// MinLen−w in the top two bits)
	write := func(name string, seed int64, pb uint8, first bool, batch uint16, staged bool, wb uint8) {
		content := fmt.Sprintf("go test fuzz v1\nint64(%d)\nbyte(%q)\nbool(%v)\nuint16(%d)\nbool(%v)\nbyte(%q)\n",
			seed, pb, first, batch, staged, wb)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seed-p2-one-batch", 1, 0, false, 65535, false, 2)
	write("seed-p4-batch-per-bucket", 2, 2, false, 0, false, 2)
	write("seed-p5-master-rank-staged", 3, 3, true, 255, true, 3)
	write("seed-p6-small-batches-minlen", 4, 4, true, 63, false, 1|2<<6)
	write("seed-p3-w2-staged", 5, 1, false, 1023, true, 0)
	write("seed-p2-master-rank-w7", 6, 0, true, 4095, false, 5|1<<6)
}
