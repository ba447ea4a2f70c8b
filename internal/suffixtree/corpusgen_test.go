package suffixtree

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFuzzCorpus regenerates the committed seed corpus of
// FuzzSortKeyed and the masking seeds of FuzzBuildMatchesReference (run
// explicitly with WRITE_FUZZ_CORPUS=1; skipped otherwise).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	write := func(target, name string, data []byte, args ...uint8) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		for _, a := range args {
			content += fmt.Sprintf("byte(%q)\n", a)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(27))
	keys := func(n, width int, top, keep byte) []byte {
		b := make([]byte, n*width)
		rng.Read(b)
		for i := 0; i < len(b); i += width {
			b[i] = top | b[i]&keep
		}
		return b
	}

	// FuzzSortKeyed: (keys, bits, layout); bits+1 is the key width,
	// layout%4 the input order, layout>>2 + 1 the sequence count.
	write("FuzzSortKeyed", "seed-empty", nil, 19, 0)
	write("FuzzSortKeyed", "seed-one-key", []byte(strings.Repeat("\x05\xa0\x3c", 40)), 19, 1)
	write("FuzzSortKeyed", "seed-w10-scan-order", keys(120, 3, 0, 0x0f), 19, 1|3<<2)
	write("FuzzSortKeyed", "seed-w10-interleaved-ranks", keys(120, 3, 0, 0x0f), 19, 0|5<<2)
	write("FuzzSortKeyed", "seed-segment-top-byte-fixed", keys(90, 3, 0xa5, 0), 23, 3|2<<2)
	write("FuzzSortKeyed", "seed-few-bits-duplicates", keys(200, 1, 0, 0x0f), 3, 3|7<<2)
	write("FuzzSortKeyed", "seed-full-width-reversed", keys(60, 8, 0x30, 0x0f), 61, 2|4<<2)

	// FuzzBuildMatchesReference: a base is 0–3, a mask 0xe8, a read
	// break 0xff; wb%16 + 1 is w.
	read := func(s string) string {
		return strings.NewReplacer("A", "\x00", "C", "\x01", "G", "\x02", "T", "\x03", "N", "\xe8", "|", "\xff").Replace(s)
	}
	write("FuzzBuildMatchesReference", "seed-mask-at-read-end",
		[]byte(read("ACGTACGTTGCAN|ACGTACGTTGCAN|GGACGTACGTTGCAN|ACGTACGTTGCA|N")), 3)
	write("FuzzBuildMatchesReference", "seed-masked-only-reads",
		[]byte(read("NNNN|N|NNNNNNNNNNNN|ACGTTGCAACGT|NN")), 3)
	write("FuzzBuildMatchesReference", "seed-mask-past-w-window",
		[]byte(read("ACGTACGTACNGGT|ACGTACGTACNTTA|TACGTACGTACNA|ACGTACGTACGGT")), 9)
}
