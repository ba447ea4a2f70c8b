package pgst

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/par"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestBuildAccountingGolden pins what the resident build reports and
// charges, rank by rank, against testdata/build_accounting.golden: the
// buckets and suffixes each rank owns, the fetch rounds, the modeled
// computation and communication seconds and the bytes it sends, for
// p ∈ {2, 4, 5 with FirstOwner 1} × BatchBytes ∈ {4096, 1 MiB} × the
// staged exchange on and off. A fail-stop build exchanges a fixed
// message pattern and charges analytic costs, so every figure repeats
// on any host and GOMAXPROCS; a rewrite of the build that keeps its
// model leaves the file as it is. Regenerate with `go test -run
// BuildAccountingGolden -update ./internal/pgst`.
func TestBuildAccountingGolden(t *testing.T) {
	st := testStore(11, 8000, 3.0)
	var buf bytes.Buffer
	for _, shape := range []struct{ p, firstOwner int }{{2, 0}, {4, 0}, {5, 1}} {
		for _, batch := range []int{4096, 1 << 20} {
			for _, staged := range []bool{false, true} {
				locals := make([]*Local, shape.p)
				stats := par.Run(par.DefaultConfig(shape.p), func(c *par.Comm) {
					locals[c.Rank()] = Build(c, st, Config{
						W: 6, MinLen: 8, FirstOwner: shape.firstOwner,
						BatchBytes: batch, Staged: staged, Seed: 7,
					})
				})
				fmt.Fprintf(&buf, "p=%d first=%d batch=%d staged=%v\n", shape.p, shape.firstOwner, batch, staged)
				for r, l := range locals {
					s := stats[r]
					fmt.Fprintf(&buf, "  rank %d: buckets %d suffixes %d rounds %d comp %.9e comm %.9e sent %d\n",
						r, l.Buckets, l.SuffixesOwned, l.FetchRounds, s.CompModel, s.CommModel, s.BytesSent)
				}
			}
		}
	}

	golden := filepath.Join("testdata", "build_accounting.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("build accounting drifted from golden.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
