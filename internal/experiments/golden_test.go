package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestTable1Golden pins the fully deterministic reports byte for byte
// against testdata/<name>.golden: Table 1's serial clustering counts
// over the synthetic maize-like inputs, and Fig. 5's modeled GST
// construction charges (a fail-stop resident build exchanges a fixed
// message pattern and charges analytic costs, so its comp/comm/total
// columns repeat to the printed 0.1 ms on any host and GOMAXPROCS).
// The clustering tables are excluded: their modeled times depend on
// host scheduling. Regenerate with `go test -run Table1Golden -update
// ./internal/experiments`.
func TestTable1Golden(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options)
		opt  Options
	}{
		{"table1", func(o Options) { Table1(o) }, Options{Scale: 20000, Seed: 20060425}},
		{"fig5", func(o Options) { Fig5(o) }, quickOpts()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tc.opt.Out = &buf
			tc.run(tc.opt)

			golden := filepath.Join("testdata", tc.name+".golden")
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
				t.Errorf("%s drifted from golden.\n--- got ---\n%s--- want ---\n%s", tc.name, buf.Bytes(), want)
			}
		})
	}
}
