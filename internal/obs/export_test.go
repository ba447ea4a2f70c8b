package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenTracer emits a small scripted run on a deterministic clock:
// two ranks, a GST phase each, a send/recv exchange, a fault, and — on
// rank 1 — ring wraparound that evicts a send-begin so the export must
// drop its orphaned end.
func goldenTracer() *Tracer {
	tr := newTestTracer(2, 6)
	tr.Emit(0, EvPhaseEnter, 0, 0, PhaseGST, 0, 0)
	tr.Emit(0, EvSendBegin, 0.001, 0, 1, 7, 64)
	tr.Emit(0, EvSendEnd, 0.002, 0, 1, 7, 64)
	tr.Emit(0, EvPhaseExit, 0.002, 0.010, PhaseGST, 0, 0)
	tr.Emit(0, EvClusterMerge, 0.002, 0.011, 3, 8, 0)
	tr.Emit(0, EvFault, 0.002, 0.011, FaultDrop, 1, 7)

	// Rank 1: capacity 6, emit 7 — the first event (a send begin) is
	// evicted, leaving an orphan send end the exporter must drop.
	tr.Emit(1, EvSendBegin, 0.001, 0, 0, 9, 32) // evicted
	tr.Emit(1, EvSendEnd, 0.002, 0, 0, 9, 32)   // orphan once above is gone
	tr.Emit(1, EvPhaseEnter, 0.002, 0, PhaseGST, 0, 0)
	tr.Emit(1, EvRecvBegin, 0.002, 0.001, 0, 7, 0)
	tr.Emit(1, EvRecvEnd, 0.003, 0.001, 0, 7, 64)
	tr.Emit(1, EvPhaseExit, 0.003, 0.004, PhaseGST, 0, 0)
	tr.Emit(1, EvCheckpoint, 0.003, 0.004, 512, 0, 0)
	return tr
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch (run with -update to regenerate)\n got: %s\nwant: %s", name, got, want)
	}
}

// renderChrome snapshots every rank of tr and renders the Chrome trace.
func renderChrome(t *testing.T, tr *Tracer) []byte {
	t.Helper()
	perRank := make([][]Event, tr.Ranks())
	dropped := make([]uint64, tr.Ranks())
	for r := range perRank {
		perRank[r], dropped[r] = tr.Events(r), tr.Dropped(r)
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceEvents(&buf, perRank, dropped, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteChromeTraceGolden(t *testing.T) {
	checkGolden(t, "chrome_trace.json", renderChrome(t, goldenTracer()))
}

// TestChromeTraceBalanced re-parses the exported JSON and checks that
// a trace viewer can pair its spans: every E has a preceding B on its
// track, and the orphaned end from rank 1's wraparound is dropped.
func TestChromeTraceBalanced(t *testing.T) {
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(renderChrome(t, goldenTracer()), &tf); err != nil {
		t.Fatal(err)
	}
	type track struct {
		pid, tid int
		name     string
	}
	depth := map[track]int{}
	sendEndsRank1 := 0
	for _, e := range tf.TraceEvents {
		k := track{e.Pid, e.Tid, e.Name}
		switch e.Ph {
		case "B":
			depth[k]++
		case "E":
			if depth[k] == 0 {
				t.Fatalf("unmatched E %q on pid=%d tid=%d", e.Name, e.Pid, e.Tid)
			}
			depth[k]--
			if e.Name == "send" && e.Tid == 1 {
				sendEndsRank1++
			}
		}
	}
	if sendEndsRank1 != 0 {
		t.Errorf("rank 1's orphaned send end survived export (%d)", sendEndsRank1)
	}
}

// TestMetricsJSONGolden pins the metrics export byte for byte: a
// registry on a scripted clock with one of each metric family must
// render identically on every run (keys sorted by the encoder,
// uptime read through the injected clock).
func TestMetricsJSONGolden(t *testing.T) {
	base := time.Unix(1700000000, 0)
	calls := 0
	reg := NewRegistryAt(func() time.Time {
		calls++
		if calls == 1 {
			return base // registry start
		}
		return base.Add(2 * time.Second) // snapshot time: uptime pinned at 2s
	})
	reg.Counter("pairs_aligned").Add(42)
	reg.Gauge("master_queue_depth").Set(7)
	h := reg.Histogram("align_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json", buf.Bytes())

	// Byte-determinism: a second registry scripted identically must
	// render the identical document.
	calls2 := 0
	reg2 := NewRegistryAt(func() time.Time {
		calls2++
		if calls2 == 1 {
			return base
		}
		return base.Add(2 * time.Second)
	})
	reg2.Counter("pairs_aligned").Add(42)
	reg2.Gauge("master_queue_depth").Set(7)
	h2 := reg2.Histogram("align_seconds", []float64{0.001, 0.01})
	h2.Observe(0.0005)
	h2.Observe(0.5)
	var buf2 bytes.Buffer
	if err := reg2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("metrics export not deterministic:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}
