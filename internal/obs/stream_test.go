package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// TestEventsSinceCursor: reading the log in arbitrary chunk sizes
// through a cursor reproduces exactly what a single Events read sees.
func TestEventsSinceCursor(t *testing.T) {
	tr := newTestTracer(1, 64)
	for i := 0; i < 40; i++ {
		tr.Emit(0, EvClusterMerge, 0, 0, int64(i), int64(i+1), 0)
	}
	var got []Event
	var cursor uint64
	for {
		evs, next, lost := tr.EventsSince(0, cursor)
		if lost != 0 {
			t.Fatalf("lost %d events without wraparound", lost)
		}
		got = append(got, evs...)
		if next == cursor {
			break
		}
		cursor = next
		// Interleave more emissions with reads.
		if len(got) < 60 {
			for i := 0; i < 10; i++ {
				tr.Emit(0, EvClusterMerge, 0, 0, int64(len(got)+i), 0, 0)
			}
		}
	}
	want := tr.Events(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor walk diverged: got %d events, want %d", len(got), len(want))
	}
}

// TestEventsSinceWraparound: a slow reader loses exactly the events
// the ring evicted, and gets the retained suffix.
func TestEventsSinceWraparound(t *testing.T) {
	const capN, emitted = 8, 20
	tr := newTestTracer(1, capN)
	for i := 0; i < emitted; i++ {
		tr.Emit(0, EvClusterMerge, 0, 0, int64(i), 0, 0)
	}
	evs, next, lost := tr.EventsSince(0, 0)
	if next != emitted {
		t.Fatalf("next = %d, want %d", next, emitted)
	}
	if lost != emitted-capN {
		t.Fatalf("lost = %d, want %d", lost, emitted-capN)
	}
	if len(evs) != capN || evs[0].A != emitted-capN || evs[capN-1].A != emitted-1 {
		t.Fatalf("retained suffix wrong: %+v", evs)
	}

	// A cursor beyond the log (tracer restarted) clamps, not panics.
	evs, next, lost = tr.EventsSince(0, 10_000)
	if len(evs) != 0 || next != emitted || lost != 0 {
		t.Fatalf("clamped read: events %d next %d lost %d", len(evs), next, lost)
	}
}

// TestMetricsSnapshotRoundTrip is the wire contract the collector
// depends on: after any sequence of registry operations, a captured
// state survives the JSON round trip of a report exactly, and renders
// the same expvar-shaped snapshot.
func TestMetricsSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reg := NewRegistry()
	bounds := []float64{1, 10, 100}
	for round := 0; round < 60; round++ {
		for op := 0; op < rng.Intn(20); op++ {
			name := string(rune('a' + rng.Intn(6)))
			switch rng.Intn(3) {
			case 0:
				reg.Counter("ctr_" + name).Add(int64(rng.Intn(50)))
			case 1:
				reg.Gauge("g_" + name).Set(int64(rng.Intn(1000) - 500))
			case 2:
				// Integer-valued observations keep float sums exact, so
				// the equality check below has no tolerance to tune.
				reg.Histogram("h_"+name, bounds).Observe(float64(rng.Intn(200)))
			}
		}
		capture := CaptureMetrics(reg)
		wire, err := json.Marshal(capture)
		if err != nil {
			t.Fatal(err)
		}
		var back MetricsState
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&back, capture) {
			t.Fatalf("round %d: decoded state differs from the capture:\ndecoded: %+v\ncapture: %+v", round, &back, capture)
		}
		if !reflect.DeepEqual(back.Snapshot(), capture.Snapshot()) {
			t.Fatalf("round %d: Snapshot() of the decoded state differs from the capture's", round)
		}
	}
}
