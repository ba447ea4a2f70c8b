package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock returns a now() hook that advances 1 ms per call, and the
// epoch it starts from — deterministic wall timestamps for tests.
func fakeClock() (func() time.Time, time.Time) {
	epoch := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		n++
		return epoch.Add(time.Duration(n) * time.Millisecond)
	}, epoch
}

func newTestTracer(ranks, capacity int) *Tracer {
	t := NewTracer(ranks, capacity)
	t.now, t.epoch = fakeClock()
	return t
}

// TestConcurrentEmission hammers one tracer from many goroutines per
// rank plus concurrent readers — the -race guarantee behind emitting
// from live machine ranks while an HTTP handler exports.
func TestConcurrentEmission(t *testing.T) {
	const ranks, perRank = 8, 1000
	tr := NewTracer(ranks, 256)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				tr.Emit(r, EvSendBegin, float64(i), 0, int64(r), 7, 64)
				tr.Emit(r, EvSendEnd, float64(i), 0, int64(r), 7, 64)
			}
		}(r)
	}
	// Concurrent readers while emission is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for r := 0; r < ranks; r++ {
				tr.Events(r)
				tr.Dropped(r)
			}
			tr.TotalEvents()
		}
	}()
	wg.Wait()

	if got := tr.TotalEvents(); got != ranks*perRank*2 {
		t.Fatalf("TotalEvents = %d, want %d", got, ranks*perRank*2)
	}
	for r := 0; r < ranks; r++ {
		if got := len(tr.Events(r)); got != 256 {
			t.Errorf("rank %d retained %d events, want ring cap 256", r, got)
		}
		if got := tr.Dropped(r); got != perRank*2-256 {
			t.Errorf("rank %d dropped %d, want %d", r, got, perRank*2-256)
		}
	}
}

// TestRingWraparound: the ring keeps the newest events, oldest first.
func TestRingWraparound(t *testing.T) {
	tr := newTestTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(0, EvClusterMerge, 0, 0, int64(i), 0, 0)
	}
	evs := tr.Events(0)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.A != want {
			t.Errorf("event %d has A=%d, want %d (newest 4, oldest first)", i, e.A, want)
		}
	}
	if d := tr.Dropped(0); d != 6 {
		t.Errorf("Dropped = %d, want 6", d)
	}
}

// TestRingGrowth: emitting on a rank beyond the initial allocation
// grows the tracer instead of panicking.
func TestRingGrowth(t *testing.T) {
	tr := newTestTracer(2, 8)
	tr.Emit(7, EvCheckpoint, 0, 0, 123, 0, 0)
	if tr.Ranks() < 8 {
		t.Fatalf("Ranks = %d after emitting on rank 7, want ≥ 8", tr.Ranks())
	}
	evs := tr.Events(7)
	if len(evs) != 1 || evs[0].A != 123 {
		t.Fatalf("rank 7 events = %+v", evs)
	}
}

// TestNilTracer: every method is a no-op on nil — the disabled path.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, EvSendBegin, 0, 0, 0, 0, 0)
	if tr.Ranks() != 0 || tr.Events(0) != nil || tr.Dropped(0) != 0 || tr.TotalEvents() != 0 {
		t.Fatal("nil tracer accessor returned non-zero")
	}
}

func TestKindAndNames(t *testing.T) {
	if EvSendBegin.String() != "send" || EvSendEnd.String() != "send" {
		t.Error("send family name")
	}
	if Kind(250).String() != "unknown" {
		t.Error("out-of-range kind")
	}
	if PhaseName(PhaseGST) != "gst" || PhaseName(99) != "phase" {
		t.Error("phase names")
	}
	if FaultName(FaultDrop) != "drop" || FaultName(99) != "fault" {
		t.Error("fault names")
	}
}
