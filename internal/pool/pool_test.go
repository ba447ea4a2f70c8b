package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForRaisesPanicOnCaller: a panic in a pool goroutine is re-raised
// on the calling goroutine, where a deferred recover contains it,
// instead of killing the process.
func TestForRaisesPanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var stop atomic.Bool
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the fn's panic", r)
		}
		if !stop.Load() {
			t.Error("a panicking pool left its stop flag clear")
		}
	}()
	For(64, 8, &stop, func(k int) {
		if k == 5 {
			panic("boom")
		}
	})
	t.Error("For returned normally")
}

// TestForRunsEveryIndexOnce, on one core and on four, above and below
// the inline threshold, with and without a stop flag.
func TestForRunsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 7, 8, 100} {
			hits := make([]atomic.Int32, n)
			var stop *atomic.Bool
			if n%2 == 0 {
				stop = new(atomic.Bool)
			}
			For(n, 8, stop, func(k int) { hits[k].Add(1) })
			for k := range hits {
				if h := hits[k].Load(); h != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, k, h)
				}
			}
		}
	}
}

func TestChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	if c := Chunks(1<<20, 10); c != 1 {
		t.Fatalf("GOMAXPROCS 1: %d chunks, want 1", c)
	}
	runtime.GOMAXPROCS(4)
	for _, tc := range []struct{ n, want int }{{0, 1}, {19, 1}, {20, 2}, {35, 3}, {1000, 4}} {
		if c := Chunks(tc.n, 10); c != tc.want {
			t.Fatalf("GOMAXPROCS 4: %d items of at least 10 make %d chunks, want %d", tc.n, c, tc.want)
		}
	}
}
