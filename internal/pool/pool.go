// Package pool runs the iterations of a loop on every core. It is the
// one worker pool of the repository: the GST bucket build, the first
// pass of pair generation and per-cluster assembly all run on it, so a
// panic in any of their goroutines reaches the caller the same way.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(k) for every k in [0, n) on up to GOMAXPROCS goroutines,
// the caller's included, each taking the next k from a shared counter.
// It runs inline on the caller when GOMAXPROCS is 1 or n < minN. Once
// stop (nil: none) is set no further k starts, so the call returns
// after the fn calls already running. A panic in any fn sets stop and
// is re-raised on the caller.
func For(n, minN int, stop *atomic.Bool, fn func(k int)) {
	if stop == nil {
		stop = new(atomic.Bool)
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if n < minN || workers < 2 {
		for k := 0; k < n && !stop.Load(); k++ {
			fn(k)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { panicked = r })
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			k := int(next.Add(1) - 1)
			if k >= n {
				return
			}
			fn(k)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Chunks returns how many contiguous chunks of at least minSize items
// n items split into, one per core at most: 1 at GOMAXPROCS=1 or
// below 2·minSize items, when a chunked loop runs inline.
func Chunks(n, minSize int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minSize))
}
