package pairgen

import (
	"sync"

	"repro/internal/suffixtree"
)

// Stream adapts Generate into a pull-based iterator, which is what a
// worker processor needs: the master dictates how many new pairs to
// produce per iteration (the request size r of Section 7), so pairs
// must be drawn on demand rather than pushed. The generator runs in
// its own goroutine and parks between batches.
type Stream struct {
	ch    chan Pair
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	stats Stats

	mu   sync.Mutex
	cost float64 // of forests built since the last TakeCost
}

// NewStream starts streaming pairs from the tree. The buffer size
// bounds how far generation can run ahead of consumption.
func NewStream(tree *suffixtree.Tree, cfg Config, buffer int) *Stream {
	return NewSweep(func(yield func(*suffixtree.Tree, float64) bool) { yield(tree, 0) }, cfg, buffer)
}

// NewSweep streams pairs from a sequence of forests produced on
// demand — the spilling GST's bounded segments. sweep must call yield
// once per forest and stop when yield returns false; each forest is
// generated to exhaustion and dropped before the next is built, so the
// resident tree memory is one segment's, while the consumer sees a
// single continuous stream. Stats accumulate across all segments. The
// buffer size bounds how far generation can run ahead of consumption.
//
// The forests are built on the generator's goroutine, out of sight of
// whatever clock the consumer keeps, so sweep passes with each forest
// the cost of having built it (any unit) and the consumer collects the
// sum with TakeCost.
func NewSweep(sweep func(yield func(*suffixtree.Tree, float64) bool), cfg Config, buffer int) *Stream {
	if buffer < 1 {
		buffer = 64
	}
	s := &Stream{
		ch:   make(chan Pair, buffer),
		stop: make(chan struct{}),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.ch)
		stopped := false
		sweep(func(t *suffixtree.Tree, cost float64) bool {
			s.mu.Lock()
			s.cost += cost
			s.mu.Unlock()
			st := Generate(t, cfg, func(p Pair) bool {
				select {
				case s.ch <- p:
					return true
				case <-s.stop:
					stopped = true
					return false
				}
			})
			s.stats.Emitted += st.Emitted
			s.stats.Skipped += st.Skipped
			s.stats.NodesVisited += st.NodesVisited
			return !stopped
		})
	}()
	return s
}

// Next returns the next pair; ok is false once the stream is
// exhausted or closed.
func (s *Stream) Next() (Pair, bool) {
	p, ok := <-s.ch
	return p, ok
}

// Take appends up to max pairs to dst and returns it; fewer are
// returned only at end of stream.
func (s *Stream) Take(dst []Pair, max int) []Pair {
	for len(dst) < max {
		p, ok := s.Next()
		if !ok {
			break
		}
		dst = append(dst, p)
	}
	return dst
}

// TakeCost returns the cost of the forests built since the last call.
// A forest's cost is in by the time its first pair, or the end of the
// stream, is.
func (s *Stream) TakeCost() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cost := s.cost
	s.cost = 0
	return cost
}

// Close stops generation and releases the generator goroutine. Safe to
// call multiple times and concurrently with Next.
func (s *Stream) Close() {
	s.once.Do(func() { close(s.stop) })
	// Drain so the generator unblocks if it was mid-send.
	for range s.ch {
	}
	s.wg.Wait()
}

// Stats returns the generator's counters; valid after the stream is
// exhausted or closed.
func (s *Stream) Stats() Stats {
	s.wg.Wait()
	return s.stats
}
