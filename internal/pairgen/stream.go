package pairgen

import (
	"iter"

	"repro/internal/suffixtree"
)

// Stream adapts GenerateSweep into a pull-based iterator, which is what
// a worker processor needs: the master dictates how many new pairs to
// produce per iteration (the request size r of Section 7), so pairs
// must be drawn on demand rather than pushed. Generation runs only
// inside Take, which hands control to the sweep and waits for it
// (iter.Pull), so a panic in either is re-raised in the caller. The
// sweep starts with the first Take; from then on it may build ahead of
// the pulls, between them too, as far as its own bound allows (a
// budgeted pgst sweep: one segment's sub-forests).
type Stream struct {
	next func() (Pair, bool)
	stop func()
	cost float64 // of segments entered during the current Take
}

// NewSweep streams the pairs GenerateSweep yields for sweep, one
// continuous stream over all its segments. A segment's sub-forests are
// collected and its pairs emitted by the Take that needs its first pair
// (or finds the stream's end), and that Take returns the segment's
// cost. Close stops the sweep within the sub-forest it is building.
func NewSweep(sweep Sweep, cfg Config) *Stream {
	s := &Stream{}
	s.next, s.stop = iter.Pull(func(yield func(Pair) bool) {
		GenerateSweep(func(add func(*suffixtree.Tree), end func(float64) bool) bool {
			return sweep(add, func(cost float64) bool {
				s.cost += cost
				return end(cost)
			})
		}, cfg, yield)
	})
	return s
}

// Take appends up to max pairs to dst and returns it with the summed
// cost of the segments entered to serve them; fewer pairs are returned
// only at end of stream.
func (s *Stream) Take(dst []Pair, max int) ([]Pair, float64) {
	for len(dst) < max {
		p, ok := s.next()
		if !ok {
			break
		}
		dst = append(dst, p)
	}
	cost := s.cost
	s.cost = 0
	return dst, cost
}

// Close stops generation and releases the sweep, which stops any
// building ahead before it returns. Safe to call multiple times, and
// after the stream is exhausted.
func (s *Stream) Close() { s.stop() }
