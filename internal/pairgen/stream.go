package pairgen

import (
	"iter"

	"repro/internal/suffixtree"
)

// Stream adapts Generate into a pull-based iterator, which is what a
// worker processor needs: the master dictates how many new pairs to
// produce per iteration (the request size r of Section 7), so pairs
// must be drawn on demand rather than pushed. Nothing runs between
// pulls: generation, and the building of every forest it needs, happens
// inside Take, which hands control to the sweep and waits for it
// (iter.Pull), so a panic in either is re-raised in the caller.
type Stream struct {
	next func() (Pair, bool)
	stop func()
	cost float64 // of forests built during the current Take
}

// NewSweep streams pairs from a sequence of forests produced on
// demand — the spilling GST's bounded segments. sweep must call yield
// once per forest, passing the cost of having built it (any unit), and
// stop when yield returns false; each forest is generated to exhaustion
// and dropped before the next is built, so the resident tree memory is
// one segment's, while the consumer sees a single continuous stream. A
// forest is built by the Take that needs its first pair (or finds the
// stream's end), and that Take returns its cost.
func NewSweep(sweep func(yield func(*suffixtree.Tree, float64) bool), cfg Config) *Stream {
	s := &Stream{}
	s.next, s.stop = iter.Pull(func(yield func(Pair) bool) {
		sweep(func(t *suffixtree.Tree, cost float64) bool {
			s.cost += cost
			more := true
			Generate(t, cfg, func(p Pair) bool {
				more = yield(p)
				return more
			})
			return more
		})
	})
	return s
}

// Take appends up to max pairs to dst and returns it with the summed
// cost of the forests built to serve them; fewer pairs are returned
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

// Close stops generation and releases the sweep. Safe to call multiple
// times, and after the stream is exhausted.
func (s *Stream) Close() { s.stop() }
