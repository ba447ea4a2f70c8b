package main

import (
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from the harness side
// of the layer boundary. Start and End are nanoseconds since the
// recorder was created; Parent is the index of the enclosing span in
// the recorder's slice, -1 for a root.
type Span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// Recorder keeps spans in memory; they are written out once, when the
// run ends. It is used from one goroutine at a time (stages run in
// sequence), so it needs no lock.
type Recorder struct {
	workload string
	t0       time.Time
	spans    []Span
	open     []int // stack of open span indices
}

func newRecorder(workload string) *Recorder {
	return &Recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open span and returns the
// function that closes it.
func (r *Recorder) begin(name string) (end func()) {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Workload: r.workload, Parent: parent, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].End = int64(time.Since(r.t0))
		r.open = r.open[:len(r.open)-1]
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children. Children may overlap each
// other (parallel workers) and may stick out of the parent; only the
// union of their intervals, clipped to the parent, is subtracted.
func selfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// rootTimes returns, over all staged inputs, the total duration of the
// "run" root spans and the part of it spent inside layer spans.
func rootTimes(spans []Span) (total, inLayers float64) {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Parent == -1 {
			d := float64(s.End-s.Start) / 1e9
			total += d
			inLayers += d - float64(self[i])/1e9
		}
	}
	return total, inLayers
}
