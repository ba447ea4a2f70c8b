package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},       // nested, with a child of its own
		{Name: "a.inner", Parent: 1, Start: 15, End: 25}, // grandchild: subtracts from a, not root
		{Name: "b", Parent: 0, Start: 30, End: 60},       // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120},      // sticks out of root by 20
		{Name: "d", Parent: 0, Start: 45, End: 50},       // inside b's interval entirely
	}
	want := []int64{
		100 - (30 + 20 + 10), // a covers 10–40, b adds 40–60, c adds 90–100, d adds nothing
		30 - 10,
		10,
		30,
		30,
		5,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	total, inLayers := rootTimes(spans)
	if total != 100e-9 || inLayers != 60e-9 {
		t.Errorf("rootTimes = %v, %v, want 1e-7, 6e-8", total, inLayers)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder("w")
	endOuter := r.begin("outer")
	endInner := r.begin("inner")
	endInner()
	endSibling := r.begin("sibling")
	endSibling()
	endOuter()
	endNext := r.begin("next")
	endNext()
	wantParent := map[string]int{"outer": -1, "inner": 0, "sibling": 0, "next": -1}
	for _, s := range r.spans {
		if s.Parent != wantParent[s.Name] {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, wantParent[s.Name])
		}
		if s.End < s.Start || s.Workload != "w" {
			t.Errorf("span %+v: bad interval or workload", s)
		}
	}
}
