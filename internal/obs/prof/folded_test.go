package prof

import (
	"bytes"
	"strings"
	"testing"
)

func cpuProfile(samples ...Sample) *Profile {
	return &Profile{
		SampleTypes: []ValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}},
		Samples:     samples,
	}
}

func labeled(rank, phase string, fn string, vals ...int64) Sample {
	s := Sample{Stack: []Frame{{Function: fn}}, Values: vals}
	if rank != "" {
		s.Labels = append(s.Labels, Label{Key: LabelRank, Str: rank})
	}
	if phase != "" {
		s.Labels = append(s.Labels, Label{Key: LabelPhase, Str: phase})
	}
	return s
}

func folded(t *testing.T, value string, ps ...*Profile) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFolded(&buf, ps, value); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteFoldedSumsAcrossProfiles(t *testing.T) {
	a := cpuProfile(labeled("0", "gst", "work", 3, 30))
	b := cpuProfile(labeled("0", "gst", "work", 2, 20))
	if got, want := folded(t, "cpu", a, b), "phase:gst;rank:0;work 50\n"; got != want {
		t.Fatalf("same stack in two profiles folded to %q, want %q", got, want)
	}
}

func TestWriteFoldedKeepsRanksApart(t *testing.T) {
	// Same stack, different rank labels: folding across ranks must
	// keep per-rank attribution intact.
	a := cpuProfile(labeled("0", "gst", "work", 1, 10))
	b := cpuProfile(labeled("1", "gst", "work", 1, 10))
	want := "phase:gst;rank:0;work 10\nphase:gst;rank:1;work 10\n"
	if got := folded(t, "cpu", a, b); got != want {
		t.Fatalf("distinct ranks folded to %q, want %q", got, want)
	}
}

func TestWriteFoldedOrderIndependent(t *testing.T) {
	a := cpuProfile(labeled("1", "gst", "b", 1, 10), labeled("0", "cluster", "a", 1, 10))
	b := cpuProfile(labeled("2", "align", "c", 1, 10), labeled("1", "gst", "b", 1, 5))
	if ab, ba := folded(t, "cpu", a, b), folded(t, "cpu", b, a); ab != ba {
		t.Fatalf("output depends on input order:\n%s---\n%s", ab, ba)
	}
}

func TestWriteFoldedValuePerProfile(t *testing.T) {
	// The value index is looked up in each profile: b lists its types
	// in the other order, c has no "cpu" type and falls back to its
	// last, d has no types at all and contributes nothing.
	a := cpuProfile(labeled("0", "gst", "work", 1, 10))
	b := &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}, {Type: "samples", Unit: "count"}},
		Samples:     []Sample{labeled("0", "gst", "work", 20, 2)},
	}
	c := &Profile{
		SampleTypes: []ValueType{{Type: "samples", Unit: "count"}, {Type: "wall", Unit: "nanoseconds"}},
		Samples:     []Sample{labeled("0", "gst", "work", 3, 300)},
	}
	d := &Profile{Samples: []Sample{labeled("0", "gst", "work")}}
	if got, want := folded(t, "cpu", a, b, c, d), "phase:gst;rank:0;work 330\n"; got != want {
		t.Fatalf("folded %q, want %q", got, want)
	}
}

func TestWriteFolded(t *testing.T) {
	p := cpuProfile(
		Sample{
			Stack:  []Frame{{Function: "leaf"}, {Function: "root"}}, // leaf-first
			Values: []int64{1, 42},
			Labels: []Label{{Key: LabelPhase, Str: "gst"}, {Key: LabelRank, Str: "3"}},
		},
		labeled("", "", "plain", 1, 7),
	)
	out := folded(t, "cpu", p)
	if !strings.Contains(out, "phase:gst;rank:3;root;leaf 42\n") {
		t.Errorf("labeled stack not folded root-first with synthetic roots:\n%s", out)
	}
	if !strings.Contains(out, "plain 7\n") {
		t.Errorf("unlabeled stack missing:\n%s", out)
	}
}
