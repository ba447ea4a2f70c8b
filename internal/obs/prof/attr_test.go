package prof

import (
	"bytes"
	"strings"
	"testing"
)

func allocProfile(samples ...Sample) *Profile {
	return &Profile{
		SampleTypes: []ValueType{
			{Type: "alloc_objects", Unit: "count"},
			{Type: "alloc_space", Unit: "bytes"},
			{Type: "inuse_objects", Unit: "count"},
			{Type: "inuse_space", Unit: "bytes"},
		},
		Samples: samples,
	}
}

func stack(fns ...string) []Frame {
	out := make([]Frame, len(fns))
	for i, fn := range fns {
		out[i] = Frame{Function: fn, File: fn + ".go", Line: int64(i + 1)}
	}
	return out
}

func TestAttributeReport(t *testing.T) {
	// Functions of this module carry its path, as in a real profile:
	// only they place an alloc site.
	const buildTree, runRank, unionFind = "repro/x.buildTree", "repro/x.runRank", "repro/x.unionFind"
	cpu := cpuProfile(
		// gst dominates: 60ns across ranks 0 and 1.
		Sample{Stack: stack(buildTree, runRank), Values: []int64{4, 40},
			Labels: []Label{{Key: LabelPhase, Str: "gst"}, {Key: LabelRank, Str: "0"}}},
		Sample{Stack: stack(buildTree, runRank), Values: []int64{2, 20},
			Labels: []Label{{Key: LabelPhase, Str: "gst"}, {Key: LabelRank, Str: "1"}}},
		// cluster: 10ns.
		Sample{Stack: stack(unionFind, runRank), Values: []int64{1, 10},
			Labels: []Label{{Key: LabelPhase, Str: "cluster"}, {Key: LabelRank, Str: "0"}}},
		// GC worker: unlabeled but rooted in the runtime.
		Sample{Stack: stack("scanobject", "runtime.gcBgMarkWorker"), Values: []int64{1, 10}},
	)
	allocs := allocProfile(
		Sample{Stack: stack("makeNodes", buildTree, runRank), Values: []int64{1000, 64000, 1, 64}},
		Sample{Stack: stack("newSets", unionFind, runRank), Values: []int64{10, 320, 0, 0}},
		Sample{Stack: stack("mystery", "orphan"), Values: []int64{5, 50, 0, 0}},
	)

	r := Attribute([]*Profile{cpu}, []*Profile{allocs}, nil, Options{Top: 3})

	if r.TotalSamples != 8 || r.BothLabeled != 7 || r.SystemSamples != 1 {
		t.Fatalf("coverage: total %d both %d system %d", r.TotalSamples, r.BothLabeled, r.SystemSamples)
	}
	if r.LabeledUser != 100 {
		t.Fatalf("LabeledUser = %v, want 100 (all labelable samples labeled)", r.LabeledUser)
	}
	if r.CritPhase != "gst" || r.CritSource != "cpu-samples" {
		t.Fatalf("crit phase %q via %q, want gst via cpu-samples", r.CritPhase, r.CritSource)
	}
	if len(r.Phases) == 0 || r.Phases[0].Phase != "gst" || r.Phases[0].Nanos != 60 {
		t.Fatalf("phase rows wrong: %+v", r.Phases)
	}
	if got := r.Phases[0].Ranks; len(got) != 2 || got[0].Rank != "0" || got[0].Nanos != 40 {
		t.Fatalf("gst rank split wrong: %+v", got)
	}
	var runtimeRow *PhaseProf
	for i := range r.Phases {
		if r.Phases[i].Phase == PhaseRuntime {
			runtimeRow = &r.Phases[i]
		}
	}
	if runtimeRow == nil || runtimeRow.Nanos != 10 {
		t.Fatalf("runtime system samples not classified under %s: %+v", PhaseRuntime, r.Phases)
	}
	if len(r.CritFuncs) == 0 || r.CritFuncs[0].Function != buildTree {
		t.Fatalf("top crit function wrong: %+v", r.CritFuncs)
	}

	// Alloc attribution: the library leaf makeNodes is placed by its
	// caller buildTree, the first module frame, only ever seen in gst;
	// newSets by unionFind, seen only in cluster; mystery has no module
	// frame at all.
	wantPhase := map[string]string{"makeNodes": "gst", "newSets": "cluster", "mystery": ""}
	for _, a := range r.Allocs {
		if want, ok := wantPhase[a.Function]; ok && a.Phase != want {
			t.Errorf("alloc site %s attributed to %q, want %q", a.Function, a.Phase, want)
		}
	}
	if len(r.CritAllocs) != 1 || r.CritAllocs[0].Function != "makeNodes" {
		t.Fatalf("crit allocs wrong: %+v", r.CritAllocs)
	}
	if r.TotalAllocBytes != 64370 || r.TotalAllocObjects != 1015 {
		t.Fatalf("alloc totals: %d bytes %d objects", r.TotalAllocBytes, r.TotalAllocObjects)
	}

	// The causal DAG outranks the CPU-sample fallback when present —
	// even naming a different phase.
	r2 := Attribute([]*Profile{cpu}, nil, []CritPhaseSec{{Phase: "cluster", Sec: 1.5}, {Phase: "gst", Sec: 0.5}}, Options{})
	if r2.CritPhase != "cluster" || r2.CritSource != "causal-dag" || r2.CritSec != 1.5 {
		t.Fatalf("causal join ignored: %q via %q (%v s)", r2.CritPhase, r2.CritSource, r2.CritSec)
	}

	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical-path phase: gst", "CPU by phase:", "buildTree", "makeNodes"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}
}

// TestAllocAttributionStopsAtFirstModuleFrame: input parsing allocates
// in bytes.Fields under seq.ReadQual before any label is set. Both
// bytes.Fields and main.main ran on labeled gst samples, ReadQual
// never did, so the site is left unattributed rather than charged to
// gst. A library leaf under a module function seen in gst is gst's.
func TestAllocAttributionStopsAtFirstModuleFrame(t *testing.T) {
	const build, splitters = "repro/internal/suffixtree.(*worker).build", "repro/internal/pgst.parseSplitters"
	gst := []Label{{Key: LabelPhase, Str: "gst"}, {Key: LabelRank, Str: "0"}}
	cpu := cpuProfile(
		Sample{Stack: stack("bytes.Fields", splitters, "main.main"), Values: []int64{5, 50}, Labels: gst},
		Sample{Stack: stack(build, "main.main"), Values: []int64{5, 50}, Labels: gst},
	)
	allocs := allocProfile(
		Sample{Stack: stack("bytes.Fields", "repro/internal/seq.ReadQual", "main.main"), Values: []int64{100, 10 << 20, 0, 0}},
		Sample{Stack: stack("strings.Repeat", build, "main.main"), Values: []int64{1, 4096, 0, 0}},
		Sample{Stack: stack("runtime.malg", "runtime.newproc1"), Values: []int64{1, 64, 0, 0}},
	)
	r := Attribute([]*Profile{cpu}, []*Profile{allocs}, nil, Options{Top: 5})
	want := map[string]string{"bytes.Fields": "", "strings.Repeat": "gst", "runtime.malg": ""}
	if len(r.Allocs) != len(want) {
		t.Fatalf("alloc sites %+v", r.Allocs)
	}
	for _, a := range r.Allocs {
		if a.Phase != want[a.Function] {
			t.Errorf("alloc site %s attributed to %q, want %q", a.Function, a.Phase, want[a.Function])
		}
	}
	if len(r.CritAllocs) != 1 || r.CritAllocs[0].Function != "strings.Repeat" {
		t.Errorf("crit allocs %+v, want strings.Repeat alone", r.CritAllocs)
	}
}

func TestDiff(t *testing.T) {
	old := []*Profile{cpuProfile(labeled("0", "gst", "hot", 1, 100), labeled("0", "gst", "cold", 1, 10))}
	new := []*Profile{cpuProfile(labeled("0", "gst", "hot", 1, 300), labeled("0", "gst", "cold", 1, 10))}
	d := DiffCPU(old, new, 5)
	if len(d) != 1 || d[0].Function != "hot" || d[0].Delta != 200 {
		t.Fatalf("DiffCPU = %+v", d)
	}

	oldA := []*Profile{allocProfile(Sample{Stack: stack("site"), Values: []int64{10, 1000, 0, 0}})}
	newA := []*Profile{allocProfile(
		Sample{Stack: stack("site"), Values: []int64{30, 5000, 0, 0}},
		Sample{Stack: stack("fresh"), Values: []int64{1, 100, 0, 0}},
	)}
	ad := DiffAllocs(oldA, newA, 5)
	if len(ad) != 2 || ad[0].Function != "site" || ad[0].DeltaBytes != 4000 || ad[1].Function != "fresh" {
		t.Fatalf("DiffAllocs = %+v", ad)
	}
}

// TestDiffAllocsAcrossCheckouts: the same site profiled in two
// checkouts of one tree has two absolute file paths. It is still one
// site: unchanged it yields no row, changed exactly one, with the new
// side's file.
func TestDiffAllocsAcrossCheckouts(t *testing.T) {
	at := func(root string, bytes int64) *Profile {
		return allocProfile(Sample{
			Stack:  []Frame{{Function: "repro/internal/x.grow", File: root + "/repo/internal/x/x.go", Line: 42}},
			Values: []int64{1, bytes, 0, 0},
		})
	}
	if d := DiffAllocs([]*Profile{at("/a", 4096)}, []*Profile{at("/b", 4096)}, 5); len(d) != 0 {
		t.Fatalf("unchanged site across checkouts: %+v, want no row", d)
	}
	d := DiffAllocs([]*Profile{at("/a", 4096)}, []*Profile{at("/b", 8192)}, 5)
	if len(d) != 1 || d[0].DeltaBytes != 4096 || d[0].File != "/b/repo/internal/x/x.go" || d[0].Line != 42 {
		t.Fatalf("changed site across checkouts: %+v, want one row of +4096 B at /b/...:42", d)
	}
}
