package prof_test

import (
	"bytes"
	"math/rand"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/prof"
	"repro/internal/pipeline"
	"repro/internal/simulate"
)

// TestPipelinePhasesLabelled: under a profiling session, a one-rank
// pipeline run carries each phase's name as the phase label of the
// goroutine that computes it, so no phase's CPU samples land
// unattributed. The labels are read from a goroutine profile taken as
// each phase begins, which needs no CPU sample to land.
func TestPipelinePhasesLabelled(t *testing.T) {
	s, err := prof.Start(prof.Config{Dir: t.TempDir(), Name: "labels"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	rng := rand.New(rand.NewSource(1))
	g := simulate.NewGenome(rng, "g", simulate.GenomeConfig{Length: 3000})
	frags := simulate.SampleWGS(rng, g, 4, simulate.DefaultReadConfig(), "r")
	cfg := core.DefaultConfig()
	got := make(map[pipeline.Phase]string)
	_, err = pipeline.Run(frags, pipeline.Config{Core: cfg, OnPhase: func(p pipeline.Phase) {
		got[p] = phaseLabel(t)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pipeline.Phases {
		if got[p] != string(p) {
			t.Errorf("phase %s ran under phase label %q", p, got[p])
		}
	}
	if l := phaseLabel(t); l != "" {
		t.Errorf("phase label %q outlived the run", l)
	}
}

// phaseLabel returns the phase label of the calling goroutine, found in
// a goroutine profile by its stack, which passes through phaseLabel.
func phaseLabel(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := prof.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Samples {
		sm := &p.Samples[i]
		for _, f := range sm.Stack {
			if strings.HasSuffix(f.Function, "prof_test.phaseLabel") {
				return sm.Label(prof.LabelPhase)
			}
		}
	}
	t.Fatalf("no goroutine in the profile runs phaseLabel (%d samples)", len(p.Samples))
	return ""
}
