package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// The contract's limits on names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness in
// step: every workload and metric the harness prints is listed there
// under the same name and unit, and nothing else is.
func TestManifestMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the allowed alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		unique("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}

	check := func(kind string, defs []metricDef, n int, at func(i int) (name, unit, better string)) {
		if n != len(defs) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the harness prints %d", n, kind, len(defs))
		}
		for i := 0; i < n; i++ {
			name, unit, better := at(i)
			unique(kind, name)
			if !unitRE.MatchString(unit) {
				t.Errorf("%s: unit %q is outside the allowed alphabet", name, unit)
			}
			if better != "lower" && better != "higher" {
				t.Errorf("%s: better = %q", name, better)
			}
			if i < len(defs) && (defs[i].name != name || defs[i].unit != unit) {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, name, unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, len(m.EndToEnd), func(i int) (string, string, string) {
		e := m.EndToEnd[i]
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", e.Name, e.Bound)
		}
		return e.Name, e.Unit, e.Better
	})
	check("per_layer", perLayer, len(m.PerLayer), func(i int) (string, string, string) {
		e := m.PerLayer[i]
		return e.Name, e.Unit, e.Better
	})
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}
