package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json at the root of the repository is what the driver reads;
// the tables in spec.go are what the program prints. They must agree.
func TestManifestMatchesSpecs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(raw))
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d in spec.go", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest has %q / %q, spec.go has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or reason outside the manifest's limits (reason is %d characters)", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in spec.go", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest has %+v, spec.go has %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %q: outside the manifest's limits", kind, g.Name)
			}
			if seen[g.Name] {
				t.Errorf("%s %q: name used twice", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %q: bound %v, want %v", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}
