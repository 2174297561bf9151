package main

import "testing"

func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"nope", "shard", "traffic", "workload"} {
		if err := run([]string{"-experiment", exp}); err == nil {
			t.Errorf("unknown experiment %q should fail", exp)
		}
	}
}

func TestRunSmallExperiments(t *testing.T) {
	// Tiny op counts keep this a smoke test of the full wiring.
	for _, exp := range []string{"fig16", "sticky", "batch"} {
		if err := run([]string{"-experiment", exp, "-ops", "200"}); err != nil {
			t.Errorf("experiment %s: %v", exp, err)
		}
	}
	if err := run([]string{"-experiment", "conc", "-ops", "2", "-clients", "2", "-latency", "1us"}); err != nil {
		t.Errorf("experiment conc: %v", err)
	}
}

// TestExperimentsMatchRuns pins that the list -experiment all walks and
// the map of runners name the same experiments, each once: a name in
// the list alone would make -experiment all call a nil func, one in the
// map alone would be left out of it.
func TestExperimentsMatchRuns(t *testing.T) {
	runs := (&flags{}).runs()
	listed := map[string]bool{}
	for _, name := range experiments {
		if listed[name] {
			t.Errorf("experiment %q listed twice", name)
		}
		listed[name] = true
		if runs[name] == nil {
			t.Errorf("experiment %q is listed but has no runner", name)
		}
	}
	for name := range runs {
		if !listed[name] {
			t.Errorf("experiment %q has a runner but is not listed", name)
		}
	}
}

func TestRunFigure14OpsOverride(t *testing.T) {
	results, err := runFigure14(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Config.Operations != 100 {
			t.Errorf("ops override ignored: %d", r.Config.Operations)
		}
	}
}
