package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptyAccumulator(t *testing.T) {
	var a Accumulator
	if a.Count() != 0 || a.Mean() != 0 || a.Max() != 0 || a.StdDev() != 0 {
		t.Error("zero-value accumulator should report zeros")
	}
}

func TestKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if !almost(a.Mean(), 5) {
		t.Errorf("mean = %v, want 5", a.Mean())
	}
	if !almost(a.StdDev(), 2) {
		t.Errorf("stddev = %v, want 2", a.StdDev())
	}
	if a.Max() != 9 || a.Min() != 2 || a.Count() != 8 {
		t.Errorf("max/min/count = %v/%v/%v", a.Max(), a.Min(), a.Count())
	}
}

func TestSingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(-3)
	if a.Mean() != -3 || a.Max() != -3 || a.Min() != -3 || a.StdDev() != 0 {
		t.Error("single observation stats wrong")
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 1, 1, 9} {
		a.Add(x)
	}
	// Format mirrors Figure 15 rows: avg max stddev.
	if got := a.Summarize().String(); got != "3.00 9 3.46" {
		t.Errorf("summary string = %q", got)
	}
}

// Property: mean is bounded by min and max, and stddev is non-negative.
func TestAccumulatorBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		anyFinite := false
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Quick generates huge magnitudes; damp to keep m2 finite.
			a.Add(math.Mod(x, 1e6))
			anyFinite = true
		}
		if !anyFinite {
			return true
		}
		return a.Mean() >= a.Min()-1e-6 && a.Mean() <= a.Max()+1e-6 && a.StdDev() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
