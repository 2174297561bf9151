package sim

import (
	"strings"
	"testing"
	"time"
)

// TestRunOverload drives a scaled-down overload curve end to end over
// real TCP loopback and checks the experiment's structure: calibration
// finds a nonzero capacity, each configured point runs at its multiple
// of it, and the past-saturation point sheds explicitly (at the driver
// or the servers) rather than failing silently. The pass/fail verdict
// itself is asserted by the `make overload` gate at full scale, not
// here — at test scale the quantiles are too noisy to pin.
func TestRunOverload(t *testing.T) {
	cfg := OverloadConfig{
		Keys:        500,
		Duration:    600 * time.Millisecond,
		OpTimeout:   150 * time.Millisecond,
		Points:      []float64{0.5, 2},
		Seed:        7,
		HotFraction: 0.25,
	}
	report, err := RunOverload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Capacity <= 0 {
		t.Fatalf("calibration measured capacity %.0f, want > 0", report.Capacity)
	}
	if len(report.Points) != len(cfg.Points) {
		t.Fatalf("got %d points, want %d", len(report.Points), len(cfg.Points))
	}
	for i, p := range report.Points {
		want := cfg.Points[i] * report.Capacity
		if p.Rate < want*0.99 || p.Rate > want*1.01 {
			t.Fatalf("point %d rate = %.0f, want %.2gx of capacity %.0f", i, p.Rate, cfg.Points[i], report.Capacity)
		}
		if p.Result.Completed == 0 {
			t.Fatalf("point %.2gx completed nothing", p.Multiple)
		}
	}
	last := report.Points[len(report.Points)-1]
	if shed := last.Result.Shed + last.ServerShed + last.ServerExpired; shed == 0 {
		t.Fatalf("2x capacity point refused no work anywhere: %+v", last)
	}
	// The tail bound is 4x the deadline rounded up to the histogram's
	// power-of-two bucket ceiling.
	if report.TailBound < 4*cfg.OpTimeout || report.TailBound >= 8*cfg.OpTimeout {
		t.Fatalf("tail bound = %v, want in [4x, 8x) of %v", report.TailBound, cfg.OpTimeout)
	}

	out := FormatOverload(report)
	for _, want := range []string{"capacity", "plateau:", "tail:", "0.5x", "2x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatOverload output missing %q:\n%s", want, out)
		}
	}
}
