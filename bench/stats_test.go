package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty input must give NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// 20 samples: p95 is the 19th, which leaves one beyond it.
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	// Small sets, where the outer cuts lie beyond the data:
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestWindowsOf(t *testing.T) {
	ms := int64(time.Millisecond)
	b := &block{window: 100 * time.Millisecond, windows: 2, from: 1000 * ms, to: 1200 * ms}
	b.clients = []*client{
		{samples: []sample{
			{end: 999 * ms, lat: 1000, kind: opLookup},                // warm-up: dropped
			{end: 1000 * ms, lat: 3000, kind: opLookup},               // window 0
			{end: 1050 * ms, lat: 5000, kind: opUpdate},               // window 0
			{end: 1099 * ms, lat: 9000, kind: opDelete, failed: true}, // window 0, failed
			{end: 1100 * ms, lat: 7000, kind: opLookup},               // window 1
			{end: 1200 * ms, lat: 1000, kind: opLookup},               // after the end: dropped
		}},
		{samples: []sample{
			{end: 1010 * ms, lat: 1000, kind: opLookup}, // window 0
			{end: 1020 * ms, lat: 2000, kind: opLookup}, // window 0
		}},
	}
	ws := windowsOf(b)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	w0, w1 := ws[0], ws[1]
	if w0.ok != 4 || w0.failed != 1 || w1.ok != 1 || w1.failed != 0 {
		t.Errorf("counts: window 0 %d ok %d failed, window 1 %d ok %d failed", w0.ok, w0.failed, w1.ok, w1.failed)
	}
	if w0.throughput != 40 || w1.throughput != 10 {
		t.Errorf("throughput %v and %v, want 40 and 10 correct requests per second", w0.throughput, w1.throughput)
	}
	if w0.p50[opLookup] != 2 || w0.p50[opUpdate] != 5 || w0.writeP50 != 5 || w0.p95 != 5 {
		t.Errorf("window 0: lookup p50 %v, update p50 %v, write p50 %v, p95 %v; want 2 5 5 5",
			w0.p50[opLookup], w0.p50[opUpdate], w0.writeP50, w0.p95)
	}
	if !math.IsNaN(w0.p50[opScan]) || !math.IsNaN(w1.writeP50) {
		t.Error("a window without a kind of request must give NaN for it")
	}
	// The median over windows leaves the undefined ones out.
	if got := medianOver(ws, func(w windowStats) float64 { return w.writeP50 }); got != 5 {
		t.Errorf("median write p50 over windows = %v, want 5", got)
	}
	if got := medianOver(ws, func(w windowStats) float64 { return w.p50[opLookup] }); got != 4.5 {
		t.Errorf("median lookup p50 over windows = %v, want 4.5", got)
	}
}

// gen.share counts the time between a client's calls, clipped to the
// measured interval, and nothing of a call that straddles its ends.
func TestGenShareIsTimeBetweenCalls(t *testing.T) {
	b := &block{from: 100, to: 200}
	b.clients = []*client{
		// Calls [50,90] [110,130] [150,250]: out of a call for [100,110] and [130,150].
		{samples: []sample{{end: 90, lat: 40}, {end: 130, lat: 20}, {end: 250, lat: 100}}},
		// One call [20,300] over the whole interval.
		{samples: []sample{{end: 300, lat: 280}}},
	}
	if got := b.genShare(); got != 0.15 {
		t.Errorf("gen.share = %v, want 30 of 200 = 0.15", got)
	}
}
