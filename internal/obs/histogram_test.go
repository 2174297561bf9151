package obs

import (
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log-bucket layout: bound i is 1µs<<i,
// observations land in the smallest bucket whose bound they do not
// exceed, and out-of-range durations land in bucket 0 / overflow.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},                   // exactly bound 0
		{time.Microsecond + time.Nanosecond, 1}, // just over bound 0
		{2 * time.Microsecond, 1},               // exactly bound 1
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{time.Millisecond, 10}, // 1024µs = 1µs<<10
		{1025 * time.Microsecond, 11},
		{time.Microsecond << 26, numFinite - 1},             // largest finite bound
		{time.Microsecond<<26 + time.Nanosecond, numFinite}, // overflow
		{time.Hour, numFinite},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if b := BucketBound(0); b != time.Microsecond {
		t.Errorf("BucketBound(0) = %v", b)
	}
	if b := BucketBound(10); b != 1024*time.Microsecond {
		t.Errorf("BucketBound(10) = %v", b)
	}
	if b := BucketBound(numFinite); b >= 0 {
		t.Errorf("overflow bucket bound = %v, want negative (+Inf)", b)
	}
	// Bounds strictly increase.
	for i := 1; i < numFinite; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Errorf("bounds not increasing at %d", i)
		}
	}
}

// TestHistogramObserve checks counts, sum, and mean.
func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)     // bucket 0
	h.Observe(3 * time.Microsecond) // bucket 2
	h.Observe(3 * time.Microsecond) // bucket 2
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 7*time.Microsecond {
		t.Errorf("sum = %v", s.Sum)
	}
	if s.Counts[0] != 1 || s.Counts[2] != 2 {
		t.Errorf("counts = %v", s.Counts[:4])
	}
	if m := s.Mean(); m != 7*time.Microsecond/3 {
		t.Errorf("mean = %v", m)
	}
	if q := s.Quantile(0.5); q != 4*time.Microsecond {
		t.Errorf("p50 bound = %v, want 4µs", q)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// -race verifies the atomics, the totals verify no observation is lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Errorf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// TestQuantileOverflowReportsMax is the regression test for the
// overflow-clamp bug: a histogram whose observations all land in the
// +Inf bucket used to report its quantiles as the largest finite bucket
// bound (~67s) no matter how far past it the tail actually ran, so an
// SLO p999 verdict could pass on a run whose tail was minutes long.
// Every quantile of an all-overflow histogram must report the exact
// observed maximum.
func TestQuantileOverflowReportsMax(t *testing.T) {
	var h Histogram
	over := BucketBound(numFinite-1) + time.Second
	for i := 0; i < 10; i++ {
		h.Observe(over + time.Duration(i)*time.Minute)
	}
	max := over + 9*time.Minute
	s := h.Snapshot()
	if s.Max != max {
		t.Fatalf("snapshot max = %v, want %v", s.Max, max)
	}
	for _, q := range []float64{0.5, 0.99, 0.999, 1} {
		if got := s.Quantile(q); got != max {
			t.Errorf("all-overflow Quantile(%v) = %v, want observed max %v", q, got, max)
		}
	}
	// Mixed: p50 stays in a finite bucket, the tail reports the max.
	var m Histogram
	for i := 0; i < 99; i++ {
		m.Observe(time.Millisecond)
	}
	m.Observe(2 * time.Hour)
	ms := m.Snapshot()
	if got := ms.Quantile(0.5); got != BucketBound(bucketFor(time.Millisecond)) {
		t.Errorf("mixed p50 = %v", got)
	}
	if got := ms.Quantile(0.999); got != 2*time.Hour {
		t.Errorf("mixed p999 = %v, want 2h", got)
	}
	// A hand-built snapshot with overflow counts but no Max falls back
	// to the largest finite bound (the overflow bucket's lower edge)
	// rather than reporting zero.
	var hand HistogramSnapshot
	hand.Count = 1
	hand.Counts[numFinite] = 1
	if got, want := hand.Quantile(0.99), BucketBound(numFinite-1); got != want {
		t.Errorf("hand-built overflow quantile = %v, want %v", got, want)
	}
}

// TestQuantileBucketEdges pins Quantile at exact bucket boundaries:
// exact powers of two sit in their own bucket (a quantile there reports
// the bound itself), and sub-µs observations report the 1µs bound.
func TestQuantileBucketEdges(t *testing.T) {
	// Exact powers of two: an observation at 1µs<<i reports bound i.
	for i := 0; i < numFinite; i++ {
		var h Histogram
		h.Observe(time.Microsecond << i)
		if got := h.Snapshot().Quantile(1); got != BucketBound(i) {
			t.Errorf("Quantile(1) of exactly 1µs<<%d = %v, want %v", i, got, BucketBound(i))
		}
	}
	// Sub-µs and negative observations land in bucket 0 and report 1µs.
	var sub Histogram
	sub.Observe(10 * time.Nanosecond)
	sub.Observe(-time.Second)
	if got := sub.Snapshot().Quantile(1); got != time.Microsecond {
		t.Errorf("sub-µs Quantile(1) = %v, want 1µs", got)
	}
	if got := sub.Snapshot().Max; got != 10*time.Nanosecond {
		t.Errorf("sub-µs max = %v", got)
	}
}

// TestHistogramVec checks lazy label creation and concurrent access.
func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v.With("lookup").Observe(time.Microsecond)
				v.With("insert").Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if n := len(v.Snapshot()); n != 2 {
		t.Errorf("%d labels, want insert and lookup", n)
	}
	if s := v.Snapshot()["lookup"]; s.Count != 400 {
		t.Errorf("lookup count = %d", s.Count)
	}
}

// TestCounterVec checks lazy creation and concurrent adds.
func TestCounterVec(t *testing.T) {
	v := NewCounterVec()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				v.Add("ops", 1)
			}
		}()
	}
	wg.Wait()
	if got := v.Snapshot(); len(got) != 1 || got["ops"] != 1000 {
		t.Errorf("snapshot = %v, want ops 1000 and nothing else", got)
	}
}
