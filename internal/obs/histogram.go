// Package obs is the metrics layer: fixed log-bucket latency and size
// histograms, and a Prometheus-text exposition registry, all
// stdlib-only (enforced by `make obsdeps`). The package deliberately
// knows nothing about the directory suite — core, transport and the
// binaries register callbacks that read counters they already keep, so
// obs sits at the bottom of the dependency order next to keyspace and
// version. A histogram observation is a handful of atomic adds.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Bucket layout: bound i is 1µs << i, so the finite bounds run
// 1µs, 2µs, 4µs, ... up to ~67s, plus one overflow (+Inf) bucket.
// Powers of two keep bucketFor a single bit-length instruction and give
// a constant relative error of at most 2× — the standard tradeoff of
// log-bucketed latency histograms (HdrHistogram, Prometheus defaults).
const (
	// numFinite is the number of finite bucket bounds.
	numFinite = 27
	// NumBuckets counts all buckets, including the +Inf overflow.
	NumBuckets = numFinite + 1
)

// BucketBound returns the inclusive upper bound of bucket i, or a
// negative duration for the +Inf overflow bucket.
func BucketBound(i int) time.Duration {
	if i < 0 || i >= numFinite {
		return -1
	}
	return time.Microsecond << i
}

// bucketFor maps a duration to its bucket index: the smallest i with
// d <= BucketBound(i), or the overflow bucket. Negative and sub-µs
// durations land in bucket 0.
func bucketFor(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// Ceil to whole microseconds, then take ceil(log2).
	us := uint64((d + time.Microsecond - 1) / time.Microsecond)
	idx := bits.Len64(us - 1)
	if idx >= numFinite {
		return numFinite
	}
	return idx
}

// Histogram is a fixed log-bucket latency histogram. All mutators are
// lock-free atomic adds, so one histogram can absorb observations from
// any number of goroutines. The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	count  atomic.Uint64
	max    atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
	// Track the exact maximum so overflow-bucket quantiles can report a
	// true bound instead of clamping to the largest finite bucket (~67s),
	// which would silently under-report a pathological tail.
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram. Because the
// fields are read individually, a snapshot taken while observations are
// in flight may be off by the observations that landed mid-read; the
// per-bucket counts are each exact.
type HistogramSnapshot struct {
	// Count is the number of observations; Sum their total duration.
	Count uint64
	Sum   time.Duration
	// Max is the largest single observation. It is the value Quantile
	// reports for quantiles that land in the +Inf overflow bucket, so
	// tail verdicts never clamp to the largest finite bound.
	Max time.Duration
	// Counts[i] is the number of observations in bucket i (NOT
	// cumulative; the Prometheus renderer accumulates).
	Counts [NumBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Count = h.count.Load()
	s.Max = time.Duration(h.max.Load())
	return s
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// bound of the bucket the quantile falls in. Quantiles that land in the
// +Inf overflow bucket report the exact observed maximum, never a
// finite bucket bound that would under-state the tail.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	// Ceiling rank: the q-quantile is the smallest observation with at
	// least ceil(q*n) observations at or below it.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Counts[i]
		if cum >= rank {
			if i >= numFinite {
				return s.overflowBound()
			}
			return BucketBound(i)
		}
	}
	return s.overflowBound()
}

// overflowBound is what Quantile reports for the +Inf bucket: the exact
// observed maximum, floored at the largest finite bound for hand-built
// snapshots that populated Counts but not Max (the bucket's own lower
// edge — still never an under-report of where the tail starts).
func (s HistogramSnapshot) overflowBound() time.Duration {
	if last := BucketBound(numFinite - 1); s.Max < last {
		return last
	}
	return s.Max
}

// String renders a compact summary.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50<=%v p99<=%v",
		s.Count, s.Mean().Round(time.Microsecond),
		s.Quantile(0.50), s.Quantile(0.99))
}

// CounterVec is a set of monotonic counters keyed by one label value.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*atomic.Uint64
}

// NewCounterVec builds an empty vector.
func NewCounterVec() *CounterVec {
	return &CounterVec{m: make(map[string]*atomic.Uint64)}
}

// Add increments the label's counter by n.
func (v *CounterVec) Add(label string, n uint64) {
	v.mu.RLock()
	c, ok := v.m[label]
	v.mu.RUnlock()
	if !ok {
		v.mu.Lock()
		if c, ok = v.m[label]; !ok {
			c = &atomic.Uint64{}
			v.m[label] = c
		}
		v.mu.Unlock()
	}
	c.Add(n)
}

// Snapshot copies every label's count.
func (v *CounterVec) Snapshot() map[string]uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]uint64, len(v.m))
	for l, c := range v.m {
		out[l] = c.Load()
	}
	return out
}
