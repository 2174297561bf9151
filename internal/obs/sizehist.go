package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// SizeHistogram is the unitless sibling of Histogram: fixed log-2
// buckets over non-negative integer observations (bytes per frame,
// messages per batch, entries per page). Bucket i's inclusive upper
// bound is 1<<i, so the finite bounds run 1, 2, 4, ... 2^26, plus one
// +Inf overflow bucket — the same constant-relative-error tradeoff the
// latency histograms make, reusing NumBuckets. All mutators are
// lock-free atomic adds; the zero value is ready to use.
type SizeHistogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
	count  atomic.Uint64
}

// SizeBucketBound returns the inclusive upper bound of bucket i, or a
// negative value for the +Inf overflow bucket.
func SizeBucketBound(i int) int64 {
	if i < 0 || i >= numFinite {
		return -1
	}
	return 1 << i
}

// sizeBucketFor maps n to the smallest bucket whose bound holds it.
func sizeBucketFor(n uint64) int {
	if n <= 1 {
		return 0
	}
	idx := bits.Len64(n - 1)
	if idx >= numFinite {
		return numFinite
	}
	return idx
}

// Observe records one value.
func (h *SizeHistogram) Observe(n uint64) {
	h.counts[sizeBucketFor(n)].Add(1)
	h.sum.Add(n)
	h.count.Add(1)
}

// SizeSnapshot is a point-in-time copy of a SizeHistogram.
type SizeSnapshot struct {
	// Count is the number of observations; Sum their total value.
	Count uint64
	Sum   uint64
	// Counts[i] is the number of observations in bucket i (not
	// cumulative).
	Counts [NumBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *SizeHistogram) Snapshot() SizeSnapshot {
	var s SizeSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Mean returns the average observed value.
func (s SizeSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// bound of the bucket the quantile falls in. Observations in the
// overflow bucket report the largest finite bound.
func (s SizeSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Counts[i]
		if cum >= rank {
			if i >= numFinite {
				return SizeBucketBound(numFinite - 1)
			}
			return SizeBucketBound(i)
		}
	}
	return SizeBucketBound(numFinite - 1)
}

// String renders a compact summary.
func (s SizeSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p99<=%d",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.99))
}

// SizeSample is one labeled size histogram of a registered family.
type SizeSample struct {
	Labels []string
	Snap   SizeSnapshot
}

// SizeHistogramVec registers a labeled unitless histogram family, the
// only histogram kind the registry renders: cumulative buckets with
// integer le bounds (bytes, counts), then _sum and _count.
func (r *Registry) SizeHistogramVec(name, help string, labels []string, fn func() []SizeSample) {
	r.add(family{name: name, help: help, kind: "histogram", labels: labels, collectSize: fn})
}
