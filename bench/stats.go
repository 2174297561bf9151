package main

import (
	"math"
	"sort"
)

// median of xs; the mean of the two middle values when there are an
// even number. NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile p (0..1) of xs by nearest rank: the smallest value with at
// least p of the samples at or below it. NaN when empty. It sorts xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// windowStats is what one measured window contributes to the medians.
type windowStats struct {
	ok, failed int
	throughput float64           // correct requests per second
	p50        [nOpKinds]float64 // us, NaN where the window has no such request
	writeP50   float64           // update, insert and delete together
	p95        float64           // all requests
}

// windowsOf cuts a block's samples into its windows. A request belongs
// to the window it completed in; requests that completed during warm-up
// or after the last window are dropped.
func windowsOf(b *block) []windowStats {
	type bucket struct {
		ok, failed int
		byKind     [nOpKinds][]float64
		writes     []float64
		all        []float64
	}
	buckets := make([]bucket, b.windows)
	for _, cl := range b.clients {
		for _, s := range cl.samples {
			if s.end < b.from || s.end >= b.to {
				continue
			}
			w := &buckets[(s.end-b.from)/int64(b.window)]
			if s.failed {
				w.failed++
				continue
			}
			w.ok++
			us := float64(s.lat) / 1e3
			w.byKind[s.kind] = append(w.byKind[s.kind], us)
			if s.kind == opUpdate || s.kind == opInsert || s.kind == opDelete {
				w.writes = append(w.writes, us)
			}
			w.all = append(w.all, us)
		}
	}
	out := make([]windowStats, len(buckets))
	for i := range buckets {
		w := &buckets[i]
		out[i] = windowStats{
			ok: w.ok, failed: w.failed,
			throughput: float64(w.ok) / b.window.Seconds(),
			writeP50:   percentile(w.writes, 0.50),
			p95:        percentile(w.all, 0.95),
		}
		for k := range w.byKind {
			out[i].p50[k] = percentile(w.byKind[k], 0.50)
		}
	}
	return out
}

// medianOver is the median over the windows of f, leaving out windows
// where it is not defined.
func medianOver(ws []windowStats, f func(windowStats) float64) float64 {
	var xs []float64
	for _, w := range ws {
		if v := f(w); !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return median(xs)
}
