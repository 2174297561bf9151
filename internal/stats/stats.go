// Package stats provides the streaming accumulators used to reproduce the
// paper's simulation tables (Figures 14 and 15): average, maximum, and
// standard deviation of per-operation statistics.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes running mean, maximum, and population standard
// deviation using Welford's online algorithm. The zero value is ready to
// use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	max  float64
	min  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.max = x
		a.min = x
	} else {
		if x > a.max {
			a.max = x
		}
		if x < a.min {
			a.min = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Count returns the number of observations recorded.
func (a *Accumulator) Count() int64 { return a.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.mean
}

// Max returns the largest observation, or 0 with no observations.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// Min returns the smallest observation, or 0 with no observations.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// StdDev returns the population standard deviation, or 0 with fewer than
// two observations.
func (a *Accumulator) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// Summary is a frozen snapshot of an Accumulator, convenient for tables.
type Summary struct {
	Count  int64
	Avg    float64
	Max    float64
	StdDev float64
}

// Summarize returns a snapshot of the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{
		Count:  a.Count(),
		Avg:    a.Mean(),
		Max:    a.Max(),
		StdDev: a.StdDev(),
	}
}

// String renders the summary the way the paper's Figure 15 prints rows:
// "avg max stddev".
func (s Summary) String() string {
	return fmt.Sprintf("%.2f %.0f %.2f", s.Avg, s.Max, s.StdDev)
}
