// Package model is a simple analytic model of the replication
// algorithm's deletion overheads, in the spirit of the paper's remark
// that "initial work on an analytical treatment indicates that we can
// obtain similar results from simple analytic models" (section 5; the
// authors credit Joshua Bloch with the analytic model, which was never
// published — this is an independent reconstruction).
//
// The model tracks the "coverage" H of a directory entry: the number of
// representatives physically holding a copy. For an x-y-z suite with
// uniformly random quorums:
//
//   - An entry is born with H = W copies (its insert write quorum).
//   - Every suite deletion consumes one victim and two bounds (the real
//     predecessor and successor), so of the three entry-events a delete
//     generates, two are bound-servings and one is a death: an entry's
//     events are bound-servings with probability 2/3 and its death with
//     probability 1/3, independent of configuration.
//   - Serving as a bound copies the entry to every member of the
//     delete's write quorum, so H becomes |holders ∪ quorum| — a
//     hypergeometric-union Markov transition.
//
// With q = P(event is a serving) = 2/3, the coverage at a random event
// is distributed as the chain run for a Geometric(1/3) number of steps.
// Writing H* for its mean, steady-state balance gives first-order
// predictions for the paper's three statistics:
//
//	D  =  H* (n−W)/n            ghosts created per delete = destroyed
//	I  =  2 W (1 − H*/n)        bound copies missing from quorum members
//	E  =  H*/n + D/W            victim presence + ghosts per member
//
// The model treats quorum choices as independent of holder sets; in the
// implementation they are positively correlated (a key's holders were
// themselves write quorums), so the model slightly overestimates I. For
// the paper's 3-2-2 configuration it predicts E = 1.29, D = 0.86,
// I = 0.57 against measured 1.32 / 0.88 / 0.48. For write-all (W = n) it
// is exact: E = 1, D = I = 0.
package model

import (
	"fmt"
	"math"
)

// servingProbability is the chance that an event touching an entry is a
// bound-serving rather than the entry's own deletion: each suite delete
// involves two bounds and one victim.
const servingProbability = 2.0 / 3.0

// Prediction holds the model's outputs for one suite configuration.
type Prediction struct {
	// N, R, W echo the configuration.
	N, R, W int
	// ExpectedCoverage is H*: the mean number of replicas holding a
	// current entry at a random entry-event.
	ExpectedCoverage float64
	// EntriesCoalesced, GhostDeletions, and Insertions predict the
	// averages of the paper's E, D, and I statistics.
	EntriesCoalesced float64
	GhostDeletions   float64
	Insertions       float64
	// WalkSteps predicts the average number of iterations of each
	// RealPredecessor/RealSuccessor search (Figure 12): one iteration
	// plus one per ghost key surfaced by the read quorum. Per quorum
	// member, the coalesced range holds D/W ghost copies on average,
	// split evenly between the two directional walks; summing over the
	// R members gives 1 + R·D/(2W). Ghost keys replicated on several
	// quorum members are counted once by the walk but multiple times by
	// this sum, so the prediction is an upper estimate, tight when
	// ghosts rarely have more than one copy (W close to n).
	WalkSteps float64
}

// String renders the prediction like a Figure 14 column.
func (p Prediction) String() string {
	return fmt.Sprintf("%d-%d-%d: E=%.2f D=%.2f I=%.2f (H*=%.2f)",
		p.N, p.R, p.W, p.EntriesCoalesced, p.GhostDeletions, p.Insertions, p.ExpectedCoverage)
}

// Predict evaluates the model for an x-y-z configuration with uniform
// votes and uniformly random quorum selection.
func Predict(n, r, w int) (Prediction, error) {
	if n < 1 || r < 1 || w < 1 || r > n || w > n {
		return Prediction{}, fmt.Errorf("model: bad configuration %d-%d-%d", n, r, w)
	}
	if r+w <= n {
		return Prediction{}, fmt.Errorf("model: %d-%d-%d violates quorum intersection", n, r, w)
	}
	hStar := expectedCoverage(n, w)
	d := hStar * float64(n-w) / float64(n)
	i := 2 * float64(w) * (1 - hStar/float64(n))
	e := hStar/float64(n) + d/float64(w)
	return Prediction{
		N: n, R: r, W: w,
		ExpectedCoverage: hStar,
		EntriesCoalesced: e,
		GhostDeletions:   d,
		Insertions:       i,
		WalkSteps:        1 + float64(r)*d/(2*float64(w)),
	}, nil
}

// expectedCoverage computes H*: the mean coverage at a random
// entry-event, mixing the coverage Markov chain over a geometric number
// of bound-serving steps.
func expectedCoverage(n, w int) float64 {
	// dist[h] = probability the entry is held by exactly h replicas.
	dist := make([]float64, n+1)
	dist[w] = 1

	total := 0.0
	weightRemaining := 1.0
	const eps = 1e-12
	for step := 0; weightRemaining > eps && step < 10000; step++ {
		// Probability that the entry's death happens at exactly this
		// event index: (1-q) q^step.
		weight := (1 - servingProbability) * math.Pow(servingProbability, float64(step))
		total += weight * mean(dist)
		weightRemaining -= weight
		dist = transition(dist, n, w)
	}
	// Residual mass: the chain has (nearly) absorbed at h = n.
	total += weightRemaining * float64(n)
	return total
}

// transition applies one bound-serving: holders become the union of the
// current holders and a uniformly random W-subset of the n replicas.
func transition(dist []float64, n, w int) []float64 {
	next := make([]float64, n+1)
	for h, p := range dist {
		if p == 0 {
			continue
		}
		// overlap o between the holder set (size h) and the quorum
		// (size w) is hypergeometric; the union has h + w - o members.
		for o := max(0, h+w-n); o <= min(h, w); o++ {
			ph := hypergeom(n, h, w, o)
			next[h+w-o] += p * ph
		}
	}
	return next
}

// hypergeom returns P[overlap = o] when drawing w of n items, h of which
// are marked: C(h,o) C(n-h, w-o) / C(n, w).
func hypergeom(n, h, w, o int) float64 {
	return math.Exp(lchoose(h, o) + lchoose(n-h, w-o) - lchoose(n, w))
}

// lchoose is log C(a, b); -Inf when the term is impossible.
func lchoose(a, b int) float64 {
	if b < 0 || b > a {
		return math.Inf(-1)
	}
	la, _ := math.Lgamma(float64(a + 1))
	lb, _ := math.Lgamma(float64(b + 1))
	lab, _ := math.Lgamma(float64(a - b + 1))
	return la - lb - lab
}

// mean computes the expectation of a distribution over indices.
func mean(dist []float64) float64 {
	m := 0.0
	for h, p := range dist {
		m += float64(h) * p
	}
	return m
}
