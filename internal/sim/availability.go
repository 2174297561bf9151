package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// AvailabilityResult is the measured fraction of read and write
// operations that succeeded against a live suite whose replicas fail
// independently, alongside the exact analytic prediction.
type AvailabilityResult struct {
	Replicas int
	R, W     int
	// P is the per-replica up-probability.
	P float64
	// Trials is the number of fail/attempt rounds.
	Trials int
	// MeasuredRead / MeasuredWrite are success fractions of real Lookup
	// and Update operations.
	MeasuredRead  float64
	MeasuredWrite float64
}

// RunAvailabilityEmpirical measures operation availability end-to-end:
// in each trial every replica is independently partitioned with probability
// 1-p, then one Lookup and one Update are attempted through the real
// suite machinery (quorum selection, retry with exclusion, two-phase
// commit). This validates the analytic quorum probabilities of package
// availability against the implementation rather than against the
// formula's own assumptions.
func RunAvailabilityEmpirical(n, r, w int, p float64, trials int, seed int64) (AvailabilityResult, error) {
	ctx := context.Background()
	res := AvailabilityResult{Replicas: n, R: r, W: w, P: p, Trials: trials}

	reps := make([]*transport.Local, n)
	dirs := make([]rep.Directory, n)
	for i := range dirs {
		reps[i] = transport.NewLocal(rep.New(fmt.Sprintf("rep%d", i)))
		dirs[i] = reps[i]
	}
	cfg := quorum.NewUniform(dirs, r, w)
	suite, err := core.NewSuite(cfg,
		core.WithSelector(quorum.NewRandomSelector(cfg, seed+1)),
		core.WithMaxRetries(4*n))
	if err != nil {
		return res, err
	}
	// Seed one entry while everything is up.
	if err := suite.Insert(ctx, "probe", "0"); err != nil {
		return res, err
	}

	rng := rand.New(rand.NewSource(seed))
	readOK, writeOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		for _, l := range reps {
			if rng.Float64() < p {
				l.Heal()
			} else {
				l.Partition()
			}
		}
		if _, found, err := suite.Lookup(ctx, "probe"); err == nil && found {
			readOK++
		} else if err == nil && !found {
			return res, errors.New("sim: probe entry vanished")
		}
		if err := suite.Update(ctx, "probe", fmt.Sprintf("%d", trial)); err == nil {
			writeOK++
		}
	}
	for _, l := range reps {
		l.Heal()
	}
	res.MeasuredRead = float64(readOK) / float64(trials)
	res.MeasuredWrite = float64(writeOK) / float64(trials)
	return res, nil
}
