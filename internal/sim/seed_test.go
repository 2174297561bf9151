package sim

import "testing"

// TestZeroSeedPreserved is the regression test for the seed-coercion
// bug: withDefaults used to rewrite Seed 0 to Seed 1 in several
// experiment configs, so `-seed 0` silently reran seed 1 and the zero
// seed — a perfectly good rng seed, and the zero value a caller gets by
// not thinking about it — was unreplayable as itself. Defaults must
// never touch the seed.
func TestZeroSeedPreserved(t *testing.T) {
	if got := (TrafficConfig{}).withDefaults().Seed; got != 0 {
		t.Errorf("TrafficConfig zero seed coerced to %d", got)
	}
	if got := (StorageConfig{}).withDefaults().Seed; got != 0 {
		t.Errorf("StorageConfig zero seed coerced to %d", got)
	}
	if got := (HealConfig{}).withDefaults().Seed; got != 0 {
		t.Errorf("HealConfig zero seed coerced to %d", got)
	}
	// Non-zero seeds pass through untouched too.
	if got := (TrafficConfig{Seed: 42}).withDefaults().Seed; got != 42 {
		t.Errorf("seed 42 rewritten to %d", got)
	}
}
