package quorum

import "testing"

// TestSelectAllocs pins what the selectors promise: a quorum written
// into storage the caller owns, for nothing.
func TestSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ds := dirs(5)
	cfg := NewUniform(ds, 3, 3)
	cfg.Members[4].Witness = true
	grown := NewUniform(ds[1:], 2, 3)
	selectors := map[string]Selector{
		"Random":   NewRandomSelector(cfg, 1),
		"Sticky":   NewStickySelector(cfg),
		"Locality": NewLocalitySelector(cfg, []string{"rep0", "rep1"}),
		"Joint":    NewJointSelector(Joint{Old: cfg, New: grown}, 1),
	}
	for name, sel := range selectors {
		dst := make([]int, 0, len(ds))
		var exclude Set
		exclude.Add(2)
		n := testing.AllocsPerRun(200, func() {
			for _, kind := range []Kind{Read, Write} {
				got, err := sel.Select(kind, exclude, dst)
				if err != nil || len(got) < 2 {
					t.Fatalf("%s: Select = %v, %v", name, got, err)
				}
			}
		})
		if n != 0 {
			t.Errorf("%s: a read and a write selection allocate %.0f times, want 0", name, n)
		}
	}
}
