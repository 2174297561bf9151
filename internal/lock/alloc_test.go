package lock

import (
	"context"
	"testing"

	"repdir/internal/interval"
	"repdir/internal/keyspace"
)

// TestUncontendedAllocs pins the free-listed table: once a node and a
// map slot exist, taking and giving back an uncontended lock allocates
// nothing, whichever way it is given back.
func TestUncontendedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := NewManager()
	ctx := context.Background()
	rng := interval.Point(keyspace.New("k"))
	var id TxnID
	all := func() {
		id++
		if err := m.Acquire(ctx, id, ModeModify, rng); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(id)
	}
	one := func() {
		id++
		g, err := m.AcquireOne(ctx, id, ModeLookup, rng)
		if err != nil {
			t.Fatal(err)
		}
		m.Release(g)
	}
	for name, f := range map[string]func(){"Acquire + ReleaseAll": all, "AcquireOne + Release": one} {
		f()
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s allocates %.0f times, want 0", name, n)
		}
	}
}
