package rep

import (
	"fmt"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/version"
)

// TestCallAllocs pins what a representative's two commonest calls cost
// in allocations: a one-shot Lookup nothing — the lock's node, the
// table's slot and the answer are all storage that exists — and an
// Insert with its Commit, on a representative without a log, no more
// than the tree and the outcome map grow by.
func TestCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const keys = 4096
	r := New("allocs")
	ks := make([]keyspace.Key, keys)
	for i := range ks {
		ks[i] = keyspace.New(fmt.Sprintf("k%06d", i))
	}
	id := lock.TxnID(1)
	insert := func(ver version.V) func() {
		i := 0
		return func() {
			id++
			i++
			if err := r.Insert(ctx, id, ks[i%keys], ver, "v"); err != nil {
				t.Fatal(err)
			}
			if err := r.Commit(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(keys-1, insert(1)); n > 3 {
		t.Errorf("Insert + Commit of a new key allocates %.0f times, want at most 3", n)
	} else {
		t.Logf("Insert + Commit of a new key: %.0f allocations", n)
	}
	if n := testing.AllocsPerRun(keys, insert(2)); n > 3 {
		t.Errorf("Insert + Commit over an entry allocates %.0f times, want at most 3", n)
	} else {
		t.Logf("Insert + Commit over an entry: %.0f allocations", n)
	}
	oneShot := MarkOneShot(ctx)
	i := 0
	lookup := func() {
		id++
		i++
		if res, err := r.Lookup(oneShot, id, ks[i%keys]); err != nil || !res.Found {
			t.Fatalf("Lookup = %+v, %v", res, err)
		}
	}
	if n := testing.AllocsPerRun(1000, lookup); n != 0 {
		t.Errorf("a one-shot Lookup allocates %.0f times, want 0", n)
	}
}
