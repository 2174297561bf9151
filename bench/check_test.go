package main

import (
	"context"
	"testing"
	"time"

	"repdir/internal/core"
)

var checkSpec = spec{shards: 1, keys: 64, clients: 2, mix: [nOpKinds]int{opLookup: 40, opUpdate: 30, opInsert: 15, opDelete: 15}}

func TestCheckLookup(t *testing.T) {
	vals := makeValues()
	st := newStripe(checkSpec, 0)
	stable, churn := 2, 0 // keys of client 0: stripe positions 1 and 0
	if checkSpec.isChurn(stable) || !checkSpec.isChurn(churn) || checkSpec.owner(stable) != 0 {
		t.Fatal("the test's idea of the key layout is wrong")
	}
	ok := func(err error, what string) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: rejected: %v", what, err)
		}
	}
	bad := func(err error, what string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	ok(st.checkLookup(stable, preloadValue, true, vals), "preloaded value")
	bad(st.checkLookup(stable, vals[3], true, vals), "a value nobody wrote")
	bad(st.checkLookup(stable, "", false, vals), "own key missing")

	st.wrote(op{kind: opUpdate, key: uint32(stable), val: 7})
	ok(st.checkLookup(stable, vals[7], true, vals), "last write")
	bad(st.checkLookup(stable, preloadValue, true, vals), "stale read of the preloaded value")
	st.wrote(op{kind: opUpdate, key: uint32(stable), val: 8})
	bad(st.checkLookup(stable, vals[7], true, vals), "stale read of the write before last")

	del := st.resolve(op{kind: opDelete})
	if int(del.key) != churn || del.kind != opDelete {
		t.Fatalf("resolved delete = %+v, want key %d", del, churn)
	}
	st.wrote(del)
	ok(st.checkLookup(churn, "", false, vals), "deleted key absent")
	bad(st.checkLookup(churn, preloadValue, true, vals), "deleted key still found")
	ins := st.resolve(op{kind: opInsert, val: 9})
	if ins.key != del.key {
		t.Fatalf("insert went to key %d, want the deleted key %d", ins.key, del.key)
	}
	st.wrote(ins)
	bad(st.checkLookup(churn, "", false, vals), "reinserted key missing")
	ok(st.checkLookup(churn, vals[9], true, vals), "reinserted key")

}

func TestCheckLookupForeignChurnKey(t *testing.T) {
	st := newStripe(checkSpec, 0)
	vals := makeValues()
	foreignChurn := 1 + 2*2 // client 1, stripe position 2
	foreignStable := 1      // client 1, stripe position 0
	if err := st.checkLookup(foreignChurn, "", false, vals); err != nil {
		t.Errorf("another client's churn key may be absent: %v", err)
	}
	if err := st.checkLookup(foreignStable, "", false, vals); err == nil {
		t.Error("another client's stable key must be found")
	}
	if err := st.checkLookup(foreignStable, "whatever", true, vals); err != nil {
		t.Errorf("another client's stable key may hold any value: %v", err)
	}
}

func TestCheckScan(t *testing.T) {
	kv := func(keys ...string) []core.KV {
		out := make([]core.KV, len(keys))
		for i, k := range keys {
			out[i].Key = k
		}
		return out
	}
	for _, c := range []struct {
		name  string
		kvs   []core.KV
		limit int
		ok    bool
	}{
		{"ascending after the start", kv("k2", "k3", "k5"), 3, true},
		{"empty", nil, 3, true},
		{"out of order", kv("k2", "k5", "k3"), 3, false},
		{"repeated", kv("k2", "k2"), 3, false},
		{"includes the start key", kv("k1", "k2"), 3, false},
		{"before the start key", kv("k0"), 3, false},
		{"over the limit", kv("k2", "k3", "k4", "k5"), 3, false},
	} {
		if err := checkScan("k1", c.limit, c.kvs); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}

func TestCheckCount(t *testing.T) {
	a, b := newStripe(checkSpec, 0), newStripe(checkSpec, 1)
	a.wrote(a.resolve(op{kind: opDelete}))
	stripes := []*stripe{a, b}
	if err := checkCount(63, 64, stripes); err != nil {
		t.Errorf("right count rejected: %v", err)
	}
	if err := checkCount(64, 64, stripes); err == nil {
		t.Error("a count that includes the deleted key was accepted")
	}
}

// staleDir answers every third lookup of a key it has seen updated with
// the preloaded value.
type staleDir struct {
	directory
	updated map[string]bool
	n       int
}

func (s *staleDir) Update(ctx context.Context, key, value string) error {
	s.updated[key] = true
	return s.directory.Update(ctx, key, value)
}

func (s *staleDir) Lookup(ctx context.Context, key string) (string, bool, error) {
	if s.updated[key] {
		if s.n++; s.n%3 == 0 {
			return preloadValue, true, nil
		}
	}
	return s.directory.Lookup(ctx, key)
}

func (s *staleDir) Count(ctx context.Context) (int, error) {
	n, err := s.directory.Count(ctx)
	return n + 1, err
}

// The driver must count a planted stale read as a failed request and a
// wrong Count as an incorrect run.
func TestDriverCatchesPlantedFaults(t *testing.T) {
	sp := spec{name: "planted", shards: 1, keys: 16, clients: 1, mix: [nOpKinds]int{opLookup: 50, opUpdate: 50}}
	keys, vals := makeKeys(sp.keys), makeValues()
	d, err := deploy(sp, keys, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.dir = &staleDir{directory: d.dir, updated: make(map[string]bool)}
	b := runBlock(d, keys, vals, 1, 0, 50*time.Millisecond, 2, true)
	res := result{Correct: true}
	res.tally(b, windowsOf(b))
	if res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("%d of %d requests failed; the stale reads, and only they, should", res.Failed, res.Attempted)
	}
	if b.clients[0].firstErr == nil {
		t.Error("no error kept for the report")
	}
	if b.countErr == nil || res.Correct {
		t.Errorf("wrong Count not caught: %v", b.countErr)
	}
}
