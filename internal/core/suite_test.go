package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

func TestNewSuiteValidates(t *testing.T) {
	dirs := []rep.Directory{transport.NewLocal(rep.New("A")), transport.NewLocal(rep.New("B"))}
	tests := []struct {
		name string
		r, w int
		ok   bool
	}{
		{"2-1-2", 1, 2, true},
		{"2-2-1", 2, 1, true},
		{"2-2-2", 2, 2, true},
		{"2-1-1 no intersection", 1, 1, false},
		{"2-0-2 zero read", 0, 2, false},
		{"2-3-2 oversized", 3, 2, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSuite(quorum.NewUniform(dirs, tt.r, tt.w))
			if (err == nil) != tt.ok {
				t.Errorf("NewSuite r=%d w=%d: err = %v, want ok=%v", tt.r, tt.w, err, tt.ok)
			}
		})
	}
}

func TestBasicCRUD(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 7)
	s := ts.suite

	if _, found, err := s.Lookup(ctx, "x"); err != nil || found {
		t.Fatalf("lookup on empty suite = %v, %v", found, err)
	}
	if err := s.Insert(ctx, "x", "v1"); err != nil {
		t.Fatal(err)
	}
	if v, found, err := s.Lookup(ctx, "x"); err != nil || !found || v != "v1" {
		t.Fatalf("lookup after insert = %q, %v, %v", v, found, err)
	}
	if err := s.Insert(ctx, "x", "v2"); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("double insert = %v, want ErrKeyExists", err)
	}
	if err := s.Update(ctx, "x", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Lookup(ctx, "x"); v != "v2" {
		t.Fatalf("lookup after update = %q", v)
	}
	if err := s.Update(ctx, "nope", "v"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("update missing = %v, want ErrKeyNotFound", err)
	}
	if err := s.Delete(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := s.Lookup(ctx, "x"); found {
		t.Fatal("x should be gone")
	}
	if err := s.Delete(ctx, "x"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete = %v, want ErrKeyNotFound", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 7)
	if err := ts.suite.Insert(ctx, "", "v"); err == nil {
		t.Error("empty key insert should fail")
	}
	if _, _, err := ts.suite.Lookup(ctx, ""); err == nil {
		t.Error("empty key lookup should fail")
	}
	if err := ts.suite.Delete(ctx, ""); err == nil {
		t.Error("empty key delete should fail")
	}
	if err := ts.suite.Update(ctx, "", "v"); err == nil {
		t.Error("empty key update should fail")
	}
}

func TestInsertAfterDeleteGetsHigherVersion(t *testing.T) {
	// Reinsertion after deletion must carry a version above the
	// coalesced gap, so stale replicas can never win a lookup.
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 3)
	s := ts.suite
	if err := s.Insert(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Delete(ctx, "k"); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if err := s.Insert(ctx, "k", fmt.Sprintf("v%d", i+2)); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	v, found, err := s.Lookup(ctx, "k")
	if err != nil || !found || v != "v6" {
		t.Fatalf("final lookup = %q, %v, %v", v, found, err)
	}
	// Version on any holder must be at least 6 (5 delete/insert cycles).
	for i := range ts.reps {
		if has, ver := ts.repHas(i, "k"); has && ver < 6 {
			t.Errorf("rep %d holds k at version %d, want >= 6", i, ver)
		}
	}
}

func TestRunInTxnAtomicMultiKey(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 11)
	s := ts.suite

	// A transaction inserting two keys commits both.
	err := s.RunInTxn(ctx, func(tx *Tx) error {
		if err := tx.Insert(ctx, "acct-1", "100"); err != nil {
			return err
		}
		return tx.Insert(ctx, "acct-2", "200")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"acct-1", "acct-2"} {
		if _, found, _ := s.Lookup(ctx, k); !found {
			t.Fatalf("%s missing after committed txn", k)
		}
	}

	// A transaction that fails midway leaves no trace.
	wantErr := errors.New("business rule violated")
	err = s.RunInTxn(ctx, func(tx *Tx) error {
		if err := tx.Insert(ctx, "acct-3", "300"); err != nil {
			return err
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("txn error = %v, want %v", err, wantErr)
	}
	if _, found, _ := s.Lookup(ctx, "acct-3"); found {
		t.Fatal("acct-3 must not exist after aborted txn")
	}
}

func TestReadModifyWriteTransaction(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 13)
	s := ts.suite
	if err := s.Insert(ctx, "counter", "10"); err != nil {
		t.Fatal(err)
	}
	err := s.RunInTxn(ctx, func(tx *Tx) error {
		v, found, err := tx.Lookup(ctx, "counter")
		if err != nil || !found {
			return fmt.Errorf("read counter: %v found=%v", err, found)
		}
		if v != "10" {
			return fmt.Errorf("counter = %q", v)
		}
		return tx.Update(ctx, "counter", "11")
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Lookup(ctx, "counter"); v != "11" {
		t.Fatalf("counter = %q, want 11", v)
	}
}

func TestSurvivesReplicaFailure(t *testing.T) {
	// A 3-2-2 suite tolerates one failed replica for both reads and
	// writes: operations route around it via retry with exclusion.
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 17)
	s := ts.suite
	if err := s.Insert(ctx, "k1", "v1"); err != nil {
		t.Fatal(err)
	}
	ts.locals[0].Partition()
	if v, found, err := s.Lookup(ctx, "k1"); err != nil || !found || v != "v1" {
		t.Fatalf("lookup with A down = %q, %v, %v", v, found, err)
	}
	if err := s.Insert(ctx, "k2", "v2"); err != nil {
		t.Fatalf("insert with A down: %v", err)
	}
	if err := s.Delete(ctx, "k1"); err != nil {
		t.Fatalf("delete with A down: %v", err)
	}
	ts.locals[0].Heal()
	// Healed, A may hold stale data; quorum reads stay correct.
	for i := 0; i < 10; i++ {
		if _, found, err := s.Lookup(ctx, "k1"); err != nil || found {
			t.Fatalf("k1 should stay deleted (attempt %d): %v %v", i, found, err)
		}
		if _, found, err := s.Lookup(ctx, "k2"); err != nil || !found {
			t.Fatalf("k2 should stay present (attempt %d): %v %v", i, found, err)
		}
	}
}

func TestTwoFailuresExhaustQuorum(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 19)
	ts.locals[0].Partition()
	ts.locals[1].Partition()
	err := ts.suite.Insert(ctx, "k", "v")
	if err == nil {
		t.Fatal("insert with two of three replicas down must fail")
	}
	// Reads need 2 votes too.
	if _, _, err := ts.suite.Lookup(ctx, "k"); err == nil {
		t.Fatal("lookup with two of three replicas down must fail")
	}
}

func TestReadOneWriteAllConfig(t *testing.T) {
	// 3-1-3: reads from any single replica, writes unanimous.
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 1, 3, 23)
	s := ts.suite
	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	// Every single replica answers reads correctly.
	for i := range ts.reps {
		if has, _ := ts.repHas(i, "k"); !has {
			t.Errorf("rep %d should hold k under write-all", i)
		}
	}
	// With one replica down, writes are impossible but reads proceed.
	ts.locals[2].Partition()
	if err := s.Insert(ctx, "k2", "v"); err == nil {
		t.Error("write-all insert must fail with a replica down")
	}
	if _, found, err := s.Lookup(ctx, "k"); err != nil || !found {
		t.Errorf("read-one lookup should survive a failure: %v %v", found, err)
	}
}

func TestConcurrentDisjointClients(t *testing.T) {
	// Multiple goroutines operating on disjoint key ranges must all
	// succeed — the per-entry/per-gap versioning admits concurrent
	// modifications that a single-version-number replica would
	// serialize.
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 29)
	s := ts.suite

	const clients = 8
	const opsPer = 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("client%d-key%d", c, i)
				if err := s.Insert(ctx, key, "v"); err != nil {
					errs <- fmt.Errorf("insert %s: %w", key, err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(ctx, key); err != nil {
						errs <- fmt.Errorf("delete %s: %w", key, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Verify final contents.
	for c := 0; c < clients; c++ {
		for i := 0; i < opsPer; i++ {
			key := fmt.Sprintf("client%d-key%d", c, i)
			_, found, err := s.Lookup(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if want := i%3 != 0; found != want {
				t.Errorf("%s found=%v want %v", key, found, want)
			}
		}
	}
}

func TestConcurrentContendingClients(t *testing.T) {
	// Clients hammering the same small key set: wait-die plus retry must
	// drain every operation without deadlock, and the suite must end
	// consistent with some serial order (audited by quorum agreement).
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 31)
	s := ts.suite

	const clients = 6
	var wg sync.WaitGroup
	var failures sync.Map
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("hot-%d", rng.Intn(4))
				var err error
				switch rng.Intn(3) {
				case 0:
					err = s.Insert(ctx, key, "v")
					if errors.Is(err, ErrKeyExists) {
						err = nil
					}
				case 1:
					err = s.Delete(ctx, key)
					if errors.Is(err, ErrKeyNotFound) {
						err = nil
					}
				case 2:
					_, _, err = s.Lookup(ctx, key)
				}
				if err != nil {
					failures.Store(fmt.Sprintf("%d-%d", seed, i), err)
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
	failures.Range(func(k, v any) bool {
		t.Errorf("operation %v failed: %v", k, v)
		return true
	})
	// Post-condition: all read quorums agree on every hot key.
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("hot-%d", i)
		first, firstFound, err := s.Lookup(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 10; rep++ {
			v, found, err := s.Lookup(ctx, key)
			if err != nil || found != firstFound || v != first {
				t.Fatalf("inconsistent lookups for %s: (%q,%v) vs (%q,%v) err=%v",
					key, first, firstFound, v, found, err)
			}
		}
	}
}

// TestRandomizedOracle runs a long single-threaded random workload
// against a 5-3-3 suite with random quorums, shadowing every operation in
// a plain map, and audits agreement after every operation.
func TestRandomizedOracle(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C", "D", "E"}, 3, 3, 37)
	s := ts.suite
	rng := rand.New(rand.NewSource(99))
	oracle := make(map[string]string)

	for step := 0; step < 400; step++ {
		key := fmt.Sprintf("k%02d", rng.Intn(30))
		switch rng.Intn(4) {
		case 0:
			err := s.Insert(ctx, key, key+"-v")
			_, exists := oracle[key]
			if exists && !errors.Is(err, ErrKeyExists) {
				t.Fatalf("step %d: insert existing %s = %v", step, key, err)
			}
			if !exists {
				if err != nil {
					t.Fatalf("step %d: insert %s: %v", step, key, err)
				}
				oracle[key] = key + "-v"
			}
		case 1:
			val := fmt.Sprintf("%s-u%d", key, step)
			err := s.Update(ctx, key, val)
			_, exists := oracle[key]
			if !exists && !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("step %d: update missing %s = %v", step, key, err)
			}
			if exists {
				if err != nil {
					t.Fatalf("step %d: update %s: %v", step, key, err)
				}
				oracle[key] = val
			}
		case 2:
			err := s.Delete(ctx, key)
			_, exists := oracle[key]
			if !exists && !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("step %d: delete missing %s = %v", step, key, err)
			}
			if exists {
				if err != nil {
					t.Fatalf("step %d: delete %s: %v", step, key, err)
				}
				delete(oracle, key)
			}
		case 3:
			v, found, err := s.Lookup(ctx, key)
			if err != nil {
				t.Fatalf("step %d: lookup %s: %v", step, key, err)
			}
			want, exists := oracle[key]
			if found != exists || (found && v != want) {
				t.Fatalf("step %d: lookup %s = (%q,%v), oracle (%q,%v)",
					step, key, v, found, want, exists)
			}
		}
	}
	// Final audit of every key the oracle ever saw.
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%02d", i)
		v, found, err := s.Lookup(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		want, exists := oracle[key]
		if found != exists || (found && v != want) {
			t.Errorf("final: %s = (%q,%v), oracle (%q,%v)", key, v, found, want, exists)
		}
	}
}

// TestVersionedOps pins the version-returning variants: versions start
// above the gap version and advance by one per write, and LookupV
// reports the same version the write returned.
func TestVersionedOps(t *testing.T) {
	ctx := context.Background()
	dirs := make([]rep.Directory, 3)
	for i, n := range []string{"rep0", "rep1", "rep2"} {
		dirs[i] = transport.NewLocal(rep.New(n))
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewStickySelector(cfg)))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}

	v1, err := s.InsertV(ctx, "a", "1")
	if err != nil {
		t.Fatalf("InsertV: %v", err)
	}
	v2, err := s.UpdateV(ctx, "a", "2")
	if err != nil {
		t.Fatalf("UpdateV: %v", err)
	}
	if v2 != v1.Next() {
		t.Errorf("update version %v, want %v", v2, v1.Next())
	}
	val, found, vr, err := s.LookupV(ctx, "a")
	if err != nil || !found || val != "2" {
		t.Fatalf("LookupV = %q, %v, %v", val, found, err)
	}
	if vr != v2 {
		t.Errorf("LookupV version %v, want %v", vr, v2)
	}
	// A missing key reports found=false with the winning gap version.
	_, found, gv, err := s.LookupV(ctx, "zzz")
	if err != nil || found {
		t.Fatalf("LookupV missing = %v, %v", found, err)
	}
	if gv < version.Lowest {
		t.Errorf("gap version %v", gv)
	}
	if _, err := s.InsertV(ctx, "a", "x"); !errors.Is(err, ErrKeyExists) {
		t.Errorf("InsertV existing: %v", err)
	}
	if _, err := s.UpdateV(ctx, "zzz", "x"); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("UpdateV missing: %v", err)
	}
}
