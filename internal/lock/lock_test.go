package lock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repdir/internal/interval"
	"repdir/internal/keyspace"
)

func rng(a, b string) interval.Range {
	return interval.Span(keyspace.New(a), keyspace.New(b))
}

func mustAcquire(t *testing.T, m *Manager, txn TxnID, mode Mode, r interval.Range) {
	t.Helper()
	if err := m.Acquire(context.Background(), txn, mode, r); err != nil {
		t.Fatalf("Acquire(txn=%d, %s, %s): %v", txn, mode, r, err)
	}
}

// TestCompatibilityMatrix checks every cell of Figure 7.
func TestCompatibilityMatrix(t *testing.T) {
	intersecting := rng("c", "f") // intersects [a..d]
	disjoint := rng("x", "z")     // disjoint from [a..d]
	heldRange := rng("a", "d")
	tests := []struct {
		name     string
		reqMode  Mode
		reqRange interval.Range
		heldMode Mode
		want     bool
	}{
		{"Modify vs intersecting Modify", ModeModify, intersecting, ModeModify, false},
		{"Modify vs disjoint Modify", ModeModify, disjoint, ModeModify, true},
		{"Modify vs intersecting Lookup", ModeModify, intersecting, ModeLookup, false},
		{"Modify vs disjoint Lookup", ModeModify, disjoint, ModeLookup, true},
		{"Lookup vs intersecting Modify", ModeLookup, intersecting, ModeModify, false},
		{"Lookup vs disjoint Modify", ModeLookup, disjoint, ModeModify, true},
		{"Lookup vs intersecting Lookup", ModeLookup, intersecting, ModeLookup, true},
		{"Lookup vs disjoint Lookup", ModeLookup, disjoint, ModeLookup, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Compatible(2, tt.reqMode, tt.reqRange, 1, tt.heldMode, heldRange)
			if got != tt.want {
				t.Errorf("Compatible = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSameTransactionAlwaysCompatible(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, ModeModify, rng("a", "m"))
	mustAcquire(t, m, 1, ModeModify, rng("a", "m"))
	mustAcquire(t, m, 1, ModeLookup, rng("b", "c"))
	if got := m.HeldBy(1); got != 3 {
		t.Errorf("HeldBy = %d, want 3", got)
	}
}

func TestDisjointModifiesRunConcurrently(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, ModeModify, rng("a", "c"))
	mustAcquire(t, m, 2, ModeModify, rng("d", "f"))
	mustAcquire(t, m, 3, ModeLookup, rng("g", "i"))
	if m.ActiveTransactions() != 3 {
		t.Error("three disjoint transactions should all hold locks")
	}
}

func TestYoungerRequesterDies(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, ModeModify, rng("a", "z"))
	err := m.Acquire(context.Background(), 2, ModeModify, rng("m", "n"))
	if !errors.Is(err, ErrDie) {
		t.Fatalf("younger conflicting requester got %v, want ErrDie", err)
	}
	err = m.Acquire(context.Background(), 3, ModeLookup, rng("m", "n"))
	if !errors.Is(err, ErrDie) {
		t.Fatalf("younger lookup against modify got %v, want ErrDie", err)
	}
	if s := m.Stats(); s.Dies != 2 {
		t.Errorf("Dies = %d, want 2", s.Dies)
	}
}

func TestOlderRequesterWaitsUntilRelease(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 5, ModeModify, rng("a", "z"))

	acquired := make(chan error, 1)
	go func() {
		acquired <- m.Acquire(context.Background(), 1, ModeModify, rng("m", "n"))
	}()

	select {
	case err := <-acquired:
		t.Fatalf("older transaction should block, returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	m.ReleaseAll(5)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("older transaction should acquire after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("older transaction never acquired after release")
	}
}

func TestWaiterRespectsContext(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 9, ModeModify, rng("a", "z"))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := m.Acquire(ctx, 1, ModeModify, rng("b", "c"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	// The abandoned waiter must not linger.
	m.mu.Lock()
	n := len(m.waiters)
	m.mu.Unlock()
	if n != 0 {
		t.Errorf("%d waiters leaked", n)
	}
}

func TestReleaseAllOnlyDropsOwnLocks(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, ModeLookup, rng("a", "c"))
	mustAcquire(t, m, 2, ModeLookup, rng("a", "c"))
	m.ReleaseAll(1)
	if m.HeldBy(1) != 0 || m.HeldBy(2) != 1 {
		t.Error("ReleaseAll dropped the wrong locks")
	}
	// Releasing a transaction with no locks is a no-op.
	m.ReleaseAll(42)
	if m.HeldBy(2) != 1 {
		t.Error("ReleaseAll of unknown txn disturbed state")
	}
}

// TestReleaseDropsOneLock: Release gives back the granted lock and no
// other of the same transaction, wakes a waiter, and is harmless after
// ReleaseAll has already swept the grant.
func TestReleaseDropsOneLock(t *testing.T) {
	ctx := context.Background()
	m := NewManager()
	mustAcquire(t, m, 5, ModeLookup, rng("a", "c"))
	g, err := m.AcquireOne(ctx, 5, ModeLookup, rng("m", "p"))
	if err != nil {
		t.Fatal(err)
	}
	// An older writer waits for the one-shot lock, and gets through
	// when it — and only it — is released.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 1, ModeModify, rng("n", "o")) }()
	for m.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	m.Release(g)
	if err := <-done; err != nil {
		t.Fatalf("writer after release: %v", err)
	}
	if n := m.HeldBy(5); n != 1 {
		t.Fatalf("transaction 5 holds %d locks after releasing one of two", n)
	}
	if err := m.Acquire(ctx, 9, ModeModify, rng("b", "b")); !errors.Is(err, ErrDie) {
		t.Fatalf("the lock not released no longer conflicts: %v", err)
	}

	g, err = m.AcquireOne(ctx, 5, ModeLookup, rng("x", "z"))
	if err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(5)
	// The swept grant's node is the next lock's now: giving the grant
	// back again must leave that lock alone.
	mustAcquire(t, m, 7, ModeLookup, rng("x", "z"))
	m.Release(g)
	if n := m.HeldBy(7); n != 1 {
		t.Fatalf("a stale grant released the lock that reuses its node: transaction 7 holds %d", n)
	}
	if n := m.ActiveTransactions(); n != 2 { // the writer, txn 1, and txn 7
		t.Fatalf("%d transactions hold locks, want 2", n)
	}
}

func TestInvalidRangeRejected(t *testing.T) {
	m := NewManager()
	bad := interval.Range{Lo: keyspace.New("z"), Hi: keyspace.New("a")}
	if err := m.Acquire(context.Background(), 1, ModeModify, bad); err == nil {
		t.Error("inverted range should be rejected")
	}
}

func TestSharedLookupsThenModifyWaits(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 10, ModeLookup, rng("a", "c"))
	mustAcquire(t, m, 11, ModeLookup, rng("b", "d"))

	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(context.Background(), 2, ModeModify, rng("b", "c"))
	}()
	select {
	case err := <-done:
		t.Fatalf("modify over shared lookups should block, got %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(10)
	select {
	case err := <-done:
		t.Fatalf("modify should still block on second lookup, got %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(11)
	if err := <-done; err != nil {
		t.Fatalf("modify should acquire once all lookups release: %v", err)
	}
}

// TestNoDeadlockUnderRandomLoad hammers the manager with transactions that
// acquire several random ranges and verifies the system always drains:
// wait-die guarantees no cycle, so every goroutine finishes.
func TestNoDeadlockUnderRandomLoad(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	var nextID TxnID
	var idMu sync.Mutex
	newID := func() TxnID {
		idMu.Lock()
		defer idMu.Unlock()
		nextID++
		return nextID
	}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				txn := newID()
			retry:
				ok := true
				for j := 0; j < 3; j++ {
					lo := fmt.Sprintf("%02d", r.Intn(50))
					hi := fmt.Sprintf("%02d", r.Intn(50))
					mode := ModeLookup
					if r.Intn(2) == 0 {
						mode = ModeModify
					}
					err := m.Acquire(context.Background(), txn, mode, rng(lo, hi))
					if errors.Is(err, ErrDie) {
						ok = false
						break
					}
					if err != nil {
						t.Errorf("unexpected error: %v", err)
						ok = false
						break
					}
				}
				m.ReleaseAll(txn)
				if !ok {
					// Retry once with the same ID, as the protocol intends.
					if r.Intn(2) == 0 {
						goto retry
					}
				}
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lock manager deadlocked under random load")
	}
	if m.ActiveTransactions() != 0 {
		t.Error("locks leaked after drain")
	}
}

// TestOldTransactionNeverStarves: under a continuous stream of younger
// contenders, the oldest transaction always gets the lock eventually —
// it never dies (wait-die kills only younger requesters) and waiting
// requesters retry on every release.
func TestOldTransactionNeverStarves(t *testing.T) {
	m := NewManager()
	target := rng("k", "k")

	// Txn 100 currently holds the lock.
	mustAcquire(t, m, 100, ModeModify, target)

	acquired := make(chan error, 1)
	go func() {
		// The oldest transaction in the system wants the lock.
		acquired <- m.Acquire(context.Background(), 1, ModeModify, target)
	}()

	// A stream of young transactions hammers the same lock; each either
	// dies immediately or (after the holder releases) briefly holds it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := TxnID(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			id++
			if err := m.Acquire(context.Background(), id, ModeModify, target); err == nil {
				m.ReleaseAll(id)
			}
		}
	}()

	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(100)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("oldest transaction failed to acquire: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oldest transaction starved")
	}
	m.ReleaseAll(1)
	close(stop)
	wg.Wait()
}

func TestStatsCounters(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, ModeModify, rng("a", "b"))
	mustAcquire(t, m, 2, ModeModify, rng("x", "y"))
	if s := m.Stats(); s.Grants != 2 || s.Waits != 0 || s.Dies != 0 {
		t.Errorf("stats = %+v", s)
	}
}
