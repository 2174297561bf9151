package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repdir/internal/version"
)

// stubVersioned is a scripted Versioned target for session-logic tests.
type stubVersioned struct {
	localVer  version.V
	localVal  string
	quorumVer version.V
	quorumVal string
	writeVer  version.V

	localCalls, quorumCalls int
}

func (d *stubVersioned) LookupV(ctx context.Context, key string) (string, bool, version.V, error) {
	d.quorumCalls++
	return d.quorumVal, true, d.quorumVer, nil
}

func (d *stubVersioned) LocalLookup(ctx context.Context, key string) (string, bool, version.V, error) {
	d.localCalls++
	return d.localVal, true, d.localVer, nil
}

func (d *stubVersioned) UpdateV(ctx context.Context, key, value string) (version.V, error) {
	return d.writeVer, nil
}

func (d *stubVersioned) InsertV(ctx context.Context, key, value string) (version.V, error) {
	return d.writeVer, nil
}

// TestSessionReadYourWrites scripts the floor check: after a write at
// version 5, a local member still at version 3 must NOT serve the read
// — the session falls back to the quorum path.
func TestSessionReadYourWrites(t *testing.T) {
	ctx := context.Background()
	d := &stubVersioned{localVer: 3, localVal: "stale", quorumVer: 5, quorumVal: "fresh", writeVer: 5}
	s := NewSession(d, time.Minute)

	// Write raises the floor to 5 and grants the lease.
	if err := s.Update(ctx, "k", "fresh"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	val, _, err := s.Lookup(ctx, "k")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if val != "fresh" {
		t.Fatalf("read-your-writes violated: got %q from the stale local copy", val)
	}
	if d.localCalls != 1 || d.quorumCalls != 1 {
		t.Errorf("calls local=%d quorum=%d, want the local probe then the fallback", d.localCalls, d.quorumCalls)
	}
	lr, lf := s.Stats()
	if lr != 0 || lf != 1 {
		t.Errorf("stats local=%d fallback=%d, want 0/1", lr, lf)
	}

	// Once the local copy catches up, reads stay local.
	d.localVer, d.localVal = 5, "fresh"
	if val, _, err = s.Lookup(ctx, "k"); err != nil || val != "fresh" {
		t.Fatalf("caught-up local read: %q, %v", val, err)
	}
	lr, _ = s.Stats()
	if lr != 1 {
		t.Errorf("caught-up read not served locally (local=%d)", lr)
	}

	// Monotonic reads: the quorum read advanced the floor to 5; a local
	// copy sliding back below it (impossible for one member, but models
	// a reconfigured target) must not serve.
	d.localVer = 4
	if _, _, err := s.Lookup(ctx, "k"); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if _, lf = s.Stats(); lf != 2 {
		t.Errorf("regressed local copy served (fallbacks=%d, want 2)", lf)
	}
}

// TestSessionLeaseExpiry pins the lease gate: with an expired lease the
// session must not touch the local member at all, and a successful
// quorum read renews the lease.
func TestSessionLeaseExpiry(t *testing.T) {
	ctx := context.Background()
	d := &stubVersioned{localVer: 9, localVal: "v", quorumVer: 9, quorumVal: "v", writeVer: 9}
	s := NewSession(d, 50*time.Millisecond)

	// The lease starts expired: first read is a quorum read.
	if _, _, err := s.Lookup(ctx, "k"); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if d.localCalls != 0 || d.quorumCalls != 1 {
		t.Fatalf("pre-lease calls local=%d quorum=%d", d.localCalls, d.quorumCalls)
	}
	// The quorum read granted the lease: next read is local.
	if _, _, err := s.Lookup(ctx, "k"); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if d.localCalls != 1 {
		t.Fatalf("leased read not local (local=%d)", d.localCalls)
	}
	// Let the lease lapse: back to the quorum path.
	time.Sleep(60 * time.Millisecond)
	if _, _, err := s.Lookup(ctx, "k"); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if d.localCalls != 1 || d.quorumCalls != 2 {
		t.Errorf("post-expiry calls local=%d quorum=%d, want 1/2", d.localCalls, d.quorumCalls)
	}
}

// TestSessionsEndToEnd drives two sessions from four goroutines against
// a real sticky 3-2-2 suite, read-heavy: nothing may error, and local
// reads must dominate, since the sticky local member is in every write
// quorum and so its copy meets every floor.
func TestSessionsEndToEnd(t *testing.T) {
	ctx := context.Background()
	s, _ := newSessionSuite(t)
	const keys, clients, ops = 50, 4, 200
	for i := 0; i < keys; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%03d", i), "v0"); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	sessions := []*Session{NewSession(s, time.Second), NewSession(s, time.Second)}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(sess *Session, rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(keys))
				var err error
				if rng.Intn(20) == 0 {
					err = sess.Update(ctx, key, fmt.Sprintf("u%d", i))
				} else {
					_, _, err = sess.Lookup(ctx, key)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(sessions[c%len(sessions)], rand.New(rand.NewSource(int64(c))))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("session op: %v", err)
	}
	var local, fallbacks uint64
	for _, sess := range sessions {
		lr, lf := sess.Stats()
		local += lr
		fallbacks += lf
	}
	t.Logf("%d local reads, %d quorum fallbacks", local, fallbacks)
	if local == 0 {
		t.Fatal("no lookups served by the local path")
	}
	if local < fallbacks {
		t.Errorf("local path lost to fallbacks (%d local, %d fallback) under sticky quorums", local, fallbacks)
	}
}
