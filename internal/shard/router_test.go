package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repdir/internal/core"
	"repdir/internal/transport"
)

func TestRouterValidation(t *testing.T) {
	m, err := NewMap("m")
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := newShardSuite(t, 0, 1)

	// Wrong suite count.
	if _, err := NewRouter(m, []*core.Suite{s0}); err == nil {
		t.Fatal("router accepted one suite for two shards")
	}

	// Duplicate representative names across shards.
	dup0, _ := newShardSuite(t, 7, 1)
	dup1, _ := newShardSuite(t, 7, 2)
	if _, err := NewRouter(m, []*core.Suite{dup0, dup1}); err == nil {
		t.Fatal("router accepted duplicate member names across shards")
	}
}

func TestRouterPointOpRouting(t *testing.T) {
	r, _ := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()

	if err := r.Insert(ctx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(ctx, "x", "2"); err != nil {
		t.Fatal(err)
	}
	// The split key itself routes to the right shard.
	if err := r.Insert(ctx, "m", "3"); err != nil {
		t.Fatal(err)
	}

	// Each key landed in exactly its owning suite.
	if n, err := r.suite(0).Count(ctx); err != nil || n != 1 {
		t.Fatalf("shard 0 count = (%d, %v), want 1", n, err)
	}
	if n, err := r.suite(1).Count(ctx); err != nil || n != 2 {
		t.Fatalf("shard 1 count = (%d, %v), want 2", n, err)
	}

	if v, found, err := r.Lookup(ctx, "m"); err != nil || !found || v != "3" {
		t.Fatalf("Lookup(m) = (%q, %v, %v)", v, found, err)
	}
	if err := r.Update(ctx, "a", "1b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if _, found, err := r.Lookup(ctx, "x"); err != nil || found {
		t.Fatalf("Lookup(x) after delete = (%v, %v)", found, err)
	}
	if _, _, err := r.Lookup(ctx, ""); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestRouterVersionedOps pins the version-returning point ops through a
// router: each reaches the owning shard's suite and reports the version
// that suite holds.
func TestRouterVersionedOps(t *testing.T) {
	r, _ := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()

	v, err := r.InsertV(ctx, "x", "1")
	if err != nil {
		t.Fatal(err)
	}
	if val, found, got, err := r.suite(1).LookupV(ctx, "x"); err != nil || !found || val != "1" || got != v {
		t.Fatalf("owner LookupV(x) = (%q, %v, %v, %v), want (1, true, %v)", val, found, got, err, v)
	}
	if u, err := r.UpdateV(ctx, "x", "2"); err != nil || u != v.Next() {
		t.Fatalf("UpdateV(x) = (%v, %v), want %v", u, err, v.Next())
	}
	g, err := r.DeleteV(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, found, got, err := r.LookupV(ctx, "x"); err != nil || found || got != g {
		t.Fatalf("LookupV(x) after delete = (%v, %v, %v), want not found at %v", found, got, err, g)
	}
}

func TestRouterStatsAndMetrics(t *testing.T) {
	r, _ := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()
	for _, k := range []string{"a", "b", "x", "y"} {
		if err := r.Insert(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Scan(ctx, "", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Count(ctx); err != nil {
		t.Fatal(err)
	}
	// Both the scan and the count touched both shards.
	st := r.Stats()
	if st.CrossShard != 2 {
		t.Fatalf("cross-shard txns = %d, want 2", st.CrossShard)
	}
	if st.Fanout["2"] != 2 {
		t.Fatalf("fanout stats: %v", st.Fanout)
	}
}

// TestRouterRetriesAroundCrashedReplica: losing a minority replica in
// one shard must not fail point ops or stitched traversals.
func TestRouterRetriesAroundCrashedReplica(t *testing.T) {
	r, locals := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()
	for _, k := range []string{"a", "b", "x", "y"} {
		if err := r.Insert(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	locals[0][0].Partition()
	defer locals[0][0].Heal()

	if _, _, err := r.Lookup(ctx, "a"); err != nil {
		t.Fatalf("lookup with crashed minority: %v", err)
	}
	out, err := r.Scan(ctx, "", 0)
	if err != nil {
		t.Fatalf("scan with crashed minority: %v", err)
	}
	if len(out) != 4 {
		t.Fatalf("scan = %v, want 4 entries", out)
	}
	if n, err := r.Count(ctx); err != nil || n != 4 {
		t.Fatalf("count with crashed minority = (%d, %v), want 4", n, err)
	}
}

// TestRouterSurfacesDownShard: when a whole shard loses its quorum, an
// ordered traversal that needs it must fail loudly, never skip it.
func TestRouterSurfacesDownShard(t *testing.T) {
	r, locals := newTestRouter(t, []string{"m"}, 1)
	ctx := context.Background()
	for _, k := range []string{"a", "x"} {
		if err := r.Insert(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range locals[1] {
		l.Partition()
	}

	if _, err := r.Scan(ctx, "", 0); err == nil {
		t.Fatal("scan with shard 1 down returned no error")
	}
	if _, err := r.Count(ctx); err == nil {
		t.Fatal("count with shard 1 down returned no error")
	}
	// A one-entry scan from "b" finds nothing left in shard 0 and falls
	// through to shard 1: it must error, not return an empty page.
	if got, err := r.Scan(ctx, "b", 1); err == nil {
		t.Fatalf("one-entry scan with shard 1 down = %v, want error", got)
	}
	// But operations confined to the healthy shard still work.
	if v, found, err := r.Lookup(ctx, "a"); err != nil || !found || v != "v" {
		t.Fatalf("lookup in healthy shard = (%q, %v, %v)", v, found, err)
	}
	if out, err := r.ScanRange(ctx, "", "m", 0); err != nil || len(out) != 1 {
		t.Fatalf("range scan confined to healthy shard = (%v, %v)", out, err)
	}
}

// TestRouterRetriesExhaustedKeepsCause: a router transaction that runs
// out of attempts reports both ErrRetriesExhausted and the error that
// failed its last attempt.
func TestRouterRetriesExhaustedKeepsCause(t *testing.T) {
	r, locals := newTestRouter(t, []string{"m"}, 1, WithMaxRetries(0))
	ctx := context.Background()
	if err := r.Insert(ctx, "a", "v"); err != nil {
		t.Fatal(err)
	}
	// Two of shard 0's three members down: every read quorum meets one.
	locals[0][0].Partition()
	locals[0][1].Partition()
	_, err := r.Scan(ctx, "", 0)
	if !errors.Is(err, core.ErrRetriesExhausted) || !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("scan with shard 0 down = %v, want ErrRetriesExhausted wrapping ErrUnavailable", err)
	}
}

// TestManyShards exercises a wider fanout than the usual two.
func TestManyShards(t *testing.T) {
	splits := []string{"k10", "k20", "k30", "k40", "k50", "k60", "k70"}
	p := newPair(t, splits, 9)
	var probes []string
	for i := 0; i < 80; i += 5 {
		k := fmt.Sprintf("k%02d", i)
		p.insert(t, k, "v")
		probes = append(probes, k)
	}
	for i := 10; i < 80; i += 20 {
		p.delete(t, fmt.Sprintf("k%02d", i))
	}
	checkOrderedOps(t, p, append(probes, splits...))
}
