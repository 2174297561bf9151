package shard

import (
	"context"
	"fmt"
	"testing"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// pair runs every operation against a sharded router and an unsharded
// reference suite over the same logical directory; the equivalence suite
// asserts the results are identical.
type pair struct {
	router *Router
	ref    *core.Suite
	locals [][]*transport.Local // router replicas, by shard
}

// newShardSuite builds one 3-replica 2-2 suite whose members are named
// s<i>r0..2.
func newShardSuite(t testing.TB, i int, seed int64) (*core.Suite, []*transport.Local) {
	t.Helper()
	dirs := make([]rep.Directory, 3)
	locals := make([]*transport.Local, 3)
	for j := range dirs {
		l := transport.NewLocal(rep.New(fmt.Sprintf("s%dr%d", i, j)))
		locals[j] = l
		dirs[j] = l
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	s, err := core.NewSuite(cfg, core.WithSelector(quorum.NewRandomSelector(cfg, seed+int64(i))))
	if err != nil {
		t.Fatal(err)
	}
	return s, locals
}

// newTestRouter builds a router with one 3-replica suite per shard.
func newTestRouter(t testing.TB, splits []string, seed int64, opts ...Option) (*Router, [][]*transport.Local) {
	t.Helper()
	m, err := NewMap(splits...)
	if err != nil {
		t.Fatal(err)
	}
	suites := make([]*core.Suite, m.Shards())
	locals := make([][]*transport.Local, m.Shards())
	for i := range suites {
		suites[i], locals[i] = newShardSuite(t, i, seed)
	}
	r, err := NewRouter(m, suites, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r, locals
}

// newPair builds the router plus an unsharded reference suite.
func newPair(t testing.TB, splits []string, seed int64, opts ...Option) *pair {
	t.Helper()
	r, locals := newTestRouter(t, splits, seed, opts...)
	dirs := make([]rep.Directory, 3)
	for j := range dirs {
		dirs[j] = transport.NewLocal(rep.New(fmt.Sprintf("ref%d", j)))
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	ref, err := core.NewSuite(cfg, core.WithSelector(quorum.NewRandomSelector(cfg, seed+100)))
	if err != nil {
		t.Fatal(err)
	}
	return &pair{router: r, ref: ref, locals: locals}
}

func (p *pair) insert(t testing.TB, key, value string) {
	t.Helper()
	ctx := context.Background()
	if err := p.router.Insert(ctx, key, value); err != nil {
		t.Fatalf("router insert %q: %v", key, err)
	}
	if err := p.ref.Insert(ctx, key, value); err != nil {
		t.Fatalf("reference insert %q: %v", key, err)
	}
}

func (p *pair) update(t testing.TB, key, value string) {
	t.Helper()
	ctx := context.Background()
	if err := p.router.Update(ctx, key, value); err != nil {
		t.Fatalf("router update %q: %v", key, err)
	}
	if err := p.ref.Update(ctx, key, value); err != nil {
		t.Fatalf("reference update %q: %v", key, err)
	}
}

func (p *pair) delete(t testing.TB, key string) {
	t.Helper()
	ctx := context.Background()
	if err := p.router.Delete(ctx, key); err != nil {
		t.Fatalf("router delete %q: %v", key, err)
	}
	if err := p.ref.Delete(ctx, key); err != nil {
		t.Fatalf("reference delete %q: %v", key, err)
	}
}

func sameKVs(a, b []core.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkOrderedOps runs every ordered operation against both sides over a
// probe grid and fails on the first divergence. probes should cover the
// stored keys, the split points, and values between/outside them.
func checkOrderedOps(t testing.TB, p *pair, probes []string) {
	t.Helper()
	ctx := context.Background()

	gotN, err := p.router.Count(ctx)
	if err != nil {
		t.Fatalf("router Count: %v", err)
	}
	wantN, err := p.ref.Count(ctx)
	if err != nil {
		t.Fatalf("reference Count: %v", err)
	}
	if gotN != wantN {
		t.Fatalf("Count: router %d, reference %d", gotN, wantN)
	}

	limits := []int{0, 1, 2, 100}
	grid := append([]string{""}, probes...)
	for _, a := range grid {
		for _, lim := range limits {
			got, err := p.router.Scan(ctx, a, lim)
			if err != nil {
				t.Fatalf("router Scan(%q,%d): %v", a, lim, err)
			}
			want, err := p.ref.Scan(ctx, a, lim)
			if err != nil {
				t.Fatalf("reference Scan(%q,%d): %v", a, lim, err)
			}
			if !sameKVs(got, want) {
				t.Fatalf("Scan(%q,%d): router %v, reference %v", a, lim, got, want)
			}

			got, err = p.router.ScanReverse(ctx, a, lim)
			if err != nil {
				t.Fatalf("router ScanReverse(%q,%d): %v", a, lim, err)
			}
			want, err = p.ref.ScanReverse(ctx, a, lim)
			if err != nil {
				t.Fatalf("reference ScanReverse(%q,%d): %v", a, lim, err)
			}
			if !sameKVs(got, want) {
				t.Fatalf("ScanReverse(%q,%d): router %v, reference %v", a, lim, got, want)
			}
		}
	}

	for _, a := range grid {
		for _, u := range grid {
			for _, lim := range []int{0, 2} {
				got, err := p.router.ScanRange(ctx, a, u, lim)
				if err != nil {
					t.Fatalf("router ScanRange(%q,%q,%d): %v", a, u, lim, err)
				}
				want, err := p.ref.ScanRange(ctx, a, u, lim)
				if err != nil {
					t.Fatalf("reference ScanRange(%q,%q,%d): %v", a, u, lim, err)
				}
				if !sameKVs(got, want) {
					t.Fatalf("ScanRange(%q,%q,%d): router %v, reference %v", a, u, lim, got, want)
				}
			}
		}
	}
}
