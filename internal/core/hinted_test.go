package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// expectCounter counts, at one member, the Inserts that carried an
// expectation and those it refused because the version had moved.
type expectCounter struct {
	rep.Directory
	expected, moved *atomic.Int64
}

func (d *expectCounter) Insert(ctx context.Context, id lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	err := d.Directory.Insert(ctx, id, key, ver, value)
	if rep.Expects(ctx) {
		d.expected.Add(1)
	}
	if errors.Is(err, rep.ErrVersionMoved) {
		d.moved.Add(1)
	}
	return err
}

// histOp is one completed operation on one key, on a clock that ticks
// at every call and every return: a versioned write (InsertV, UpdateV),
// a delete, or a point read (LookupV).
type histOp struct {
	kind       string
	found      bool
	ver        version.V
	value      string
	start, end int64
}

// TestHintedWritesLinearizePerKey is the safety net of the writes that
// build on a version their suite remembers instead of reading it. Three
// suites, each with its own hints and selector, one of them sequential,
// share members at different latencies; on each of four keys several
// writers race — so a suite's hint goes stale whenever another suite
// writes — and readers read beside them. Per key, the history must be
// one a single copy could have produced:
//
//   - no two acknowledged writes carry one version;
//   - a write begun after another's acknowledgement has a higher version;
//   - a read begun after a write's acknowledgement sees that version or
//     a later one, and every entry a read returns is an acknowledged
//     write, value and all;
//   - the final quorum read returns the value of the highest version
//     acknowledged, unless a delete came after it.
//
// On 3-2-2 (2W > V) the suites write on hints, and some are refused. On
// 4-3-2 two write quorums can miss each other, so no check at a write
// quorum can prove a hint current, and no write may take the path.
func TestHintedWritesLinearizePerKey(t *testing.T) {
	for _, tc := range []struct {
		members, r, w int
	}{
		{3, 2, 2},
		{4, 3, 2},
	} {
		t.Run(fmt.Sprintf("%d-%d-%d", tc.members, tc.r, tc.w), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var expected, moved atomic.Int64
			dirs := make([]rep.Directory, tc.members)
			for i := range dirs {
				l := transport.NewLocal(&expectCounter{rep.New(string(rune('A' + i))), &expected, &moved})
				l.SetLatency(time.Duration(i) * 40 * time.Microsecond)
				dirs[i] = l
			}
			cfg := quorum.NewUniform(dirs, tc.r, tc.w)
			suites := make([]*Suite, 3)
			for i := range suites {
				s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, int64(i+1))), WithParallelQuorum(i != 1))
				if err != nil {
					t.Fatal(err)
				}
				suites[i] = s
			}
			var clock atomic.Int64
			var mu sync.Mutex
			hist := map[string][]histOp{}
			keys := []string{"k0", "k1", "k2", "k3"}
			for _, k := range keys {
				op := histOp{kind: "write", value: "initial", start: clock.Add(1)}
				var err error
				if op.ver, err = suites[0].InsertV(ctx, k, op.value); err != nil {
					t.Fatal(err)
				}
				op.end = clock.Add(1)
				hist[k] = append(hist[k], op)
			}
			record := func(key string, op histOp) {
				mu.Lock()
				hist[key] = append(hist[key], op)
				mu.Unlock()
			}
			const writesEach = 120
			var writers, readers sync.WaitGroup
			done := make(chan struct{})
			for si, s := range suites {
				for w := 0; w < 2; w++ {
					writers.Add(1)
					go func(seed int64) {
						defer writers.Done()
						rng := rand.New(rand.NewSource(seed))
						for n := 0; n < writesEach; n++ {
							key := keys[rng.Intn(len(keys))]
							value := fmt.Sprintf("s%d-%d", seed, n)
							op := histOp{start: clock.Add(1)}
							var err error
							switch p := rng.Intn(10); {
							case p < 7:
								op.kind = "write"
								op.ver, err = s.UpdateV(ctx, key, value)
							case p < 9:
								op.kind = "write"
								op.ver, err = s.InsertV(ctx, key, value)
							default:
								op.kind = "delete"
								err = s.Delete(ctx, key)
							}
							op.end, op.value = clock.Add(1), value
							switch {
							case errors.Is(err, ErrKeyExists) || errors.Is(err, ErrKeyNotFound):
							case err != nil:
								t.Errorf("%s of %s: %v", op.kind, key, err)
								return
							default:
								record(key, op)
							}
						}
					}(int64(10*si + w))
				}
				readers.Add(1)
				go func(seed int64) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-done:
							return
						default:
						}
						key := keys[rng.Intn(len(keys))]
						op := histOp{kind: "read", start: clock.Add(1)}
						value, found, ver, err := s.LookupV(ctx, key)
						op.end, op.found, op.ver, op.value = clock.Add(1), found, ver, value
						if err != nil {
							t.Errorf("read of %s: %v", key, err)
							return
						}
						record(key, op)
					}
				}(int64(100 + si))
			}
			writers.Wait()
			close(done)
			readers.Wait()
			for _, s := range suites {
				if err := s.Drain(ctx); err != nil {
					t.Fatal(err)
				}
			}

			for _, key := range keys {
				value, found, ver, err := suites[2].LookupV(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				checkKeyHistory(t, key, hist[key], histOp{kind: "final", found: found, ver: ver, value: value, start: clock.Add(1)})
			}
			t.Logf("%d writes carried an expectation, %d of them refused", expected.Load(), moved.Load())
			if cfg.WritesIntersect() && (expected.Load() == 0 || moved.Load() == 0) {
				t.Error("the suites never wrote on a hint, or no hint went stale: the test proves nothing")
			}
			if !cfg.WritesIntersect() && expected.Load() != 0 {
				t.Errorf("%d writes built on a hint where write quorums need not intersect", expected.Load())
			}
		})
	}
}

// checkKeyHistory checks one key's completed operations and its final
// read against the single-copy rules of TestHintedWritesLinearizePerKey.
func checkKeyHistory(t *testing.T, key string, ops []histOp, final histOp) {
	t.Helper()
	acked := map[version.V]histOp{}
	var top histOp
	for _, w := range ops {
		if w.kind != "write" {
			continue
		}
		if other, dup := acked[w.ver]; dup {
			t.Errorf("%s: writes %q and %q were both acknowledged at version %d", key, other.value, w.value, w.ver)
		}
		acked[w.ver] = w
		if w.ver > top.ver {
			top = w
		}
	}
	all := append(ops[:len(ops):len(ops)], final)
	var lastDelete int64 // when the last delete was acknowledged
	for _, a := range ops {
		if a.kind == "delete" {
			lastDelete = max(lastDelete, a.end)
		}
		if a.kind != "write" {
			continue
		}
		for _, b := range all {
			if b.start <= a.end {
				continue
			}
			switch {
			case b.kind == "write" && b.ver <= a.ver:
				t.Errorf("%s: write %q at version %d began after write %q at version %d was acknowledged", key, b.value, b.ver, a.value, a.ver)
			case (b.kind == "read" || b.kind == "final") && b.ver < a.ver:
				t.Errorf("%s: %s at version %d began after write %q at version %d was acknowledged", key, b.kind, b.ver, a.value, a.ver)
			}
		}
	}
	for _, r := range all {
		if r.kind != "read" && r.kind != "final" || !r.found {
			continue
		}
		if w, ok := acked[r.ver]; !ok || w.value != r.value {
			t.Errorf("%s: %s saw %q at version %d, which no acknowledged write wrote", key, r.kind, r.value, r.ver)
		}
	}
	if lastDelete < top.start && (!final.found || final.ver != top.ver || final.value != top.value) {
		t.Errorf("%s: final read %+v, want %q at version %d, the last write acknowledged", key, final, top.value, top.ver)
	}
}
