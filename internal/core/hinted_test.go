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
	"repdir/internal/model"
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

// TestHintedWritesLinearizePerKey is the safety net of the writes that
// build on a version their suite remembers instead of reading it. Three
// suites, each with its own hints and selector, one of them sequential,
// share members at different latencies; on each of four keys several
// writers race — so a suite's hint goes stale whenever another suite
// writes — and readers read beside them. Every write, delete and read
// goes into a model.History with the version it wrote or saw, and each
// key's history, closed by a final quorum read, must pass its four
// rules. Nothing here fails ambiguously, so a write refused with
// ErrKeyExists or ErrKeyNotFound took no effect: no read may return it.
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
			hist := model.NewHistory()
			keys := []string{"k0", "k1", "k2", "k3"}
			for _, k := range keys {
				o := hist.Invoke(model.Write, k, "initial")
				ver, err := suites[0].InsertV(ctx, k, "initial")
				if err != nil {
					t.Fatal(err)
				}
				hist.Return(o, model.Ok, ver)
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
							var o *model.Op
							var ver version.V
							var err error
							switch p := rng.Intn(10); {
							case p < 7:
								o = hist.Invoke(model.Write, key, value)
								ver, err = s.UpdateV(ctx, key, value)
							case p < 9:
								o = hist.Invoke(model.Write, key, value)
								ver, err = s.InsertV(ctx, key, value)
							default:
								o = hist.Invoke(model.Delete, key, "")
								ver, err = s.DeleteV(ctx, key)
							}
							switch {
							case errors.Is(err, ErrKeyExists) || errors.Is(err, ErrKeyNotFound):
								hist.Return(o, model.Fail, 0)
							case err != nil:
								t.Errorf("%v of %s: %v", o, key, err)
								return
							default:
								hist.Return(o, model.Ok, ver)
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
						o := hist.Invoke(model.Read, key, "")
						value, found, ver, err := s.LookupV(ctx, key)
						if err != nil {
							t.Errorf("read of %s: %v", key, err)
							return
						}
						hist.Read(o, value, found, ver)
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
				o := hist.Invoke(model.Read, key, "")
				value, found, ver, err := suites[2].LookupV(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				hist.Read(o, value, found, ver)
			}
			for _, v := range hist.Check() {
				t.Error(v)
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
