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

	"repdir/internal/model"
	"repdir/internal/quorum"
	"repdir/internal/version"
)

// perKeyShape is a suite shape linearizePerKey runs: its members and
// quorums, member i answering i*step late; its clients, each a suite
// with its own selector (sticky, else random) and hints, even-numbered
// ones under parallel quorum; and what its writers and readers do.
type perKeyShape struct {
	members, r, w    int
	step             time.Duration
	sticky           bool
	clients          int
	writers, readers int
	writes           int
	ops              string // a write draws one: i insert, u update, d delete
	ownKey           bool   // writer k alone writes key k, with a saboteur beside it
	hints            bool   // some writes must build on a hint, and some of those be refused
	seed             int64  // added to each client's selector seed
}

// TestOneShotReadsLinearizePerKey: each key has one writer, which only
// updates it, so a refusal is a breach (History.Refused); beside each
// writer a saboteur overwrites the key and aborts, and no read may
// return what it wrote. Point reads hold no lock past the call serving
// them, and every member is a different distance away.
func TestOneShotReadsLinearizePerKey(t *testing.T) {
	linearizePerKey(t, perKeyShape{3, 2, 2, 150 * time.Microsecond, false, 14, 4, 6, 60, "u", true, false, 0})
}

// TestHintedWritesLinearizePerKey is the safety net of the writes that
// build on a version their suite remembers instead of reading it:
// writers on every key in three suites, so a suite's hint goes stale
// whenever another suite writes. On 3-2-2 (2W > V) some writes build on
// a hint and some are refused as stale; on 4-3-2 two write quorums can
// miss each other, and no write may take the path.
func TestHintedWritesLinearizePerKey(t *testing.T) {
	t.Run("3-2-2", func(t *testing.T) {
		linearizePerKey(t, perKeyShape{3, 2, 2, 40 * time.Microsecond, false, 3, 6, 3, 120, "uuuuuuuiid", false, true, 0})
	})
	t.Run("4-3-2", func(t *testing.T) {
		linearizePerKey(t, perKeyShape{4, 3, 2, 40 * time.Microsecond, false, 3, 6, 3, 120, "uuuuuuuiid", false, false, 0})
	})
}

// TestConcurrentContendingClients: six writers share one sticky suite on
// four keys, and wait-die plus retry must drain every operation.
func TestConcurrentContendingClients(t *testing.T) {
	linearizePerKey(t, perKeyShape{3, 2, 2, 0, true, 1, 6, 2, 40, "iud", false, false, 0})
}

// TestConcurrentDisjointClients: each writer inserts and deletes its own
// key, and no writer may refuse another's.
func TestConcurrentDisjointClients(t *testing.T) {
	linearizePerKey(t, perKeyShape{3, 2, 2, 0, false, 1, 8, 2, 30, "iid", true, false, 0})
}

// TestAdjacentDeleteStress deletes adjacent keys from goroutines
// sharing one suite client: deletes of neighboring entries contend on
// overlapping coalesce ranges and bound lookups, and wait-die plus retry
// must drain them all. With one client per goroutine, each needs a
// wait-die node tag of its own.
func TestAdjacentDeleteStress(t *testing.T) {
	for round := int64(0); round < 30; round++ {
		linearizePerKey(t, perKeyShape{3, 2, 2, 0, false, 1, 4, 0, 1, "d", true, false, 10 * round})
	}
}

func TestAdjacentDeleteStressSeparateClients(t *testing.T) {
	for round := int64(0); round < 30; round++ {
		linearizePerKey(t, perKeyShape{3, 2, 2, 0, false, 4, 4, 0, 1, "d", true, false, 10 * round})
	}
}

// TestFullQuorumsLinearizePerKey: 3-3-3 under parallel quorum, every leg
// of a round in flight at once.
func TestFullQuorumsLinearizePerKey(t *testing.T) {
	linearizePerKey(t, perKeyShape{3, 3, 3, 20 * time.Microsecond, false, 1, 2, 2, 40, "uuid", false, false, 0})
}

// linearizePerKey races point writers and point readers on a few keys
// and records every operation in a model.History with the version it
// wrote or saw. After a final read of each key, every key's history
// must pass the history's four rules (section 3.3): a read sees the
// newest acknowledged write or a later one, never goes back, and
// returns the value written at its version. Goroutine g (writers, then
// readers, then saboteurs) runs on client g mod clients. A write refused
// with ErrKeyExists or ErrKeyNotFound took no effect where writers share
// the key; where one writer owns it, History.Refused judges the refusal.
func linearizePerKey(t *testing.T, tc perKeyShape) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ts := newRandomSuite(t, []string{"A", "B", "C", "D"}[:tc.members], tc.r, tc.w, 1)
	for i, l := range ts.locals {
		l.SetLatency(time.Duration(i) * tc.step)
	}
	clients := make([]*Suite, tc.clients)
	for i := range clients {
		sel := quorum.Selector(quorum.NewRandomSelector(ts.cfg, tc.seed+int64(i+1)))
		if tc.sticky {
			sel = quorum.NewStickySelector(ts.cfg)
		}
		s, err := NewSuite(ts.cfg, WithSelector(sel), WithParallelQuorum(i%2 == 0))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = s
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	if tc.ownKey {
		keys = keys[:0]
		for k := 0; k < tc.writers; k++ {
			keys = append(keys, fmt.Sprintf("k%d", k))
		}
	}
	hist := model.NewHistory()
	for _, k := range keys {
		o := hist.Invoke(model.Write, k, "initial")
		ver, err := clients[0].InsertV(ctx, k, "initial")
		if err != nil {
			t.Fatal(err)
		}
		hist.Return(o, model.Ok, ver)
	}
	if err := clients[0].Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var writers, others sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < tc.writers; w++ {
		writers.Add(1)
		go func(w int, s *Suite) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < tc.writes; n++ {
				key := keys[rng.Intn(len(keys))]
				if tc.ownKey {
					key = keys[w]
				}
				value := fmt.Sprintf("w%d-%d", w, n)
				var o *model.Op
				var ver version.V
				var err error
				switch tc.ops[rng.Intn(len(tc.ops))] {
				case 'u':
					o = hist.Invoke(model.Write, key, value)
					ver, err = s.UpdateV(ctx, key, value)
				case 'i':
					o = hist.Invoke(model.Write, key, value)
					ver, err = s.InsertV(ctx, key, value)
				default:
					o = hist.Invoke(model.Delete, key, "")
					ver, err = s.DeleteV(ctx, key)
				}
				switch refused := errors.Is(err, ErrKeyExists) || errors.Is(err, ErrKeyNotFound); {
				case refused && tc.ownKey:
					hist.Refused(key, o, errors.Is(err, ErrKeyExists))
				case refused:
					hist.Return(o, model.Fail, 0)
				case err != nil:
					t.Errorf("%v of %s: %v", o, key, err)
					return
				default:
					hist.Return(o, model.Ok, ver)
				}
			}
		}(w, clients[w%tc.clients])
	}
	var reads, sabotaged atomic.Int64
	for r := 0; r < tc.readers; r++ {
		others.Add(1)
		go func(r int, s *Suite) {
			defer others.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
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
				reads.Add(1)
			}
		}(r, clients[(tc.writers+r)%tc.clients])
	}
	errSabotage := errors.New("sabotage")
	for k := 0; tc.ownKey && k < len(keys); k++ {
		others.Add(1)
		go func(key string, s *Suite) {
			defer others.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				err := s.RunInTxn(ctx, func(tx *Tx) error {
					if err := tx.Update(ctx, key, "never committed"); err != nil {
						return err
					}
					sabotaged.Add(1)
					return errSabotage
				})
				if !errors.Is(err, errSabotage) && !errors.Is(err, ErrKeyNotFound) {
					t.Errorf("saboteur of %s: %v", key, err)
					return
				}
			}
		}(keys[k], clients[(tc.writers+tc.readers+k)%tc.clients])
	}
	writers.Wait()
	close(done)
	others.Wait()
	for _, s := range clients {
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}

	for _, key := range keys {
		o := hist.Invoke(model.Read, key, "")
		value, found, ver, err := clients[0].LookupV(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		hist.Read(o, value, found, ver)
	}
	for _, v := range hist.Check() {
		t.Error(v)
	}
	if tc.readers > 0 && reads.Load() < 20 || tc.ownKey && tc.writes > 1 && sabotaged.Load() < 10 {
		t.Errorf("only %d reads and %d aborted overwrites raced the writers", reads.Load(), sabotaged.Load())
	}
	expected, moved := ts.counts.expected.Load(), ts.counts.moved.Load()
	t.Logf("%d reads; %d writes carried an expectation, %d of them refused", reads.Load(), expected, moved)
	if tc.hints && (expected == 0 || moved == 0) {
		t.Error("the suites never wrote on a hint, or no hint went stale: the test proves nothing")
	}
	if !ts.cfg.WritesIntersect() && expected != 0 {
		t.Errorf("%d writes built on a hint where write quorums need not intersect", expected)
	}
}
