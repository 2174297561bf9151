package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repdir/internal/quorum"
	"repdir/internal/transport"
)

// lossShape is a loss replicaLoss runs: the suite's members and
// quorums, its selector (random when sel is nil) and options, and the
// members lost.
type lossShape struct {
	members, r, w int
	sel           func(quorum.Config) quorum.Selector
	opts          []Option
	lost          []int
	flaky         bool // not partitioned: each fails data-path calls once budget more have passed
	budget        int64
	writes, reads bool // whether a write quorum and a read quorum remain
	oneRetry      bool // each operation retries once, noting every lost member
}

var (
	sticky  = func(cfg quorum.Config) quorum.Selector { return quorum.NewStickySelector(cfg) }
	firstOf = func(n int) func(quorum.Config) quorum.Selector {
		return func(cfg quorum.Config) quorum.Selector {
			s := &scriptSelector{cfg: cfg}
			s.set([]int{0, 1, 2}[:n], []int{0, 1, 2}[:n])
			return s
		}
	}
	parallel = []Option{WithParallelQuorum(true)}
)

func TestSurvivesReplicaFailure(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, nil, nil, []int{0}, false, 0, true, true, false})
}

func TestScanSurvivesReplicaFailure(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, nil, nil, []int{2}, false, 0, true, true, false})
}

func TestSetSurvivesReplicaFailure(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, sticky, nil, []int{1}, false, 0, true, true, false})
}

func TestParallelQuorumReplicaFailure(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, nil, parallel, []int{1}, false, 0, true, true, false})
}

// TestMidOperationReplicaLoss: the member the sticky selector prefers
// is lost after the first calls of the delete's successor walk.
func TestMidOperationReplicaLoss(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, sticky, nil, []int{0}, true, 3, true, true, false})
}

// TestReplicaLossDuringInsertRetries: it is lost after one call, the
// first write's read round.
func TestReplicaLossDuringInsertRetries(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, sticky, nil, []int{0}, true, 1, true, true, false})
}

// TestRetryExcludesAllLostMembers: two of a round's three members are
// lost at once, under parallel fan-out.
func TestRetryExcludesAllLostMembers(t *testing.T) {
	replicaLoss(t, lossShape{5, 3, 3, firstOf(3), parallel, []int{1, 2}, false, 0, true, true, true})
}

// TestReadOneWriteAllConfig: 3-1-3 reads from any one member and writes
// at all three, so one lost member stops writes and no read; with all
// three up, a read at any one member matches the map.
func TestReadOneWriteAllConfig(t *testing.T) {
	replicaLoss(t, lossShape{3, 1, 3, nil, nil, []int{2}, false, 0, false, true, false})
	mapModel(t, mapShape{3, 1, 3, 23, 100, 11, nil, false})
}

func TestTwoFailuresExhaustQuorum(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, nil, nil, []int{0, 1}, false, 0, false, false, false})
}

// TestNeighborFailureIsNotNotFound: a scan whose walk cannot complete
// fails; a quiet empty page would make a stitched traversal skip a
// shard's keys.
func TestNeighborFailureIsNotNotFound(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, firstOf(2), nil, []int{0, 1}, false, 0, false, false, false})
}

// TestStatsCountReplicaLosses: every round meets the lost member.
func TestStatsCountReplicaLosses(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, firstOf(2), nil, []int{0}, false, 0, true, true, false})
}

func TestAllReplicasFlakyFailsCleanly(t *testing.T) {
	replicaLoss(t, lossShape{3, 2, 2, nil, nil, []int{0, 1, 2}, true, 0, false, false, false})
}

// replicaLoss loses members of a suite holding a, b and c, deletes b
// and adds d to a Set over the suite, reads and scans through the loss,
// then heals. While quorums of the live members remain, every operation
// succeeds, routed around the lost members by a retry that excludes
// them, and after the heal every read agrees that b is gone and d is
// there, whatever a healed member holds. A member lost partway through
// an operation is excluded the same way. A round that loses several
// members notes every one: one retry, not one per lost member, and the
// exclusion lasts only as long as the operation. With no write quorum
// left writes fail, and with no read quorum reads and scans fail too,
// never answering empty.
func replicaLoss(t *testing.T, tc lossShape) {
	ctx := context.Background()
	sel := tc.sel
	if sel == nil {
		sel = func(cfg quorum.Config) quorum.Selector { return quorum.NewRandomSelector(cfg, 17) }
	}
	ts := newSuite(t, []string{"A", "B", "C", "D", "E"}[:tc.members], tc.r, tc.w, sel, tc.opts...)
	ts.prepopulate(t, "a", "b", "c")
	for _, m := range tc.lost {
		if tc.flaky {
			ts.hooks[m].lose(tc.budget)
		} else {
			ts.locals[m].Partition()
		}
	}
	s, set, lost := ts.suite, NewSet(ts.suite), true
	op := func(what string, ok bool, f func() error) {
		t.Helper()
		before := s.Stats()
		err := f()
		switch {
		case ok && err != nil:
			t.Fatalf("%s, %v lost: %v", what, tc.lost, err)
		case !ok && !errors.Is(err, transport.ErrUnavailable) && !errors.Is(err, quorum.ErrNoQuorum):
			t.Fatalf("%s, %v lost = %v; want it refused for want of a quorum", what, tc.lost, err)
		}
		after := s.Stats()
		if tc.oneRetry && lost && (after.Retries != before.Retries+1 || after.ReplicaLosses != before.ReplicaLosses+uint64(len(tc.lost))) {
			t.Errorf("%s: %d retries noting %d losses; want 1 noting %d", what,
				after.Retries-before.Retries, after.ReplicaLosses-before.ReplicaLosses, len(tc.lost))
		}
	}
	want := strings.Fields("a b c")
	if tc.writes {
		want = strings.Fields("a c d")
	}
	reads := func(ok bool) {
		op("lookup", ok, func() error {
			v, found, err := s.Lookup(ctx, "a")
			if err == nil && (!found || v != "val-a") {
				t.Fatalf("lookup a = %q, %v", v, found)
			}
			return err
		})
		op("set contains", ok, func() error {
			in, err := set.Contains(ctx, "d")
			if err == nil && in != tc.writes {
				t.Fatalf("set contains d = %v", in)
			}
			return err
		})
		for i, scan := range []func(context.Context, string, int) ([]KV, error){s.Scan, s.ScanReverse} {
			op("scan", ok, func() error {
				page, err := scan(ctx, "", 0)
				got := strings.Fields(joinKeys(page))
				if i == 1 {
					slices.Reverse(got)
				}
				if err == nil && !slices.Equal(got, want) {
					t.Fatalf("scan %d = %v, want %v", i, got, want)
				}
				return err
			})
		}
	}
	op("delete", tc.writes, func() error { return s.Delete(ctx, "b") })
	op("set add", tc.writes, func() error { return set.Add(ctx, "d") })
	reads(tc.reads)
	if st := s.Stats(); st.ReplicaLosses == 0 || st.Retries == 0 || tc.writes && st.Failures != 0 {
		t.Fatalf("%d replica losses, %d retries, %d failures: the loss was never met, or never retried around", st.ReplicaLosses, st.Retries, st.Failures)
	}
	for _, m := range tc.lost {
		ts.hooks[m].heal()
		ts.locals[m].Heal()
	}
	lost = false
	for i := 0; i < 5; i++ {
		reads(true)
	}
}
