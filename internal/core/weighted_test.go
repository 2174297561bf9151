package core

import (
	"context"
	"testing"

	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// weightedSuite builds a suite with an explicit vote assignment.
func weightedSuite(t *testing.T, votes []int, r, w int, seed int64) (*Suite, []*transport.Local) {
	t.Helper()
	locals := make([]*transport.Local, len(votes))
	members := make([]quorum.Member, len(votes))
	for i, v := range votes {
		locals[i] = transport.NewLocal(rep.New(string(rune('A' + i))))
		members[i] = quorum.Member{Dir: locals[i], Votes: v}
	}
	cfg := quorum.Config{Members: members, R: r, W: w}
	s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, seed)))
	if err != nil {
		t.Fatal(err)
	}
	return s, locals
}

// TestWeightedVotesHeavyReplica gives one replica 2 of 4 total votes
// (paper section 2: vote assignment tunes cost and availability). With
// R = 2, W = 3: the heavy replica alone serves reads; writes need the
// heavy replica plus one light one (or all three lights... which is only
// 2 votes — impossible, so every write quorum contains the heavy
// replica).
func TestWeightedVotesHeavyReplica(t *testing.T) {
	ctx := context.Background()
	s, locals := weightedSuite(t, []int{2, 1, 1}, 2, 3, 81)

	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	// Every write quorum includes the heavy replica, so it always holds
	// current data; the two light replicas down still leave R=2
	// readable through it.
	locals[1].Partition()
	locals[2].Partition()
	if v, found, err := s.Lookup(ctx, "k"); err != nil || !found || v != "v" {
		t.Fatalf("lookup via heavy replica = %q %v %v", v, found, err)
	}
	// Writes need 3 votes: heavy (2) + one light — impossible now.
	if err := s.Insert(ctx, "k2", "v"); err == nil {
		t.Fatal("write must fail with both light replicas down")
	}
	locals[1].Heal()
	if err := s.Insert(ctx, "k2", "v"); err != nil {
		t.Fatalf("write with heavy + one light: %v", err)
	}

	// Conversely, the heavy replica down kills everything: reads could
	// muster 2 votes from the two lights, writes cannot reach 3.
	locals[2].Heal()
	locals[0].Partition()
	if _, found, err := s.Lookup(ctx, "k2"); err != nil || !found {
		t.Fatalf("read from two lights (2 votes) should work: %v %v", found, err)
	}
	if err := s.Update(ctx, "k2", "v2"); err == nil {
		t.Fatal("write must fail without the heavy replica")
	}
}

// TestWeightedZeroVoteReplicaIsInvisible verifies a zero-vote member
// never joins a quorum and its failure never matters.
func TestWeightedZeroVoteReplicaIsInvisible(t *testing.T) {
	ctx := context.Background()
	s, locals := weightedSuite(t, []int{1, 1, 1, 0}, 2, 2, 83)
	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	// The hint replica never received anything.
	hintHolds := false
	for i := 0; i < 20; i++ {
		if _, found, err := s.Lookup(ctx, "k"); err != nil || !found {
			t.Fatalf("lookup: %v %v", found, err)
		}
	}
	if hintHolds {
		t.Fatal("unreachable")
	}
	// Partitioning the zero-vote member changes nothing.
	locals[3].Partition()
	if err := s.Update(ctx, "k", "v2"); err != nil {
		t.Fatalf("update with hint down: %v", err)
	}
	if v, _, _ := s.Lookup(ctx, "k"); v != "v2" {
		t.Fatalf("lookup = %q", v)
	}
}
