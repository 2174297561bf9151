package core

import (
	"context"
	"errors"
	"fmt"

	"repdir/internal/rep"
	"repdir/internal/version"
)

// Session support: version-returning operation variants and single-member
// local reads.
//
// A client session that wants read-your-writes semantics without paying a
// read quorum on every lookup needs two primitives from the suite. First,
// writes must report the version they installed, so the session can keep
// a per-key floor: "my data is at least this new". Second, the suite must
// offer a one-member read against a designated local representative —
// one message instead of R — whose reply the session checks against the
// floor, falling back to a full quorum read when the local copy is too
// old. With a sticky write-quorum policy that always includes the local
// member, the local copy is too old only when some *other* client wrote
// through a quorum excluding it, so the fallback is the exception, not
// the rule. Session (clientsession.go) is the layer built on these.

// ErrNoLocalMember reports a LocalLookup on a suite built without
// WithLocalReads.
var ErrNoLocalMember = errors.New("core: suite has no local read member")

// WithLocalReads designates the named store member as the suite's local
// read target: LocalLookup consults only that member. The member must
// exist in the configuration and must not be a witness (witness replies
// carry no values). Pair this with a sticky or locality selector that
// keeps the member in every write quorum, so the local copy stays
// current for data written through this suite.
func WithLocalReads(member string) Option { return func(s *Suite) { s.localMember = member } }

// LookupV is Lookup plus the winning version: the entry's version when
// found, the winning gap version otherwise. Sessions use it to advance
// monotonic-read floors from quorum reads. It costs one round of R
// messages: see pointRead.
func (s *Suite) LookupV(ctx context.Context, key string) (string, bool, version.V, error) {
	var res rep.LookupResult
	err := s.runTxn(ctx, pointRead, func(tx *Tx) (err error) {
		res, err = tx.lookup(ctx, key)
		return err
	})
	return res.Value, res.Found, res.Version, err
}

// InsertV is Insert plus the version the new entry was written with. It
// costs two rounds, write and commit, where the suite remembers the
// key's version, and three, read first, where it does not: see
// pointWrite.
func (s *Suite) InsertV(ctx context.Context, key, value string) (ver version.V, err error) {
	err = s.runTxn(ctx, pointWrite, func(tx *Tx) (err error) {
		ver, err = tx.write(ctx, key, value, false)
		return err
	})
	return ver, err
}

// UpdateV is Update plus the version the replacement was written with.
func (s *Suite) UpdateV(ctx context.Context, key, value string) (ver version.V, err error) {
	err = s.runTxn(ctx, pointWrite, func(tx *Tx) (err error) {
		ver, err = tx.write(ctx, key, value, true)
		return err
	})
	return ver, err
}

// DeleteV is Delete plus the version of the gap written over the key.
func (s *Suite) DeleteV(ctx context.Context, key string) (ver version.V, err error) {
	err = s.runTxn(ctx, pointWrite, func(tx *Tx) (err error) {
		ver, err = tx.delete(ctx, key)
		return err
	})
	return ver, err
}

// LocalLookup reads the key from the suite's designated local member
// only: one representative message instead of a read quorum. The reply
// is whatever that member holds — current for everything written through
// write quorums containing the member (the sticky policy's invariant),
// but possibly stale otherwise, so callers needing session guarantees
// must check the returned version against their floor and fall back to
// Lookup/LookupV on violation. The member takes the read lock for the
// length of the call, so the read never observes a torn or uncommitted
// write, and holds nothing afterwards.
func (s *Suite) LocalLookup(ctx context.Context, key string) (string, bool, version.V, error) {
	if s.localMember == "" {
		return "", false, version.Lowest, ErrNoLocalMember
	}
	var res rep.LookupResult
	err := s.runTxn(ctx, pointRead, func(tx *Tx) error {
		k, err := validateKey(key)
		if err != nil {
			return err
		}
		d := s.local
		res, err = d.Lookup(tx.mark(ctx, rep.OneShotMark), tx.txn.ID, k)
		if err != nil {
			tx.noteFailure(d.Name(), err)
			return fmt.Errorf("local lookup %s at %s: %w", k, d.Name(), err)
		}
		return nil
	})
	return res.Value, res.Found, res.Version, err
}
