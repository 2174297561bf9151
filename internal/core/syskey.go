package core

import (
	"context"
	"strings"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
)

// SysPrefix reserves a key namespace for suite-internal records — today
// the replicated configuration record (package reconfig). The prefix
// byte sorts below every user key, so system entries cluster at the
// bottom of the keyspace. validateKey rejects it from the public API,
// and the traversals (Scan, ScanReverse, ScanRange, Count) skip over
// system entries, so user-visible state never includes them.
//
// At the representative layer system entries are ordinary entries: they
// get versions, participate in quorum reads, are copied by
// RepairReplica, and may serve as coalesce bounds for deletions of
// adjacent user keys — which is exactly what gives the configuration
// record single-copy semantics for free.
const SysPrefix = "\x00"

// isSystemKey reports whether a representative-level key lives in the
// reserved namespace. Sentinels are not system keys.
func isSystemKey(k keyspace.Key) bool {
	return !k.IsSentinel() && strings.HasPrefix(k.Raw(), SysPrefix)
}

// SysLookup reads a system entry as a transaction of its own, a point
// read like Lookup: no lock outlives the call.
func (s *Suite) SysLookup(ctx context.Context, key string) (string, bool, error) {
	var res rep.LookupResult
	err := s.runTxn(ctx, pointRead, func(tx *Tx) (err error) {
		res, err = tx.suiteLookup(ctx, keyspace.New(key))
		return err
	})
	return res.Value, res.Found, err
}

// SysLookup reads a system entry within the transaction. The key is
// used verbatim (it must carry SysPrefix); the value, its existence,
// and the winning version's presence semantics match Lookup.
func (tx *Tx) SysLookup(ctx context.Context, key string) (string, bool, error) {
	res, err := tx.suiteLookup(ctx, keyspace.New(key))
	if err != nil {
		return "", false, err
	}
	return res.Value, res.Found, nil
}

// SysPut writes a system entry within the transaction: insert if
// absent, overwrite if present, always at one more than the highest
// version a read quorum associates with the key. Because the read
// happens under the same transaction's locks as the write, two
// concurrent SysPuts of the same key serialize — the loser's lock
// upgrade dies under wait-die and its retry re-reads the winner's
// value, which is what lets reconfiguration detect a concurrent epoch
// advance instead of double-writing one.
func (tx *Tx) SysPut(ctx context.Context, key, value string) error {
	k := keyspace.New(key)
	cur, err := tx.suiteLookup(ctx, k)
	if err != nil {
		return err
	}
	members, err := tx.entryWriters()
	if err != nil {
		return err
	}
	return tx.writeEntry(ctx, k, cur.Version.Next(), value, members, 0)
}
