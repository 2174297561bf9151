// Package core implements the replicated directory suite — the paper's
// primary contribution.
//
// A directory suite is a set of directory representatives, a vote
// assignment, and read/write quorum sizes R and W with R + W greater than
// the total votes. The suite offers the directory operations Lookup,
// Insert, Update, and Delete with single-copy semantics (section 3.2):
//
//   - Lookup (Figure 8) reads a read quorum and returns the reply with
//     the largest version number; because every representative associates
//     a version number with every possible key (entry versions plus gap
//     versions), the reply is unambiguous even after deletions.
//   - Insert (Figure 9) looks the key up in a read quorum and writes the
//     entry with one more than the highest version seen to a write
//     quorum. Update is analogous. Where write quorums intersect, a
//     version the suite remembers is checked by the write quorum instead.
//   - Delete (Figure 13) locates the key's real predecessor and real
//     successor (Figure 12), copies them to write-quorum members that
//     lack them, and coalesces the whole range into a single gap with a
//     version number exceeding everything previously associated with any
//     key in the range — eliminating ghosts as a side effect.
//
// Each of the paper's algorithm figures is one function, pinned by one
// test:
//
//	Paper      What                       Function          Test
//	Figure 7   range-lock compatibility   lock.Compatible   lock_test.go TestCompatibilityMatrix
//	Figure 8   DirSuiteLookup             Tx.resolve        paper_test.go TestPaperFigures1to5
//	Figure 9   DirSuiteInsert             Tx.write          suite_test.go TestInsertAfterDeleteGetsHigherVersion, perkey_test.go TestPointOpsLinearizePerKey
//	Figure 10  a delete's bound copy      Tx.Delete         paper_test.go TestPaperFigures10and11
//	Figure 11  a coalesce sweeps a ghost  rep.Rep.Coalesce  paper_test.go TestPaperFigures10and11
//	Figure 12  real neighbor search       run.next          merge_test.go TestMergeMatchesPerKeyWalk
//	Figure 13  DirSuiteDelete             Tx.Delete         paper_test.go TestVersionDominanceInvariant
//	§4         messages per operation     Tx.fanOut         rounds_test.go TestPointOperationRounds
//
// RepairReplica brings a lagging member current with Figure 13's
// coalesce, walking the keyspace with Figure 12's search.
//
// Every suite operation runs as an atomic transaction across the
// representatives it touches: strict two-phase locking at each
// representative plus two-phase commit (package txn). Transactions killed
// by wait-die deadlock avoidance, and operations that lose a replica
// mid-flight, are retried automatically under the same transaction
// timestamp.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/version"
)

// Errors reported by suite operations.
var (
	// ErrKeyExists is returned by Insert when the key already has an
	// entry ("if isin then ReportError()", Figure 9).
	ErrKeyExists = errors.New("core: key already present")
	// ErrKeyNotFound is returned by Update and Delete when the key has
	// no entry.
	ErrKeyNotFound = errors.New("core: key not present")
	// ErrRetriesExhausted wraps the last failure after the operation
	// retry budget is spent.
	ErrRetriesExhausted = errors.New("core: retries exhausted")
)

// Suite is a replicated directory client. It is safe for concurrent use;
// each operation runs its own transaction.
type Suite struct {
	cfg quorum.Config
	// members is cfg.Members as operations handle them, index for index.
	members    []member
	hasWitness bool
	sel        quorum.Selector
	ids        *txn.IDSource
	metrics    Metrics
	maxRetries int
	fanout     int
	parallel   bool
	counters   suiteCounters
	hints      hints

	// idle holds the transactions of operations that are over, for the
	// next operations to run in (acquire, release); releasing counts the
	// rounds in flight that operations sent after returning (Drain).
	idleMu    sync.Mutex
	idle      []*Tx
	releasing atomic.Int64
}

// Option configures a Suite.
type Option func(*Suite)

// WithSelector sets the quorum selection policy (default: a random
// selector seeded with 1, matching the paper's simulations).
func WithSelector(sel quorum.Selector) Option { return func(s *Suite) { s.sel = sel } }

// WithIDSource sets the transaction ID source. Clients of the same suite
// should share one source (or use distinct node tags) so wait-die sees a
// consistent transaction age order.
func WithIDSource(ids *txn.IDSource) Option { return func(s *Suite) { s.ids = ids } }

// WithMetrics installs a collector for the paper's section 4 deletion
// statistics.
func WithMetrics(m Metrics) Option { return func(s *Suite) { s.metrics = m } }

// WithMaxRetries sets how many times an operation is retried after a
// wait-die abort or a lost replica (default 256).
func WithMaxRetries(n int) Option { return func(s *Suite) { s.maxRetries = n } }

// WithParallelQuorum makes quorum fan-out (lookups and entry writes)
// issue its per-member messages concurrently instead of sequentially.
// Over a network this cuts a quorum round from the sum of member
// latencies to the slowest member's latency. The default is sequential,
// which keeps simulations deterministic.
func WithParallelQuorum(on bool) Option { return func(s *Suite) { s.parallel = on } }

// WithNeighborFanout sets how many successive predecessors/successors
// each neighbor probe fetches in one message during Delete's
// real-predecessor and real-successor searches. The default 1 is the
// paper's base Figure 12 algorithm; the paper's section 4 suggests 3,
// with which "the real predecessor and real successor will often be
// located using one remote procedure call to each member of the quorum".
func WithNeighborFanout(n int) Option { return func(s *Suite) { s.fanout = n } }

// nextSuiteNode hands each Suite in this process a distinct wait-die node
// tag, so transaction IDs from different suite clients sharing the same
// representatives never collide. Clients in *different processes* must
// coordinate tags explicitly via WithIDSource.
var nextSuiteNode atomic.Uint32

// NewSuite validates the configuration and builds a suite client.
func NewSuite(cfg quorum.Config, opts ...Option) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Suite{
		cfg:        cfg,
		hasWitness: cfg.WitnessVotes() > 0,
		ids:        txn.NewIDSource(uint16(nextSuiteNode.Add(1))),
		maxRetries: 256,
		fanout:     1,
	}
	for _, op := range opts {
		op(s)
	}
	if s.sel == nil {
		s.sel = quorum.NewRandomSelector(cfg, 1)
	}
	if s.fanout < 1 {
		return nil, fmt.Errorf("core: neighbor fanout %d must be positive", s.fanout)
	}
	if cfg.WritesIntersect() {
		s.hints.m = make(map[string]hint)
	}
	for i, m := range cfg.Members {
		m.Dir = s.wrapDir(m.Dir)
		s.members = append(s.members, member{Member: m, idx: i})
	}
	return s, nil
}

// Config returns the suite's quorum configuration.
func (s *Suite) Config() quorum.Config { return s.cfg }

// Lookup returns the value stored under key and whether an entry exists.
func (s *Suite) Lookup(ctx context.Context, key string) (string, bool, error) {
	value, found, _, err := s.LookupV(ctx, key)
	return value, found, err
}

// Insert creates an entry for key. It returns ErrKeyExists if one exists.
func (s *Suite) Insert(ctx context.Context, key, value string) error {
	_, err := s.InsertV(ctx, key, value)
	return err
}

// Update replaces the value of an existing entry. It returns
// ErrKeyNotFound if the key has no entry.
func (s *Suite) Update(ctx context.Context, key, value string) error {
	_, err := s.UpdateV(ctx, key, value)
	return err
}

// Delete removes the entry for key. It returns ErrKeyNotFound if the key
// has no entry.
func (s *Suite) Delete(ctx context.Context, key string) error {
	_, err := s.DeleteV(ctx, key)
	return err
}

// LookupV is Lookup plus the winning version: the entry's version when
// found, the winning gap version otherwise. It costs one round of R
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

// RunInTxn runs fn as one atomic transaction: all directory operations
// performed through the supplied Tx either commit together or have no
// effect. fn may be re-executed after wait-die aborts or replica
// failures, so it must be idempotent from the caller's perspective (pure
// directory operations are).
//
// The Tx is fn's for the length of the call. One kept longer refuses
// every operation with txn.ErrFinished once the transaction is over.
func (s *Suite) RunInTxn(ctx context.Context, fn func(tx *Tx) error) error {
	// fn may keep the Tx, so it is never released: whoever holds a
	// reference to it finds its own finished transaction behind it,
	// never a later operation's.
	tx := s.acquire()
	tx.kept = true
	return s.run(ctx, manyOps, tx, fn)
}

// acquire returns a Tx to run an operation in: one left by an earlier
// operation if there is one.
func (s *Suite) acquire() *Tx {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	if n := len(s.idle); n > 0 {
		tx := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return tx
	}
	tx := &Tx{suite: s}
	tx.leg = func(i int) { tx.call(i); tx.legs.Done() }
	tx.own.Parallel = s.parallel
	tx.own.Landed = tx.landed
	return tx
}

// release takes back the Tx of an operation that is over, dropping what
// its slots still refer to, unless a caller may hold it (RunInTxn). The
// caller, whatever it called, and its release round must have let go.
func (s *Suite) release(tx *Tx) {
	if tx.kept {
		return
	}
	clear(tx.replies)
	clear(tx.coalesced)
	for i := range tx.runs {
		clear(tx.runs[i].replies)
	}
	tx.txn, tx.round, tx.marked, tx.cont = nil, round{}, rep.Marked{}, rep.Marked{}
	s.idleMu.Lock()
	s.idle = append(s.idle, tx)
	s.idleMu.Unlock()
}

// Drain blocks until the rounds that operations sent after returning —
// a read-only operation's release, a point write's commit — have landed,
// or until ctx is done.
func (s *Suite) Drain(ctx context.Context) error {
	for s.releasing.Load() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// Close waits for the release and commit rounds in flight to land, so a
// process that exits after it strands no locks at the representatives
// and leaves no transaction in doubt. The suite stays usable.
func (s *Suite) Close() { _ = s.Drain(context.Background()) }

// txShape is what the suite knows about a transaction before running
// it, which decides how many rounds its member calls can be folded
// into. The suite's own point operations know they are the whole
// transaction; a caller's RunInTxn, a scan, a repair and a cross-shard
// transaction can promise nothing and take the general form.
type txShape uint8

const (
	// manyOps: any number of operations. Strict two-phase locking at
	// every member, then a prepare round, then a commit round.
	manyOps txShape = iota
	// repairOps is manyOps for RepairReplica's pages, which release
	// inline even when they wrote nothing: the next page would meet the
	// last one's locks.
	repairOps
	// pointRead: exactly one quorum read. Each member call is one-shot
	// (rep.MarkOneShot): it is the transaction's lock point at that
	// member, so the member releases before it answers, nothing joins
	// the transaction and no second round is sent.
	pointRead
	// pointWrite: exactly one Insert, Update or Delete. An insert or
	// update whose version the suite remembers writes at once, the
	// prepare and the expectation riding (Tx.write): write, commit.
	// Otherwise the write quorum is drawn from the members that served
	// the version read where their votes suffice, and the write to each
	// carries the prepare (rep.MarkPrepare): read, write, commit. The
	// write is the commit point, so under parallel quorum the caller
	// does not wait for the commit round (txn.Txn.Release).
	pointWrite
)

// runTxn runs one of the suite's own operations: fn is the package's,
// and lets go of the Tx when it returns.
func (s *Suite) runTxn(ctx context.Context, shape txShape, fn func(tx *Tx) error) error {
	return s.run(ctx, shape, s.acquire(), fn)
}

// run is RunInTxn plus the transaction's shape and the Tx to run it in,
// attempt after attempt; the Tx goes back when the operation is over,
// or when its release round is.
//
// Every call ends up in exactly one of the commits, failures, or
// cancelled counters, so SuiteStats always satisfies
// Commits + Failures + Cancelled == Calls at rest.
func (s *Suite) run(ctx context.Context, shape txShape, tx *Tx, fn func(tx *Tx) error) error {
	s.counters.calls.Add(1)
	released := false
	defer func() {
		if !released {
			s.release(tx)
		}
	}()
	base := s.ids.Next()
	var exclude quorum.Set
	var lastErr error
	maxAttempts := min(s.maxRetries, txn.MaxAttempts-1)
	for attempt := 0; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			// The operation never got (another) attempt: it vanished from
			// neither commits nor failures, so count it as cancelled or
			// the Calls accounting identity would leak.
			s.counters.cancelled.Add(1)
			return err
		}
		// Each retry runs under its own attempt ID (same wait-die age),
		// so a dead attempt's two-phase-commit outcome can never be
		// confused with a live one.
		tx.own.Reset(txn.AttemptID(base, attempt))
		tx.begin(&tx.own, shape, exclude)
		// A retry reads what it writes on: the hint may be what failed.
		tx.hinted = attempt == 0
		err := fn(tx)
		// A success whose last round cannot change its result — a
		// read-only one, and a point write once it has voted — sends that
		// round once the caller has it; a failed attempt, a repair and any
		// other write end now (DESIGN.md §6 inv. 11).
		release := err == nil && (shape == pointWrite || !tx.mutated && shape != repairOps)
		switch {
		case release && tx.mutated:
			err = tx.txn.Vote(ctx)
		case err == nil && tx.mutated:
			err = tx.txn.Commit(ctx)
		case !release:
			_ = tx.txn.Abort(ctx)
		}
		if err == nil {
			s.counters.commits.Add(1)
			tx.flushMetrics()
			for _, l := range tx.learned {
				s.hints.learn(l.key, l.hint)
			}
			if release { // the Tx is its release round's from here
				s.releasing.Add(1)
				released = true
				tx.txn.Release(ctx)
			}
			return nil
		}
		lastErr = err
		if errors.Is(err, lock.ErrDie) {
			s.counters.dies.Add(1)
		}
		s.counters.replicaLosses.Add(uint64(bits.OnesCount64(uint64(tx.failed))))
		if errors.Is(err, rep.ErrStaleEpoch) {
			// Deliberately not retryable: the suite's whole configuration
			// is outdated, so re-running under the same quorums cannot
			// succeed. The error surfaces to the caller (reconfig.Manager
			// refreshes the configuration and retries there).
			s.counters.staleEpoch.Add(1)
		}
		if !Retryable(err) {
			s.counters.failures.Add(1)
			return err
		}
		s.counters.retries.Add(1)
		// A replica that failed mid-operation is skipped on the retry.
		exclude |= tx.failed
		// Back off briefly after wait-die aborts so older transactions
		// can finish; the transaction keeps its timestamp and therefore
		// ages toward immunity.
		if errors.Is(err, lock.ErrDie) {
			Backoff(ctx, attempt)
		}
	}
	s.counters.failures.Add(1)
	// Both identities survive errors.Is: callers distinguishing "out of
	// retries" from the underlying transient cause (the chaos soak
	// re-runs repair passes that died of ErrUnavailable, not of logic
	// errors) need the full chain.
	return fmt.Errorf("%w: %w", ErrRetriesExhausted, lastErr)
}

// Backoff waits before a wait-die retry, linearly with the attempt
// number, capped at 2ms. A cancelled context cuts the wait short so
// abandoned transactions stop retry-sleeping promptly (the loop in
// RunInTxn then observes ctx.Err).
func Backoff(ctx context.Context, attempt int) {
	t := time.NewTimer(min(time.Duration(attempt+1)*50*time.Microsecond, 2*time.Millisecond))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Retryable reports whether an operation that failed with err should be
// re-run; it is the one retry rule of the suite and the shard router.
// Wait-die victims always retry; losing a replica retries with that
// replica excluded; an attempt externally decided (by a resolver) re-runs
// under a fresh attempt ID; a write refused because the version it
// built on has moved reads the key on the retry. A server's refusal — shed
// (transport.ErrOverloaded) or expired (transport.ErrExpired) — is never
// retried, whatever else the error wraps: the member is alive and asking
// for less work, and a retry would only add it back. Quorum-collection
// failures are final (not enough replicas are up), as are semantic
// errors.
func Retryable(err error) bool {
	if errors.Is(err, transport.ErrOverloaded) || errors.Is(err, transport.ErrExpired) {
		return false
	}
	return errors.Is(err, lock.ErrDie) ||
		errors.Is(err, transport.ErrUnavailable) ||
		errors.Is(err, rep.ErrRecovering) ||
		errors.Is(err, rep.ErrTxnDecided) ||
		errors.Is(err, rep.ErrUnknownTxn) ||
		errors.Is(err, rep.ErrVersionMoved)
}

// validateKey rejects empty keys and keys in the reserved system
// namespace; the sentinels LOW and HIGH are not addressable through the
// public API by construction (every user string maps to a normal key).
func validateKey(key string) (keyspace.Key, error) {
	if key == "" {
		return keyspace.Key{}, errors.New("core: empty key")
	}
	if strings.HasPrefix(key, SysPrefix) {
		return keyspace.Key{}, fmt.Errorf("core: key %q is in the reserved system namespace", key)
	}
	return keyspace.New(key), nil
}
