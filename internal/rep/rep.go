// Package rep implements a directory representative: one replica of the
// directory data, exposing the five operations of the paper's Figure 6
// (DirRepLookup, DirRepPredecessor, DirRepSuccessor, DirRepInsert,
// DirRepCoalesce) plus the transaction control needed to participate in
// atomic directory-suite operations (prepare / commit / abort).
//
// Each representative permanently stores the sentinel entries LOW and
// HIGH, so every key has a real predecessor and a real successor. Between
// every pair of adjacent entries lies a gap whose version number is held
// in the GapAfter field of the gap's lower bounding entry (the B-tree
// representation sketched in section 5 of the paper).
//
// Concurrency control is the Figure 7 type-specific range locking from
// package lock, with strict two-phase locking: locks taken by an
// operation are held until the transaction commits or aborts. Recovery
// uses redo logging through package wal.
//
// The Rep mutex guards the in-memory state only. Prepare, Commit and
// Abort wait for the log with the mutex released (see logStep), so an
// fsync delays the transaction that asked for it and whoever conflicts
// with its range locks, and nothing else.
package rep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/btree"
	"repdir/internal/interval"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// Errors reported by representative operations. ErrDie (from package
// lock) additionally flows through every operation that takes locks.
var (
	// ErrSentinel is returned when an operation targets LOW or HIGH in a
	// way the algorithm forbids (inserting or coalescing over them).
	ErrSentinel = errors.New("rep: operation not permitted on sentinel key")
	// ErrMissingBound is returned by Coalesce when no entry exists for
	// one of the bounding keys ("An error is indicated if entries do not
	// exist for keys l and h", Figure 6).
	ErrMissingBound = errors.New("rep: coalesce bound has no entry")
	// ErrBadRange is returned by Coalesce when l does not sort strictly
	// before h.
	ErrBadRange = errors.New("rep: coalesce bounds out of order")
	// ErrNoNeighbor is returned by Predecessor(LOW) and Successor(HIGH),
	// which have no neighbor in the key domain.
	ErrNoNeighbor = errors.New("rep: key has no neighbor in that direction")
	// ErrTxnDecided is returned when an operation arrives under a
	// transaction ID whose two-phase-commit outcome this representative
	// has already recorded (e.g. a resolver finished it). The caller
	// must retry under a fresh attempt ID.
	ErrTxnDecided = errors.New("rep: transaction already decided")
	// ErrUnknownTxn is the abort vote — of Prepare, or of a continuing
	// call (marks.go) — for a transaction this representative has no
	// record of: it never operated here, or a crash or its deadline
	// (reap.go) wiped its state — committing would silently lose its
	// writes or rest on locks it no longer holds.
	ErrUnknownTxn = errors.New("rep: unknown transaction")
	// ErrWriterCount is the refusal of a prepare, at a representative
	// the transaction wrote at, that names no writer count or one above
	// MaxWriters (marks.go): the prepare record would not say how many
	// prepares make the transaction committed.
	ErrWriterCount = errors.New("rep: prepare names no valid writer count")
	// ErrReservedTxn refuses a transactional call under transaction 0:
	// the records of a log's checkpoint section are logged under it
	// (durable.go), so no transaction may write, lock or decide under
	// it. No IDSource issues it. Status of transaction 0 is answered.
	ErrReservedTxn = errors.New("rep: transaction 0 is reserved")
	// ErrRecovering is returned by read operations while the
	// representative is rebuilding lost storage from its peers. A
	// replica that forgot acknowledged writes must not serve reads —
	// its stale versions (and, worse, its version.Lowest gap versions)
	// would poison quorum version comparisons — but it keeps accepting
	// writes so the rebuild itself and concurrent client traffic can
	// install entries. The suite treats this error like an unavailable
	// member and reads around it. Status answers it in place of
	// StatusUnknown: the member cannot vouch that it never prepared.
	ErrRecovering = errors.New("rep: replica recovering from storage loss")
	// ErrVersionMoved is the refusal of an Insert whose expectation
	// (marks.go) the key's stored version contradicts: the coordinator's
	// remembered version is stale, and it must read the key instead.
	ErrVersionMoved = errors.New("rep: key's version moved past the expected one")
)

// LookupResult is the reply to Lookup. When Found is false, Version is
// the version number of the gap containing the key.
type LookupResult struct {
	Found   bool
	Version version.V
	Value   string
}

// NeighborResult is the reply to Predecessor and Successor. GapVersion is
// the version of the gap between the probe key and the neighbor.
type NeighborResult struct {
	Key        keyspace.Key
	Version    version.V
	Value      string
	GapVersion version.V
}

// CoalesceResult reports what a Coalesce removed; the directory suite uses
// it to compute the paper's section 4 statistics.
type CoalesceResult struct {
	// DeletedKeys are the keys of the entries that lay strictly between
	// the bounds (ghosts plus, possibly, the entry being deleted).
	DeletedKeys []keyspace.Key
}

// Directory is the representative-side interface; it is implemented
// locally by *Rep and remotely by the RPC clients in package transport.
type Directory interface {
	// Name identifies the representative.
	Name() string
	// Lookup implements DirRepLookup: the entry's version and value if
	// present, otherwise the version of the gap containing key.
	Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (LookupResult, error)
	// Predecessor implements DirRepPredecessor for the entry with the
	// largest key less than key.
	Predecessor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (NeighborResult, error)
	// Successor implements DirRepSuccessor for the entry with the
	// smallest key greater than key.
	Successor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (NeighborResult, error)
	// PredecessorBatch and SuccessorBatch return up to max successive
	// neighbors in one message — the section 4 batching optimization.
	PredecessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]NeighborResult, error)
	SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]NeighborResult, error)
	// Insert implements DirRepInsert: create or overwrite the entry for
	// key with the given version and value.
	Insert(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V, value string) error
	// Coalesce implements DirRepCoalesce: delete all entries strictly
	// between lo and hi and give the resulting gap version ver.
	Coalesce(ctx context.Context, txn lock.TxnID, lo, hi keyspace.Key, ver version.V) (CoalesceResult, error)
	// Prepare, Commit, and Abort drive two-phase commit. Commit without
	// a prior Prepare performs both phases locally (one-shot commit).
	Prepare(ctx context.Context, txn lock.TxnID) error
	Commit(ctx context.Context, txn lock.TxnID) error
	Abort(ctx context.Context, txn lock.TxnID) error
	// Status reports this representative's knowledge of a transaction's
	// fate, for cooperative termination of in-doubt two-phase commits.
	Status(ctx context.Context, txn lock.TxnID) (TxnStatus, error)
}

// undoStep restores one entry to what it was before an operation
// touched it: stored again as it was, or removed if the operation
// created it.
type undoStep struct {
	was     btree.Entry
	created bool
}

// txnState tracks one in-flight transaction at this representative.
// pendingRedo is set only on transactions reconstructed as in-doubt
// during recovery: their effects were not applied and must be installed
// if Commit arrives. writers is the writer count its prepare named.
// logged marks a transaction whose prepare went to the log, durably or
// not — an abort of it must be logged too, or a restart could find the
// prepare alone. logging marks a Prepare, Commit or Abort that is
// waiting for the log with r.mu released; every other call under the
// same transaction ID waits in settled until it clears. due is the
// deadline its calls set (reap.go).
//
// undo and redo begin in the arrays beside them, which hold what one
// write leaves behind, and the state itself is reused (Rep.idle): the
// common transaction allocates nothing here.
type txnState struct {
	undo        []undoStep
	redo        []wal.Record
	pendingRedo []wal.Record
	writers     int
	prepared    bool
	logged      bool
	logging     bool
	due         time.Time
	undo0       [2]undoStep
	redo0       [1]wal.Record
}

// Rep is an in-process directory representative.
type Rep struct {
	name  string
	locks *lock.Manager

	mu       sync.Mutex // guards store, txns, outcomes, and fence
	store    *btree.Tree
	writes   uint64 // counts the store's mutations: unchanged means a read still stands
	txns     map[lock.TxnID]*txnState
	idle     []*txnState         // forgotten states, for txn to use again
	outcomes map[lock.TxnID]bool // decided 2PC participants: true = committed
	stepDone sync.Cond           // on mu: some transaction's logging flag cleared
	log      wal.Log
	stats    counters

	// fence is the configuration epoch this representative is fenced
	// at: fenced operations from callers with an older epoch are
	// rejected with ErrStaleEpoch (see epoch.go). Durable via KindEpoch
	// log records, which a checkpoint carries over.
	fence uint64
	// witness marks a zero-data member: values are blanked before
	// storage and logging (see AsWitness).
	witness bool

	// recovering gates reads while lost storage is rebuilt from peers;
	// see ErrRecovering.
	recovering atomic.Bool

	clock  Clock // the reaper's (reap.go), its timer, and when it is due
	reaper Timer
	reapAt time.Time
}

var _ Directory = (*Rep)(nil)

// Option configures a Rep.
type Option func(*Rep)

// WithLog attaches a write-ahead log; committed mutations become
// recoverable through Recover.
func WithLog(l wal.Log) Option { return func(r *Rep) { r.log = l } }

// New returns an empty representative containing only the LOW and HIGH
// sentinels, with the initial gap at version Lowest.
func New(name string, opts ...Option) *Rep {
	r := &Rep{
		name:     name,
		locks:    lock.NewManager(),
		store:    btree.New(),
		txns:     make(map[lock.TxnID]*txnState),
		outcomes: make(map[lock.TxnID]bool),
		clock:    wallClock{},
	}
	r.stepDone.L = &r.mu
	r.store.Put(btree.Entry{Key: keyspace.Low(), Version: version.Lowest, GapAfter: version.Lowest})
	r.store.Put(btree.Entry{Key: keyspace.High(), Version: version.Lowest})
	for _, o := range opts {
		o(r)
	}
	return r
}

// Recover rebuilds a representative from the records of its write-ahead
// log, applying the redo records of committed transactions in commit
// order. Transactions that never prepared are discarded (presumed
// abort); prepared-but-undecided transactions are reconstructed as
// in-doubt — effects withheld, write locks held — awaiting Commit,
// Abort, or cooperative termination (txn.Resolve).
func Recover(name string, records []wal.Record, opts ...Option) (*Rep, error) {
	r := New(name, opts...)
	a, err := wal.Analyze(records)
	if err != nil {
		return nil, fmt.Errorf("rep: recover %s: %w", name, err)
	}
	if err := r.installAnalysis(a); err != nil {
		return nil, fmt.Errorf("rep: recover %s: %w", name, err)
	}
	return r, nil
}

// Name returns the representative's identifier.
func (r *Rep) Name() string { return r.name }

// SetRecovering marks (or clears) the replica as rebuilding from peers.
// While set, read operations (and Status, for a transaction it has no
// record of) return ErrRecovering; writes, prepares,
// and commits proceed so repair traffic and concurrent client writes
// can land.
func (r *Rep) SetRecovering(v bool) { r.recovering.Store(v) }

// Recovering reports whether reads are gated by a storage rebuild.
func (r *Rep) Recovering() bool { return r.recovering.Load() }

// readable bounces reads while the replica is rebuilding.
func (r *Rep) readable() error {
	if r.recovering.Load() {
		return fmt.Errorf("%w: %s", ErrRecovering, r.name)
	}
	return nil
}

// Lookup implements Directory. Sentinel keys are always present.
// Locks RepLookup(key, key) — until the transaction ends, or, under the
// one-shot mark (marks.go), only until the answer is read: the call
// then leaves neither a lock nor a transaction record behind.
func (r *Rep) Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (LookupResult, error) {
	if txn == 0 {
		return LookupResult{}, ErrReservedTxn
	}
	if err := r.checkEpoch(ctx); err != nil {
		return LookupResult{}, err
	}
	if err := r.readable(); err != nil {
		return LookupResult{}, err
	}
	g, err := r.locks.AcquireOne(ctx, txn, lock.ModeLookup, interval.Point(key))
	if err != nil {
		return LookupResult{}, err
	}
	r.stats.lookups.Add(1)
	oneShot := OneShot(ctx)
	if oneShot {
		defer r.locks.Release(g) // once r.mu is let go
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !oneShot {
		if _, err := r.join(ctx, txn); err != nil {
			return LookupResult{}, err
		}
	}
	return r.get(key)
}

// get answers a Lookup from the store; callers hold r.mu and the lock.
func (r *Rep) get(key keyspace.Key) (LookupResult, error) {
	if e, ok := r.store.Get(key); ok {
		return LookupResult{Found: true, Version: e.Version, Value: e.Value}, nil
	}
	pred, ok := r.store.Lower(key)
	if !ok {
		// Unreachable: LOW is always present and sorts below every
		// missing key.
		return LookupResult{}, fmt.Errorf("rep: %s: no lower bound for %s", r.name, key)
	}
	return LookupResult{Found: false, Version: pred.GapAfter}, nil
}

// Predecessor implements Directory: a batch of one (batch.go). Locks
// RepLookup(y, key) where y is the key returned.
func (r *Rep) Predecessor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (NeighborResult, error) {
	return first(r.PredecessorBatch(ctx, txn, key, 1))
}

// Successor implements Directory. Locks RepLookup(key, y) where y is the
// key returned.
func (r *Rep) Successor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (NeighborResult, error) {
	return first(r.SuccessorBatch(ctx, txn, key, 1))
}

func first(batch []NeighborResult, err error) (NeighborResult, error) {
	if err != nil {
		return NeighborResult{}, err
	}
	return batch[0], nil
}

// Insert implements Directory. Creating a new entry splits the gap it
// lands in; both halves keep the gap's version number. Overwriting an
// existing entry leaves gap versions untouched. Under the prepare mark
// (marks.go) the transaction is prepared before the call returns; under
// an expectation, the call is refused, keeping nothing, if the key's
// version has moved past it. Locks RepModify(key, key).
func (r *Rep) Insert(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	if txn == 0 {
		return ErrReservedTxn
	}
	if key.IsSentinel() {
		return fmt.Errorf("%w: insert %s", ErrSentinel, key)
	}
	if err := r.checkEpoch(ctx); err != nil {
		return err
	}
	if r.witness {
		// A witness keeps the version bookkeeping but no data: the value
		// is blanked before the undo/redo records are built, so neither
		// the store nor the log ever holds it.
		value = ""
	}
	if err := r.locks.Acquire(ctx, txn, lock.ModeModify, interval.Point(key)); err != nil {
		return err
	}
	r.mu.Lock()
	if err := r.expected(ctx, txn, key, ver); err != nil {
		r.mu.Unlock()
		r.locks.ReleaseAll(txn)
		r.stats.inserts.Add(1) // served, if only to say no
		return err
	}
	defer r.mu.Unlock()
	st, err := r.join(ctx, txn)
	if err != nil {
		return err
	}
	was, existed := r.applyInsert(key, ver, value)
	st.undo = append(st.undo, undoStep{was: was, created: !existed})
	r.stats.inserts.Add(1)
	st.redo = append(st.redo, wal.Record{
		Kind:    wal.KindInsert,
		Txn:     uint64(txn),
		Key:     key,
		Version: ver,
		Value:   value,
	})
	if PrepareRides(ctx) {
		return r.vote(st, txn, WritersFrom(ctx))
	}
	return nil
}

// expected checks the expectation an Insert at version ver carries
// (marks.go) for a transaction neither known here nor decided; a
// duplicate is not checked again. It refuses a version above ver-1, or
// ver-1 in the other form: an older one only means this member missed
// writes. The key's RepModify lock is held, so nothing moves meanwhile;
// a member rebuilding lost storage refuses as it refuses reads. Callers
// hold r.mu.
func (r *Rep) expected(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V) error {
	m := MarksFrom(ctx) & (ExpectEntryMark | ExpectGapMark)
	if m == 0 || r.settled(txn) != nil {
		return nil
	}
	if _, decided := r.outcomes[txn]; decided {
		return nil
	}
	if err := r.readable(); err != nil {
		return err
	}
	cur, err := r.get(key)
	if err != nil {
		return err
	}
	if cur.Version.Next() < ver || cur.Version.Next() == ver && cur.Found == (m == ExpectEntryMark) {
		return nil
	}
	return fmt.Errorf("%w: %s holds version %d (entry %v) at %s, insert at %d", ErrVersionMoved, key, cur.Version, cur.Found, r.name, ver)
}

// applyInsert performs the store mutation for Insert and returns the
// entry as it was, or its bare key if there was none; callers hold r.mu
// (or have exclusive access during recovery).
func (r *Rep) applyInsert(key keyspace.Key, ver version.V, value string) (was btree.Entry, existed bool) {
	r.writes++
	if was, existed = r.store.Get(key); existed {
		now := was
		now.Version, now.Value = ver, value
		r.store.Put(now)
		return was, true
	}
	pred, _ := r.store.Lower(key)
	r.store.Put(btree.Entry{Key: key, Version: ver, Value: value, GapAfter: pred.GapAfter})
	return btree.Entry{Key: key}, false
}

// Coalesce implements Directory; under the prepare mark (marks.go) the
// transaction is prepared before the call returns.
// Locks RepModify(lo, hi).
func (r *Rep) Coalesce(ctx context.Context, txn lock.TxnID, lo, hi keyspace.Key, ver version.V) (CoalesceResult, error) {
	if txn == 0 {
		return CoalesceResult{}, ErrReservedTxn
	}
	if !lo.Less(hi) {
		return CoalesceResult{}, fmt.Errorf("%w: %s..%s", ErrBadRange, lo, hi)
	}
	if err := r.checkEpoch(ctx); err != nil {
		return CoalesceResult{}, err
	}
	if err := r.locks.Acquire(ctx, txn, lock.ModeModify, interval.Span(lo, hi)); err != nil {
		return CoalesceResult{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := r.join(ctx, txn)
	if err != nil {
		return CoalesceResult{}, err
	}
	bound, victims, err := r.applyCoalesce(lo, hi, ver)
	if err != nil {
		return CoalesceResult{}, err
	}
	st.undo = append(st.undo, undoStep{was: bound})
	keys := make([]keyspace.Key, len(victims))
	for i, e := range victims {
		st.undo = append(st.undo, undoStep{was: e})
		keys[i] = e.Key
	}
	r.stats.coalesces.Add(1)
	r.stats.entriesCoalesced.Add(uint64(len(victims)))
	st.redo = append(st.redo, wal.Record{
		Kind:    wal.KindCoalesce,
		Txn:     uint64(txn),
		Key:     lo,
		Hi:      hi,
		Version: ver,
	})
	if PrepareRides(ctx) {
		if err := r.vote(st, txn, WritersFrom(ctx)); err != nil {
			return CoalesceResult{}, err
		}
	}
	return CoalesceResult{DeletedKeys: keys}, nil
}

// applyCoalesce performs the store mutation for Coalesce, or none if a
// bound is missing, and returns the low bound's entry as it was and the
// entries removed; callers hold r.mu (or have exclusive access during
// recovery).
func (r *Rep) applyCoalesce(lo, hi keyspace.Key, ver version.V) (bound btree.Entry, victims []btree.Entry, err error) {
	bound, ok := r.store.Get(lo)
	if !ok {
		return bound, nil, fmt.Errorf("%w: low bound %s", ErrMissingBound, lo)
	}
	if _, ok := r.store.Get(hi); !ok {
		return bound, nil, fmt.Errorf("%w: high bound %s", ErrMissingBound, hi)
	}
	r.writes++
	victims = r.store.DeleteBetween(lo, hi)
	now := bound
	now.GapAfter = ver
	r.store.Put(now)
	return bound, victims, nil
}

// Prepare implements Directory: phase one of two-phase commit. The
// transaction's redo records and a prepare record naming the writer
// count ctx carries (marks.go) are forced to the log.
//
// A participant that only read has nothing to force and nothing to
// commit, so its yes vote is also its last act: it releases the
// transaction's locks and forgets it, and the coordinator sends it no
// second message. (The coordinator asks only after every participant
// has granted every lock the transaction takes, so the release is past
// the lock point.) The vote still has to be asked for: a reader that
// crashed has lost read locks the transaction relied on, and says so
// here with ErrUnknownTxn. Having logged nothing, a reader that crashes
// after voting answers StatusUnknown, which cooperative termination
// does not count against the transaction: the writer count is of the
// participants that wrote, and they do log.
func (r *Rep) Prepare(ctx context.Context, txn lock.TxnID) error {
	if txn == 0 {
		return ErrReservedTxn
	}
	if err := r.checkEpoch(ctx); err != nil {
		return err
	}
	r.mu.Lock()
	if err := r.undecided(txn); err != nil {
		r.mu.Unlock()
		return err
	}
	st, ok := r.txns[txn]
	if !ok {
		// Vote abort: this representative has no record of the
		// transaction. Either it never operated here, or a crash wiped
		// its state — committing would silently drop its writes.
		r.mu.Unlock()
		return fmt.Errorf("%w: txn %d", ErrUnknownTxn, txn)
	}
	if !st.prepared && len(st.redo) == 0 {
		r.forget(txn, st)
		r.mu.Unlock()
		r.locks.ReleaseAll(txn)
		r.stats.prepares.Add(1)
		return nil
	}
	prepared := st.prepared
	err := r.vote(st, txn, WritersFrom(ctx))
	r.mu.Unlock()
	if err == nil && !prepared {
		r.stats.prepares.Add(1)
	}
	return err
}

// vote prepares a transaction that wrote here: its redo records and a
// prepare record naming its writer count are made durable. A count
// outside 1..MaxWriters — zero when the caller named none — is refused
// with ErrWriterCount. Callers hold r.mu.
func (r *Rep) vote(st *txnState, txn lock.TxnID, writers int) error {
	if st.prepared {
		return nil
	}
	if writers < 1 || writers > MaxWriters {
		return fmt.Errorf("%w: %d (txn %d at %s)", ErrWriterCount, writers, txn, r.name)
	}
	st.writers, st.logged = writers, true
	if err := r.logStep(st, txn, st.redo, wal.KindPrepare); err != nil {
		return err
	}
	st.prepared = true
	return nil
}

// Commit implements Directory: make the transaction's effects permanent
// and release its locks. A Commit without a prior Prepare prepares first,
// as the transaction's one writer (one-shot commit for single-participant
// transactions), so that the decision rests on a forced prepare record:
// the commit record itself is written to the log but not forced.
// Committing an in-doubt transaction reconstructed by recovery installs
// its withheld effects after the commit record is logged. Every commit
// that had something to commit is recorded in outcomes, so a duplicate
// or late operation under the same transaction ID is answered with
// ErrTxnDecided (or an idempotent nil for a re-commit) instead of
// silently seeding fresh transaction state.
func (r *Rep) Commit(ctx context.Context, txn lock.TxnID) error {
	if txn == 0 {
		return ErrReservedTxn
	}
	r.adoptEpoch(ctx)
	r.mu.Lock()
	st := r.settled(txn)
	if committed, decided := r.outcomes[txn]; decided {
		r.mu.Unlock()
		if committed {
			return nil // idempotent re-commit
		}
		return fmt.Errorf("%w: commit of aborted txn %d", ErrTxnDecided, txn)
	}
	if st == nil {
		// No record of the transaction at all: nothing committed here,
		// so nothing is counted; a call refused under it holds no lock.
		r.mu.Unlock()
		return nil
	}
	// Log before mutating the store: if an append fails, the store is
	// untouched (in-doubt effects stay withheld, state is retained) and
	// the commit can be retried — never a mutated store with no commit
	// record behind it.
	if err := r.vote(st, txn, 1); err != nil {
		r.mu.Unlock()
		return err
	}
	if err := r.logStep(st, txn, nil, wal.KindCommit); err != nil {
		r.mu.Unlock()
		return err
	}
	for _, rec := range st.pendingRedo {
		switch rec.Kind {
		case wal.KindInsert:
			r.applyInsert(rec.Key, rec.Version, rec.Value)
		case wal.KindCoalesce:
			if _, _, err := r.applyCoalesce(rec.Key, rec.Hi, rec.Version); err != nil {
				// The commit record is durable; the transaction state is
				// retained so a retry re-applies from the top (both redo
				// kinds are idempotent). This is unreachable while the
				// in-doubt locks reconstructed by recovery are held.
				r.mu.Unlock()
				return fmt.Errorf("rep: %s: commit in-doubt txn %d: %w", r.name, txn, err)
			}
		}
	}
	r.outcomes[txn] = true
	r.forget(txn, st)
	r.mu.Unlock()
	r.locks.ReleaseAll(txn)
	r.stats.commits.Add(1)
	return nil
}

// Abort implements Directory: undo the transaction's effects and release
// its locks. Aborting a transaction that logged its prepare logs the
// abort, and the log forces it: every writer holding a prepare record
// would otherwise make it committed (txn.Resolve).
func (r *Rep) Abort(ctx context.Context, txn lock.TxnID) error {
	if txn == 0 {
		return ErrReservedTxn
	}
	r.adoptEpoch(ctx)
	r.mu.Lock()
	st := r.settled(txn)
	if committed, decided := r.outcomes[txn]; decided {
		r.mu.Unlock()
		if !committed {
			return nil // idempotent re-abort
		}
		return fmt.Errorf("%w: abort of committed txn %d", ErrTxnDecided, txn)
	}
	if st != nil {
		if err := r.drop(txn, st); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()
	r.locks.ReleaseAll(txn)
	r.stats.aborts.Add(1)
	return nil
}

// drop undoes txn's writes, logs its abort if it logged its prepare (on
// failure it stays known), and forgets it; callers hold r.mu, and
// release its locks once they let go of it.
func (r *Rep) drop(txn lock.TxnID, st *txnState) error {
	for i := len(st.undo) - 1; i >= 0; i-- {
		r.writes++
		if u := &st.undo[i]; u.created {
			r.store.Delete(u.was.Key)
		} else {
			r.store.Put(u.was)
		}
	}
	if st.logged {
		if err := r.logStep(st, txn, nil, wal.KindAbort); err != nil {
			return err
		}
		r.outcomes[txn] = false
	}
	r.forget(txn, st)
	return nil
}

// logStep is the logged part of Prepare, Commit and Abort: it appends
// redo and then the marker record for txn — a prepare naming st.writers
// — with r.mu released so that neither the write nor an fsync stalls the
// representative. Callers hold r.mu, and hold it again on return. Three
// things keep that safe:
//
//   - The transaction's range locks stay held until its caller releases
//     them after logStep returns, so no other transaction reads or logs
//     behind a record that is not yet written, and conflicting
//     transactions reach the log in the order they commit.
//   - st.logging admits one durable step per transaction: any other
//     call under the same ID waits in settled and then sees the step's
//     result, exactly as it did when r.mu was held throughout.
//   - The transaction stays in r.txns for the whole wait, so
//     checkpointRecords answers ErrBusy and no checkpoint is cut across
//     it.
//
// On failure the transaction's state is as it was before the call, and
// the step can be retried.
//
// A transaction with nothing a log could replay — it only read here —
// skips the log altogether: an Abort of one Prepare has not yet seen,
// or a Commit from a coordinator that does not tell readers apart.
func (r *Rep) logStep(st *txnState, txn lock.TxnID, redo []wal.Record, marker wal.Kind) error {
	if r.log == nil || len(st.redo) == 0 && len(st.pendingRedo) == 0 {
		return nil
	}
	st.logging = true
	r.mu.Unlock()
	var err error
	for i := 0; i < len(redo) && err == nil; i++ {
		err = r.appendRecord(redo[i])
	}
	if err == nil {
		rec := wal.Record{Kind: marker, Txn: uint64(txn)}
		if marker == wal.KindPrepare {
			rec.Writers = uint64(st.writers)
		}
		err = r.appendRecord(rec)
	}
	r.mu.Lock()
	st.logging = false
	r.stepDone.Broadcast()
	return err
}

// settled returns txn's state (nil if there is none) once no durable
// step of it is in flight; callers hold r.mu, which is released while
// waiting.
func (r *Rep) settled(txn lock.TxnID) *txnState {
	st := r.txns[txn]
	for st != nil && st.logging {
		r.stepDone.Wait()
		st = r.txns[txn]
	}
	return st
}

// undecided rejects operations arriving under an already-decided
// transaction ID, first waiting out a durable step that is deciding it;
// callers hold r.mu.
func (r *Rep) undecided(id lock.TxnID) error {
	r.settled(id)
	if committed, decided := r.outcomes[id]; decided {
		return fmt.Errorf("%w: txn %d (committed=%v)", ErrTxnDecided, id, committed)
	}
	return nil
}

// join returns the state a call that holds its lock records itself in —
// reads too, so that Prepare can tell a participant from one a crash
// wiped — with the call's deadline (reap.go), in a forgotten state if
// there is one. It refuses a decided transaction, an unknown one under
// the continuing mark, and a call past its deadline, which a reap may
// have overtaken; what an unknown one's call took is given back.
func (r *Rep) join(ctx context.Context, id lock.TxnID) (*txnState, error) {
	err, left := r.undecided(id), budget(ctx)
	st, known := r.txns[id]
	switch {
	case err != nil:
	case !known && Continuing(ctx):
		err = fmt.Errorf("%w: txn %d", ErrUnknownTxn, id)
	case left <= 0:
		err = context.DeadlineExceeded
	}
	if err != nil {
		if !known {
			r.mu.Unlock()
			r.locks.ReleaseAll(id)
			r.mu.Lock()
		}
		return nil, err
	}
	if !known {
		if n := len(r.idle); n > 0 {
			st, r.idle = r.idle[n-1], r.idle[:n-1]
		} else {
			st = new(txnState)
		}
		st.undo, st.redo = st.undo0[:0], st.redo0[:0]
		r.txns[id] = st
	}
	r.renew(st, left)
	return st, nil
}

// forget drops txn's state, which is over, and keeps it for the next
// transaction. Callers hold r.mu and do not touch st again: whoever
// else wanted it waits in settled, and looks it up afresh.
func (r *Rep) forget(id lock.TxnID, st *txnState) {
	delete(r.txns, id)
	*st = txnState{}
	r.idle = append(r.idle, st)
}

// appendRecord writes a record to the log if one is attached.
func (r *Rep) appendRecord(rec wal.Record) error {
	if r.log == nil {
		return nil
	}
	if err := r.log.Append(rec); err != nil {
		return fmt.Errorf("rep: %s: log append: %w", r.name, err)
	}
	return nil
}

// Locks exposes the representative's lock manager statistics.
func (r *Rep) Locks() *lock.Manager { return r.locks }

// Len returns the number of entries stored, including the two sentinels.
func (r *Rep) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Len()
}

// Dump returns a snapshot of all entries in key order, sentinels
// included. Intended for tests, audits, and debugging.
func (r *Rep) Dump() []btree.Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Entries()
}
