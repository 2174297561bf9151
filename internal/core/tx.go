package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/version"
)

// Tx is one transaction against a directory suite. All operations called
// on a Tx are atomic as a group: they take effect only if the enclosing
// RunInTxn commits. A Tx is not safe for concurrent use.
type Tx struct {
	suite   *Suite
	txn     *txn.Txn
	exclude map[string]bool

	// trace is the enclosing operation's trace (nil when the suite has
	// no observer; every method on a nil trace no-ops). msgs counts the
	// representative messages this attempt sent — the paper's section 4
	// cost unit — and is folded into the operation total by runTxn.
	trace *obs.Trace
	msgs  int

	// shape is what the suite promised about the transaction (suite.go).
	shape txShape
	// read is the quorum of a point write's version read: the members
	// its write quorum is drawn from, and that can take the prepare on
	// the write because they already know the transaction.
	read []quorum.Member
	// failed collects members that became unavailable during this
	// attempt, so the retry can route around them.
	failed map[string]bool
	// mutated records whether any representative state changed; pure
	// read transactions release their locks with a cheap abort.
	mutated bool
	// hedgeMsgs counts messages sent by hedge probe goroutines during a
	// quorum round; folded into msgs after the round's barrier (msgs
	// itself is not written concurrently).
	hedgeMsgs atomic.Int64
	// observations buffers per-delete statistics until commit.
	observations []DeleteObservation
}

// span opens a trace span named "name detail" when tracing is on; the
// two-part form keeps the string concatenation off untraced paths. The
// zero SpanHandle it returns otherwise is a no-op.
func (tx *Tx) span(name, detail string) obs.SpanHandle {
	if tx.trace == nil {
		return obs.SpanHandle{}
	}
	if detail != "" {
		name = name + " " + detail
	}
	return tx.trace.StartSpan(name)
}

// observePhase is the txn.Txn Phase hook: it counts the round's
// messages, opens a 2PC span, and feeds the phase histogram.
func (tx *Tx) observePhase(phase string, participants int) func() {
	tx.msgs += participants
	sp := tx.span("2pc-"+phase, "")
	start := time.Now()
	return func() {
		sp.End()
		tx.suite.obs.PhaseDone(phase, time.Since(start))
	}
}

// isUnavailable reports whether an error means the member cannot serve
// this round: unreachable over the transport, or alive but refusing
// reads while it rebuilds lost storage (rep.ErrRecovering). Both are
// handled the same way — exclude the member and retry elsewhere.
func isUnavailable(err error) bool {
	return errors.Is(err, transport.ErrUnavailable) || errors.Is(err, rep.ErrRecovering)
}

// noteFailure records an unavailable member, feeding the health
// tracker (every path that loses a member passes through here).
func (tx *Tx) noteFailure(name string, err error) {
	if !isUnavailable(err) {
		return
	}
	if tx.failed == nil {
		tx.failed = make(map[string]bool)
	}
	tx.failed[name] = true
	if h := tx.suite.health; h != nil {
		h.ReportFailure(name)
	}
}

// finish commits a mutating transaction (two-phase commit across the
// representatives that participated) or releases a read-only one.
func (tx *Tx) finish(ctx context.Context) error {
	if tx.mutated {
		return tx.txn.Commit(ctx)
	}
	// Read-only: abort releases locks without logging; it cannot change
	// any state because none was written. A point read joined nobody and
	// sends nothing.
	return tx.txn.Abort(ctx)
}

// flushMetrics reports buffered observations after a successful commit.
func (tx *Tx) flushMetrics() {
	for _, o := range tx.observations {
		if tx.suite.metrics != nil {
			tx.suite.metrics.ObserveDelete(o)
		}
		tx.suite.obs.DeleteObserved(o.NeighborRPCs,
			o.PredecessorWalkSteps+o.SuccessorWalkSteps,
			o.GhostDeletions, o.Insertions)
	}
}

// readQuorum and writeQuorum assemble quorums honoring exclusions.
func (tx *Tx) readQuorum() ([]quorum.Member, error) {
	return tx.wrapMembers(tx.selectQuorum(quorum.Read))
}

func (tx *Tx) writeQuorum() ([]quorum.Member, error) {
	return tx.wrapMembers(tx.selectQuorum(quorum.Write))
}

// wrapMembers rebinds a selected quorum to epoch-stamping directory
// wrappers (no-op for epoch-zero suites). The slice is copied first —
// selectors may return views of their own member storage.
func (tx *Tx) wrapMembers(members []quorum.Member, err error) ([]quorum.Member, error) {
	if err != nil || tx.suite.cfg.Epoch == 0 {
		return members, err
	}
	out := make([]quorum.Member, len(members))
	copy(out, members)
	for i := range out {
		out[i].Dir = tx.suite.wrapDir(out[i].Dir)
	}
	return out, nil
}

// selectQuorum merges the transaction's own exclusions with the health
// tracker's open circuits. If skipping Down members leaves no quorum,
// the health exclusions are waived for the round: the breaker exists to
// avoid wasted probes, not to fail operations the representatives might
// still serve.
func (tx *Tx) selectQuorum(kind quorum.Kind) ([]quorum.Member, error) {
	h := tx.suite.health
	if h == nil {
		return tx.suite.sel.Select(kind, tx.exclude)
	}
	open := h.RoundExclusions()
	if len(open) == 0 {
		return tx.suite.sel.Select(kind, tx.exclude)
	}
	merged := make(map[string]bool, len(open)+len(tx.exclude))
	for name := range tx.exclude {
		merged[name] = true
	}
	for name := range open {
		merged[name] = true
	}
	members, err := tx.suite.sel.Select(kind, merged)
	if errors.Is(err, quorum.ErrNoQuorum) {
		h.noteFallback()
		return tx.suite.sel.Select(kind, tx.exclude)
	}
	return members, err
}

// Lookup implements DirSuiteLookup (Figure 8) within the transaction.
func (tx *Tx) Lookup(ctx context.Context, key string) (string, bool, error) {
	k, err := validateKey(key)
	if err != nil {
		return "", false, err
	}
	res, err := tx.suiteLookup(ctx, k)
	if err != nil {
		return "", false, err
	}
	return res.Value, res.Found, nil
}

// suiteLookup sends DirRepLookup to a read quorum and returns the reply
// with the largest version number. When Found is false, Version is the
// winning gap version.
//
// In a point read the quorum round is the whole transaction, and every
// call in it is one-shot: the member locks, answers and releases, so
// the reply needs no second round to clean up after it. The result is
// still linearizable per key. A write exposes its version at no member
// before all of its write quorum hold their RepModify locks and have
// prepared, and each of them keeps the lock until it has committed; a
// read quorum meets that write quorum in some member, which is then
// unwritten, locked, or committed. Unwritten, the read took its answer
// before the write exposed anything anywhere, and is ordered before it.
// Locked, the read waits (or dies and retries) until committed. So no
// read that begins after a version was returned — to the writer or to
// another reader — can miss it.
func (tx *Tx) suiteLookup(ctx context.Context, key keyspace.Key) (rep.LookupResult, error) {
	members, err := tx.readQuorum()
	if err != nil {
		return rep.LookupResult{}, err
	}
	if tx.shape == pointRead {
		ctx = rep.MarkOneShot(ctx)
	}
	for _, m := range members {
		tx.joinReader(m.Dir)
	}
	sp := tx.span("quorum-read", key.Raw())
	replies := make([]rep.LookupResult, len(members))
	errs := make([]error, len(members))
	do := func(i int, m quorum.Member) {
		replies[i], errs[i] = m.Dir.Lookup(ctx, tx.txn.ID, key)
	}
	if tx.suite.hedge != nil {
		do = tx.hedgedProbe(ctx, key, members, replies, errs)
	}
	tx.fanOut(members, do)
	if tx.hedgeMsgs.Load() > 0 {
		// Hedge probes send extra messages from concurrent probe
		// goroutines; they accumulate in an atomic and fold into the
		// transaction's count here, after the round's barrier.
		tx.msgs += int(tx.hedgeMsgs.Swap(0))
	}
	sp.End()
	if err := tx.roundError(members, errs, "lookup", key); err != nil {
		return rep.LookupResult{}, err
	}
	if tx.shape == pointWrite {
		tx.read = members
	}
	return tx.resolve(ctx, key, members, replies)
}

// resolve applies Figure 8 to one key's replies from a read quorum:
// bestv starts at LowestVersion and the largest version wins (outranks),
// so replies at LowestVersion leave the default "not present".
func (tx *Tx) resolve(ctx context.Context, key keyspace.Key, members []quorum.Member, replies []rep.LookupResult) (rep.LookupResult, error) {
	best := rep.LookupResult{Found: false, Version: version.Lowest}
	bestIdx := -1
	for i := range members {
		if outranks(members, i, replies[i].Version, bestIdx, best.Version) {
			best = replies[i]
			bestIdx = i
		}
	}
	if tx.suite.hasWitness {
		wv := 0
		for _, m := range members {
			if m.Witness {
				wv += m.Votes
			}
		}
		tx.suite.obs.WitnessVotes(wv)
	}
	// A witness holds versions but no values: when the winning entry
	// reply came from one, chase the value from a store member before
	// answering. (A run does the same for the entries it returns.)
	if best.Found && bestIdx >= 0 && members[bestIdx].Witness {
		chased, err := tx.chaseValue(ctx, key, best, members)
		if err != nil {
			return rep.LookupResult{}, err
		}
		best = chased
	}
	if tx.repairsReads() && best.Found {
		var stale []rep.Directory
		for i := range members {
			if replies[i].Version < best.Version {
				stale = append(stale, members[i].Dir)
			}
		}
		if len(stale) > 0 {
			tx.suite.enqueueReadRepair(readRepairJob{key: key.Raw(), stale: stale})
		}
	}
	return best, nil
}

// repairsReads reports whether this transaction's quorum reads feed
// read repair: responders whose reply lost to a winning entry hold a
// stale or missing copy, and an asynchronous freshen of just that key
// on just those members is enqueued. Only entry wins trigger it — a
// winning gap (not-present) needs no install, and lingering ghosts are
// harmless by version dominance.
func (tx *Tx) repairsReads() bool {
	return tx.suite.rrQueue != nil && tx.shape != repairOps
}

// chaseValue fetches the value behind a winning witness reply from a
// store member outside the read quorum, inside the same transaction.
// Safety: the quorum read holds lookup locks that intersect every write
// quorum, so no write can change the key's version while the chase runs
// — a store member answering with a version at or above the winner's
// holds the current value. (A point read holds no lock by now, so the
// member may answer with a later committed version: the value of a
// write that completed while the read was in progress, which is as good
// an answer. If the entry was deleted meanwhile no member has it, and
// the read retries.) Quorum intersection guarantees no member can
// exceed the quorum maximum for a committed write, and W > witness
// votes (quorum.Config.Validate) guarantees at least one store member
// holds the winning entry, so the chase fails only when every such
// member is unreachable or the entry is gone — which is retryable
// unavailability, not a semantic failure.
func (tx *Tx) chaseValue(ctx context.Context, key keyspace.Key, best rep.LookupResult, members []quorum.Member) (rep.LookupResult, error) {
	inRound := make(map[string]bool, len(members))
	for _, m := range members {
		inRound[m.Dir.Name()] = true
	}
	sp := tx.span("witness-chase", key.Raw())
	defer sp.End()
	var lastErr error
	for _, m := range tx.suite.cfg.Members {
		if m.Witness || inRound[m.Dir.Name()] || tx.exclude[m.Dir.Name()] {
			continue
		}
		d := tx.suite.wrapDir(m.Dir)
		tx.joinReader(d)
		tx.msgs++
		res, err := d.Lookup(ctx, tx.txn.ID, key)
		if err != nil {
			tx.noteFailure(d.Name(), err)
			lastErr = err
			continue
		}
		if res.Found && res.Version >= best.Version {
			return res, nil
		}
	}
	if lastErr == nil {
		lastErr = transport.ErrUnavailable
	}
	return rep.LookupResult{}, fmt.Errorf("core: chase value of %s at version %v: no reachable store member holds it: %w", key, best.Version, lastErr)
}

// roundError folds the per-member errors of one quorum round. Every
// unavailable member is noted — a parallel fan-out can lose several
// members at once, and each must be excluded from the retry together,
// not one retry at a time — and the first error is returned.
func (tx *Tx) roundError(members []quorum.Member, errs []error, verb string, key keyspace.Key) error {
	var first error
	h := tx.suite.health
	for i, m := range members {
		if errs[i] == nil {
			if h != nil {
				h.ReportSuccess(m.Dir.Name())
			}
			continue
		}
		// Any reply at all — even an error like a wait-die kill — proves
		// the member reachable; only unavailability counts against it.
		// ErrRecovering is deliberate refusal, not unreachability, but it
		// still must not feed ReportSuccess: a recovering member should
		// not look healthy to read routing.
		if h != nil && !isUnavailable(errs[i]) {
			h.ReportSuccess(m.Dir.Name())
		}
		tx.noteFailure(m.Dir.Name(), errs[i])
		if first == nil {
			first = fmt.Errorf("%s %s at %s: %w", verb, key, m.Dir.Name(), errs[i])
		}
	}
	return first
}

// joinReader makes d a participant before a read is sent to it: it will
// hold a lock until the transaction ends. A point read's calls are
// one-shot and hold nothing, so it has no participants.
func (tx *Tx) joinReader(d rep.Directory) {
	if tx.shape != pointRead {
		tx.txn.JoinReader(d)
	}
}

// fanOut runs do for each member, concurrently when the suite is
// configured for parallel quorums; the caller has joined the members to
// the transaction. do must only write to its own slot; error handling
// happens after the barrier.
//
// The calling goroutine runs the first member's op inline and spawns
// goroutines only for the rest: it would otherwise just block on the
// join, so the inline leg saves one spawn/schedule round per quorum
// round. The concurrent legs also give the transport's group-commit
// framing (transport/framing.go) its batching opportunity — ops from
// concurrent rounds headed for the same member coalesce into one
// multi-message frame at the shared member connection, which is the
// only layer that sees cross-transaction traffic.
func (tx *Tx) fanOut(members []quorum.Member, do func(i int, m quorum.Member)) {
	tx.msgs += len(members)
	if !tx.suite.parallel || len(members) < 2 {
		for i, m := range members {
			do(i, m)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < len(members); i++ {
		wg.Add(1)
		go func(i int, m quorum.Member) {
			defer wg.Done()
			do(i, m)
		}(i, members[i])
	}
	do(0, members[0])
	wg.Wait()
}

// Insert implements DirSuiteInsert (Figure 9) within the transaction.
func (tx *Tx) Insert(ctx context.Context, key, value string) error {
	k, err := validateKey(key)
	if err != nil {
		return err
	}
	// Look the key up to learn the highest version previously associated
	// with it.
	cur, err := tx.suiteLookup(ctx, k)
	if err != nil {
		return err
	}
	if cur.Found {
		return fmt.Errorf("%w: %s", ErrKeyExists, k)
	}
	return tx.writeEntry(ctx, k, cur.Version.Next(), value)
}

// Update implements DirSuiteUpdate (analogous to Figure 9).
func (tx *Tx) Update(ctx context.Context, key, value string) error {
	k, err := validateKey(key)
	if err != nil {
		return err
	}
	cur, err := tx.suiteLookup(ctx, k)
	if err != nil {
		return err
	}
	if !cur.Found {
		return fmt.Errorf("%w: %s", ErrKeyNotFound, k)
	}
	return tx.writeEntry(ctx, k, cur.Version.Next(), value)
}

// writeEntry inserts the entry into a write quorum.
//
// A point write draws the quorum from the members that served its
// version read, where their votes suffice. They are participants
// already, so the transaction gains none by writing, and none is left a
// pure reader that a message of its own would have to release. And the
// write is the last the transaction sends them, so it carries the
// prepare: read, write, commit — three rounds. A member the read did
// not reach (the draw fell back to the whole suite) gets a plain write
// and is asked to prepare in a round of its own, as in any transaction;
// so is a member that only read — after this round has been
// acknowledged, because until then the transaction is still acquiring
// locks and may release none.
func (tx *Tx) writeEntry(ctx context.Context, key keyspace.Key, ver version.V, value string) error {
	members, err := tx.entryWriters()
	if err != nil {
		return err
	}
	for _, m := range members {
		tx.txn.Join(m.Dir)
	}
	withPrepare := ctx
	if tx.shape == pointWrite {
		withPrepare = rep.MarkPrepare(ctx)
	}
	sp := tx.span("quorum-write", key.Raw())
	errs := make([]error, len(members))
	tx.fanOut(members, func(i int, m quorum.Member) {
		c := ctx
		if tx.didRead(m) {
			c = withPrepare
		}
		errs[i] = m.Dir.Insert(c, tx.txn.ID, key, ver, value)
	})
	sp.End()
	if err := tx.roundError(members, errs, "insert", key); err != nil {
		return err
	}
	for _, m := range members {
		if tx.didRead(m) {
			tx.txn.Voted(m.Dir)
		}
	}
	tx.mutated = true
	return nil
}

// entryWriters draws the write quorum for writeEntry.
func (tx *Tx) entryWriters() ([]quorum.Member, error) {
	if tx.shape != pointWrite {
		return tx.writeQuorum()
	}
	// Selectors take exclusions, not preferences: exclude everyone the
	// read did not reach, if those it did reach have the votes. They
	// answered a moment ago, so the health tracker has nothing to add.
	all := tx.suite.cfg.Members
	exclude := make(map[string]bool, len(all))
	votes := 0
	for _, m := range all {
		if tx.didRead(m) && !tx.exclude[m.Dir.Name()] {
			votes += m.Votes
		} else {
			exclude[m.Dir.Name()] = true
		}
	}
	if votes >= tx.suite.cfg.W {
		members, err := tx.wrapMembers(tx.suite.sel.Select(quorum.Write, exclude))
		// A selector written for whole-suite draws may answer a narrowed
		// one with what is left of its usual pick: count the votes.
		if err == nil && votesOf(members) >= tx.suite.cfg.W {
			return members, nil
		}
	}
	return tx.writeQuorum()
}

func votesOf(members []quorum.Member) int {
	votes := 0
	for _, m := range members {
		votes += m.Votes
	}
	return votes
}

// didRead reports whether m served this point write's version read
// (never, in a transaction of another shape). Such a member knows the
// transaction, so it can take the prepare with the write: a
// representative refuses a write that carries the prepare from a
// transaction it does not know, as it refuses a Prepare — that is how a
// restart that lost the transaction's read lock is caught.
func (tx *Tx) didRead(m quorum.Member) bool {
	return indexOf(tx.read, m) >= 0
}
