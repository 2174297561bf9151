package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repdir/internal/keyspace"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/version"
)

// member is one member of the suite's configuration as an operation
// handles it: the representative, stamped with the suite's epoch, and
// its index in the configuration, which is what sets of members go by.
type member struct {
	quorum.Member
	idx int
}

// Tx is one transaction against a directory suite. All operations called
// on a Tx are atomic as a group: they take effect only if the enclosing
// RunInTxn commits. A Tx is not safe for concurrent use.
//
// A Tx is also the memory of the operation it runs — the quorums drawn,
// the slots a round's replies land in, its traversals, the transaction's
// participant list — all reused by the operation's next attempt and,
// once the Tx is released, by the suite's next operation (Suite.release).
type Tx struct {
	suite *Suite
	// txn is the transaction's coordinator state: own, or the one the Tx
	// is attached to (AttachTx). Once it is finished the Tx refuses
	// every operation (selectQuorum).
	txn *txn.Txn
	own txn.Txn
	// exclude are the members earlier attempts lost, by index.
	exclude quorum.Set
	kept    bool // handed to a caller's fn (RunInTxn): never released

	// shape is what the suite promised about the transaction (suite.go).
	shape txShape
	// hinted lets a point write build on the version the suite
	// remembers (Tx.write): the first attempt of an operation may.
	hinted bool
	// read is the members that can take the prepare on a point write:
	// those that served its version read, and so know the transaction,
	// and those asked to check the version it builds on instead.
	read quorum.Set
	// failed collects members that became unavailable during this
	// attempt, so the retry can route around them.
	failed quorum.Set
	// known is the members that answered a call of this attempt: every
	// later call to them is continuing (rep/marks.go).
	known quorum.Set
	// mutated records whether any representative state changed; pure
	// read transactions release their locks with a cheap abort.
	mutated bool
	// observations buffers per-delete statistics until commit, and
	// learned the versions written, for the suite's hints.
	observations []DeleteObservation
	learned      []learned

	// The rest is storage, meaningful only inside the operation that
	// filled it: the quorums drawn (picks is what the selector wrote); a
	// round's slots, one for each call; the traversals, one each way at
	// a time; the call the round in progress makes, its calls in flight
	// and its marked context.
	picks            []int
	readers, writers []member
	asked, copies    []member // a delete's calls about its bounds,
	askedFor, copied []int    // and which bound each is about
	replies          []rep.LookupResult
	errs             []error
	coalesced        []rep.CoalesceResult
	runs             [2]run
	round            round
	legs             sync.WaitGroup
	spareMu          sync.Mutex // guards round.taken
	marked, cont     rep.Marked
}

// begin readies the Tx for one attempt: transaction t, which is own
// under a fresh ID or a coordinator's.
func (tx *Tx) begin(t *txn.Txn, shape txShape, exclude quorum.Set) {
	tx.txn, tx.shape, tx.exclude = t, shape, exclude
	tx.read, tx.failed, tx.known, tx.mutated, tx.hinted = 0, 0, 0, false, false
	tx.observations, tx.learned = tx.observations[:0], tx.learned[:0]
}

// slots returns s at length n with every slot zero, in its old storage
// when that is large enough.
func slots[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// mark returns ctx with m added to its call marks (rep/marks.go) and,
// with the prepare mark, the transaction's writer count — which from
// then on admits no new writer (txn.Txn.Writers). It costs no
// allocation: the Tx owns the context it hands out, which is valid until
// the next call of mark, for calls that have all returned by then.
func (tx *Tx) mark(ctx context.Context, m rep.Marks) context.Context {
	tx.marked = rep.Marked{Context: ctx, Marks: rep.MarksFrom(ctx) | m}
	if m&rep.PrepareMark != 0 {
		tx.marked.Writers = tx.txn.Writers()
	}
	return &tx.marked
}

// onward is ctx with the continuing mark for calls to members that know
// the transaction, in the Tx's own context as mark's; ctx for others.
func (tx *Tx) onward(ctx context.Context, known bool) context.Context {
	if !known {
		return ctx
	}
	tx.cont = rep.Marked{Context: ctx, Marks: rep.MarksFrom(ctx) | rep.ContinuingMark, Writers: rep.WritersFrom(ctx)}
	return &tx.cont
}

// isUnavailable reports whether an error means the member cannot serve
// this round: unreachable over the transport, or alive but refusing
// reads while it rebuilds lost storage (rep.ErrRecovering). Both are
// handled the same way — exclude the member and retry elsewhere.
func isUnavailable(err error) bool {
	return errors.Is(err, transport.ErrUnavailable) || errors.Is(err, rep.ErrRecovering)
}

// noteFailure records an unavailable representative: the retry
// excludes it (every path that loses a member passes through here). A
// repair's target need not be a member; then nothing is noted.
func (tx *Tx) noteFailure(name string, err error) {
	if isUnavailable(err) {
		tx.failed |= tx.suite.named(name)
	}
}

// landed is the own transaction's Landed hook: the Tx is free.
func (tx *Tx) landed() { tx.suite.release(tx); tx.suite.releasing.Add(-1) }

// flushMetrics reports buffered observations once the transaction has
// committed, before a release round may take the Tx.
func (tx *Tx) flushMetrics() {
	if tx.suite.metrics == nil {
		return
	}
	for _, o := range tx.observations {
		tx.suite.metrics.ObserveDelete(o)
	}
}

// readQuorum and writeQuorum assemble quorums honoring exclusions, each
// in storage of its own: a quorum stands until the next of its kind is
// drawn.
func (tx *Tx) readQuorum() (members []member, err error) {
	tx.readers, err = tx.selectQuorum(quorum.Read, tx.exclude, tx.readers)
	return tx.readers, err
}

func (tx *Tx) writeQuorum() (members []member, err error) {
	tx.writers, err = tx.selectQuorum(quorum.Write, tx.exclude, tx.writers)
	return tx.writers, err
}

// selectQuorum draws a quorum into dst, skipping the excluded members.
// Every operation begins by drawing a quorum, so this is where a Tx
// whose transaction is over — kept by a RunInTxn callback, or by a
// coordinator past its Commit or Abort — is refused.
func (tx *Tx) selectQuorum(kind quorum.Kind, exclude quorum.Set, dst []member) ([]member, error) {
	if tx.txn.Finished() {
		return dst[:0], txn.ErrFinished
	}
	picks, err := tx.suite.sel.Select(kind, exclude, tx.picks)
	dst = dst[:0]
	if err != nil {
		return dst, err
	}
	tx.picks = picks
	for _, i := range picks {
		dst = append(dst, tx.suite.members[i])
	}
	return dst, nil
}

// named is the set of the member of that name: empty if there is none.
func (s *Suite) named(name string) (set quorum.Set) {
	for _, m := range s.members {
		if m.Dir.Name() == name {
			set.Add(m.idx)
		}
	}
	return set
}

// indexes is the set of the given members.
func indexes(members []member) (set quorum.Set) {
	for _, m := range members {
		set.Add(m.idx)
	}
	return set
}

// Lookup implements DirSuiteLookup (Figure 8) within the transaction.
func (tx *Tx) Lookup(ctx context.Context, key string) (string, bool, error) {
	res, err := tx.lookup(ctx, key)
	return res.Value, res.Found, err
}

// lookup is suiteLookup of a caller's key.
func (tx *Tx) lookup(ctx context.Context, key string) (rep.LookupResult, error) {
	k, err := validateKey(key)
	if err != nil {
		return rep.LookupResult{}, err
	}
	return tx.suiteLookup(ctx, k)
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
		ctx = tx.mark(ctx, rep.OneShotMark)
	}
	for _, m := range members {
		tx.joinReader(m.Dir)
	}
	tx.replies = slots(tx.replies, len(members))
	tx.round = round{kind: callLookup, ctx: ctx, key: key, taken: indexes(members) | tx.exclude}
	tx.fanOut(members)
	if err := tx.roundError(members, tx.errs, "lookup", key); err != nil {
		return rep.LookupResult{}, err
	}
	if tx.shape == pointWrite {
		tx.read = indexes(members)
	}
	res, err := tx.resolve(ctx, key, members, tx.replies)
	if err == nil && (tx.shape == pointRead || tx.shape == pointWrite) {
		// A point read or a write's version read: what it saw is
		// committed.
		tx.suite.hints.learn(key.Raw(), hint{res.Found, res.Version})
	}
	return res, err
}

// failover asks a point read's refused probe (transport.ErrOverloaded,
// ErrExpired) again, once, of a spare: a store member outside the read
// quorum and the exclusions, with at least the refusing member's votes,
// so the read set still meets every write quorum. The spare answers into
// slot i and takes the member's place; if it fails too, the refusal
// stands. The call is inside the round: it returns before fanOut does.
func (tx *Tx) failover(i int) {
	c, err := &tx.round, tx.errs[i]
	if tx.shape != pointRead || !errors.Is(err, transport.ErrOverloaded) && !errors.Is(err, transport.ErrExpired) {
		return
	}
	var spare member
	tx.spareMu.Lock()
	for _, m := range tx.suite.members {
		if !m.Witness && !c.taken.Has(m.idx) && m.Votes >= c.to[i].Votes {
			spare = m
			c.taken.Add(m.idx)
			break
		}
	}
	tx.spareMu.Unlock()
	if spare.Dir != nil {
		if r, err := spare.Dir.Lookup(c.ctx, tx.txn.ID, c.key); err == nil {
			c.to[i], tx.replies[i], tx.errs[i] = spare, r, nil
		}
	}
}

// resolve applies Figure 8 to one key's replies from a read quorum:
// bestv starts at LowestVersion and the largest version wins (outranks),
// so replies at LowestVersion leave the default "not present".
func (tx *Tx) resolve(ctx context.Context, key keyspace.Key, members []member, replies []rep.LookupResult) (rep.LookupResult, error) {
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
		tx.suite.counters.witnessVotes.Add(uint64(wv))
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
	return best, nil
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
func (tx *Tx) chaseValue(ctx context.Context, key keyspace.Key, best rep.LookupResult, members []member) (rep.LookupResult, error) {
	skip := indexes(members) | tx.exclude
	var lastErr error
	for _, m := range tx.suite.members {
		if m.Witness || skip.Has(m.idx) {
			continue
		}
		tx.joinReader(m.Dir)
		res, err := m.Dir.Lookup(tx.onward(ctx, tx.known.Has(m.idx)), tx.txn.ID, key)
		if err != nil {
			tx.noteFailure(m.Dir.Name(), err)
			lastErr = err
			continue
		}
		tx.known.Add(m.idx)
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
// not one retry at a time — every member that answered is known, and
// the first error is returned.
func (tx *Tx) roundError(members []member, errs []error, verb string, key keyspace.Key) error {
	var first error
	for i, m := range members {
		err := errs[i]
		if err == nil {
			tx.known.Add(m.idx)
			continue
		}
		tx.noteFailure(m.Dir.Name(), err)
		if first == nil {
			first = fmt.Errorf("%s %s at %s: %w", verb, key, m.Dir.Name(), err)
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

// round is the call a quorum round makes at each of its members: which
// one, and its arguments. Every call a round can be made of is in
// Tx.call; an operation fills the round in and fans it out.
type round struct {
	kind callKind
	to   []member
	ctx  context.Context
	// cont is ctx for a known member, and prepared ctx with the prepare
	// mark, for a write to a member that can take the prepare with it.
	cont     context.Context
	prepared context.Context
	key, hi  keyspace.Key // the key; a coalesce's bounds
	ver      version.V
	value    string
	n        int         // neighbors asked for
	bounds   [2]neighbor // a delete's real successor and predecessor
	run      *run
	taken    quorum.Set // the quorum, exclusions and spares taken (Tx.failover)
}

type callKind uint8

const (
	callLookup callKind = iota
	callInsert
	callAround
	callBoundLookup
	callBoundCopy
	callCoalesce
	callNeighbors
)

// call makes the round's call at its i'th member and leaves the answer
// in slot i, of the members too (Tx.failover). It writes nothing else:
// calls run concurrently, and error handling happens after the barrier.
func (tx *Tx) call(i int) {
	c, d, id, ctx := &tx.round, tx.round.to[i].Dir, tx.txn.ID, tx.round.ctx
	if tx.known.Has(c.to[i].idx) {
		ctx = c.cont
	}
	switch c.kind {
	case callLookup:
		tx.replies[i], tx.errs[i] = d.Lookup(ctx, id, c.key)
		tx.failover(i)
	case callInsert:
		if tx.read.Has(c.to[i].idx) {
			ctx = c.prepared
		}
		tx.errs[i] = d.Insert(ctx, id, c.key, c.ver, c.value)
	case callAround:
		var hood []rep.NeighborResult
		hood, tx.errs[i] = d.SuccessorBatch(ctx, id, c.key, c.n)
		tx.runs[1].replies[i], tx.replies[i], tx.runs[0].replies[i] = rep.SplitAround(hood, c.key)
	case callBoundLookup:
		tx.replies[i], tx.errs[i] = d.Lookup(ctx, id, c.bounds[tx.askedFor[i]].key)
	case callBoundCopy:
		nb := &c.bounds[tx.copied[i]]
		tx.errs[i] = d.Insert(ctx, id, nb.key, nb.ver, nb.value)
	case callCoalesce:
		tx.coalesced[i], tx.errs[i] = d.Coalesce(ctx, id, c.key, c.hi, c.ver)
	case callNeighbors:
		c.run.probe(ctx, c.run.which[i], c.n)
	}
}

// fanOut makes tx.round's call at each member, concurrently when the
// suite is configured for parallel quorums, and returns when all have
// answered into their slots of tx.errs and the round's other slots; the
// caller has joined the members to the transaction.
//
// The calling goroutine makes the first member's call inline and spawns
// goroutines only for the rest: it would otherwise just block on the
// join, so the inline leg saves one spawn/schedule round per quorum
// round. The concurrent legs also give the transport's group-commit
// framing (transport/framing.go) its batching opportunity — ops from
// concurrent rounds headed for the same member coalesce into one
// multi-message frame at the shared member connection, which is the
// only layer that sees cross-transaction traffic.
func (tx *Tx) fanOut(members []member) {
	tx.round.to = members
	tx.errs = slots(tx.errs, len(members))
	tx.round.cont = tx.onward(tx.round.ctx, tx.known&indexes(members) != 0)
	if !tx.suite.parallel || len(members) < 2 {
		for i := range members {
			tx.call(i)
		}
		return
	}
	for i := 1; i < len(members); i++ {
		tx.legs.Add(1)
		go func() {
			defer tx.legs.Done()
			tx.call(i)
		}()
	}
	tx.call(0)
	tx.legs.Wait()
}

// Insert implements DirSuiteInsert (Figure 9) within the transaction.
func (tx *Tx) Insert(ctx context.Context, key, value string) error {
	_, err := tx.write(ctx, key, value, false)
	return err
}

// Update implements DirSuiteUpdate (analogous to Figure 9).
func (tx *Tx) Update(ctx context.Context, key, value string) error {
	_, err := tx.write(ctx, key, value, true)
	return err
}

// InsertV is Insert, returning the version written.
func (tx *Tx) InsertV(ctx context.Context, key, value string) (version.V, error) {
	return tx.write(ctx, key, value, false)
}

// UpdateV is Update, returning the version written.
func (tx *Tx) UpdateV(ctx context.Context, key, value string) (version.V, error) {
	return tx.write(ctx, key, value, true)
}

// write creates the entry for key, or with update set replaces it: the
// key is looked up to learn the highest version previously associated
// with it, and the entry written with the next.
//
// A point write whose suite remembers that version, with the entry (or
// gap) it needs, writes at once instead, each member of the write quorum
// checking under its write lock that it holds nothing newer. Write
// quorums intersect (quorum.Config.WritesIntersect), so if none does, no
// committed write is newer. Otherwise a member refuses, and the retry
// reads.
func (tx *Tx) write(ctx context.Context, key, value string, update bool) (version.V, error) {
	k, err := validateKey(key)
	if err != nil {
		return version.Lowest, err
	}
	if h, ok := tx.hint(k); ok && h.found == update {
		members, err := tx.writeQuorum()
		if err != nil {
			return version.Lowest, err
		}
		if votesOf(members) >= tx.suite.cfg.W { // see entryWriters
			expect := rep.ExpectGapMark
			if update {
				expect = rep.ExpectEntryMark
			}
			tx.read = indexes(members)
			ver := h.ver.Next()
			return ver, tx.writeEntry(ctx, k, ver, value, members, expect)
		}
	}
	cur, err := tx.suiteLookup(ctx, k)
	switch {
	case err != nil:
		return version.Lowest, err
	case cur.Found && !update:
		return version.Lowest, fmt.Errorf("%w: %s", ErrKeyExists, k)
	case !cur.Found && update:
		return version.Lowest, fmt.Errorf("%w: %s", ErrKeyNotFound, k)
	}
	ver := cur.Version.Next()
	members, err := tx.entryWriters()
	if err != nil {
		return version.Lowest, err
	}
	return ver, tx.writeEntry(ctx, k, ver, value, members, 0)
}

// hint returns what the suite remembers of key, for a point write's
// first attempt.
func (tx *Tx) hint(key keyspace.Key) (hint, bool) {
	if tx.shape != pointWrite || !tx.hinted {
		return hint{}, false
	}
	h := &tx.suite.hints
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.m[key.Raw()]
	return v, ok
}

// writeEntry inserts the entry into the write quorum members, with the
// expectation mark expect on a write that read nothing.
//
// A point write that read draws the quorum from the members that served
// its version read, where their votes suffice. They are participants
// already, so the transaction gains none by writing, and none is left a
// pure reader that a message of its own would have to release. And the
// write is the last the transaction sends them, so it carries the
// prepare: read, write, commit — three rounds, or two, write and
// commit, where the write checks the version instead of a read. A
// member the read did not reach (the draw fell back to the whole suite)
// gets a plain write and is asked to prepare in a round of its own, as
// in any transaction; so is a member that only read — after this round
// has been acknowledged, because until then the transaction is still
// acquiring locks and may release none.
func (tx *Tx) writeEntry(ctx context.Context, key keyspace.Key, ver version.V, value string, members []member, expect rep.Marks) error {
	for _, m := range members {
		if err := tx.txn.Join(m.Dir); err != nil {
			return err
		}
	}
	// tx.read is the members that can take the prepare with the write:
	// those that served the read know the transaction, and the write is
	// continuing there — a representative refuses it if a restart lost
	// the transaction's read lock, as it refuses a Prepare. Those asked
	// to check an expectation instead do so under the write lock. It is
	// empty in a transaction of another shape.
	tx.round = round{kind: callInsert, ctx: ctx, key: key, ver: ver, value: value}
	if tx.read != 0 {
		if tx.read&tx.known != 0 { // they served the read
			expect |= rep.ContinuingMark
		}
		tx.round.prepared = tx.mark(ctx, rep.PrepareMark|expect)
	}
	tx.fanOut(members)
	if err := tx.roundError(members, tx.errs, "insert", key); err != nil {
		return err
	}
	for _, m := range members {
		if tx.read.Has(m.idx) {
			tx.txn.Voted(m.Dir)
		}
	}
	tx.mutated = true
	tx.learned = append(tx.learned, learned{key.Raw(), hint{true, ver}})
	return nil
}

// entryWriters draws the write quorum for writeEntry.
func (tx *Tx) entryWriters() ([]member, error) {
	// Selectors take exclusions, not preferences: exclude everyone the
	// read did not reach, if those it did reach have the votes.
	var others quorum.Set
	votes := 0
	for _, m := range tx.suite.members {
		if tx.read.Has(m.idx) && !tx.exclude.Has(m.idx) {
			votes += m.Votes
		} else {
			others.Add(m.idx)
		}
	}
	if votes >= tx.suite.cfg.W {
		var err error
		tx.writers, err = tx.selectQuorum(quorum.Write, others, tx.writers)
		// A selector written for whole-suite draws may answer a narrowed
		// one with what is left of its usual pick: count the votes.
		if err == nil && votesOf(tx.writers) >= tx.suite.cfg.W {
			return tx.writers, nil
		}
	}
	return tx.writeQuorum()
}

func votesOf(members []member) int {
	votes := 0
	for _, m := range members {
		votes += m.Votes
	}
	return votes
}
