// Package txn supplies transaction identity and the two-phase commit
// coordination that directory-suite operations run under.
//
// Transaction IDs double as wait-die timestamps (package lock): an ID
// assigned earlier is numerically smaller and therefore "older". IDs
// combine a shared monotonic counter with a node tag so that independent
// clients never collide. When a transaction is aborted by wait-die, the
// caller retries it under the same ID, so it ages and eventually cannot
// be killed — the standard wait-die non-starvation argument.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/lock"
	"repdir/internal/rep"
)

// Transaction ID layout, low bits to high: 8 attempt bits (each retry of
// a logical transaction runs under its own ID, so two-phase-commit
// outcome tracking never confuses attempts), 10 node-tag bits (clients
// sharing replicas never collide), then the shared counter. Age order for
// wait-die is dominated by the counter: retries keep their timestamp and
// therefore keep aging toward immunity.
const (
	attemptBits = 8
	nodeBits    = 10
)

// MaxAttempts is how many distinct attempt IDs a logical transaction has.
const MaxAttempts = 1 << attemptBits

// IDSource hands out globally ordered transaction IDs. All clients of one
// suite should share an IDSource (or use distinct node tags) so wait-die
// sees a consistent age order.
type IDSource struct {
	counter atomic.Uint64
	node    uint64
}

// NewIDSource returns an ID source for the given node tag (0..1023).
func NewIDSource(node uint16) *IDSource {
	return &IDSource{node: uint64(node) & (1<<nodeBits - 1)}
}

// Next returns a fresh base transaction ID (attempt 0).
func (s *IDSource) Next() lock.TxnID {
	c := s.counter.Add(1)
	return lock.TxnID(c<<(nodeBits+attemptBits) | s.node<<attemptBits)
}

// AttemptID derives the ID for the given retry attempt of base. Attempts
// wrap modulo MaxAttempts; callers retrying that many times should give
// up instead.
func AttemptID(base lock.TxnID, attempt int) lock.TxnID {
	return base | lock.TxnID(uint64(attempt)&(MaxAttempts-1))
}

// Txn tracks the representatives touched by one transaction and drives
// atomic commit across them. It is safe for concurrent use, although
// directory-suite operations use it from one goroutine. Its participant
// list is storage the Txn keeps: Reset begins another transaction in it.
type Txn struct {
	// ID is the transaction's identity and wait-die timestamp.
	ID lock.TxnID
	// Parallel makes the prepare, commit, and abort rounds contact
	// participants concurrently. Set before the first Commit/Abort.
	Parallel bool
	// Phase, when non-nil, is called as each two-phase-commit round
	// ("prepare", "commit", "abort") starts, with the number of
	// participants contacted; the returned func (which may be nil) runs
	// when the round completes. The directory suite uses it to time 2PC
	// phases and count their messages without this package depending on
	// the observability layer; Release's result counts its own round.
	// Set before the first Commit/Abort.
	Phase func(phase string, participants int) func()
	// Landed is called once Release's round has been answered: from then
	// on the Txn may be Reset. Set before the first Release.
	Landed func()

	mu           sync.Mutex
	participants []participant
	done         bool
	sealed       bool           // a prepare has gone out: the writers are fixed (Writers)
	commitDue    bool           // Vote decided commit, and no commit round has gone out
	legs         sync.WaitGroup // a parallel round's calls in flight
	pending      atomic.Int32   // a detached round's calls in flight
	grace        graceCtx       // what a decided round's calls run under
	counted      rep.Marked     // what the prepare round's calls run under

	// The round in progress, as its spawned calls read it, and one func a
	// participant slot that makes the slot's call (leg): kept, so that
	// spawning a call allocates nothing.
	ctx      context.Context
	call     func(rep.Directory, context.Context, lock.TxnID) error
	detached bool
	legFns   []func()
}

// participant is one representative the transaction operated at.
type participant struct {
	dir  rep.Directory
	name string
	// reader: nothing but reads was sent here, so once it has voted
	// there is nothing left to tell it (rep.Prepare releases a reader).
	reader bool
	// voted: its last write carried the prepare (rep.MarkPrepare) and
	// succeeded, so the prepare round has nothing to ask it.
	voted bool
	// refused: it answered the prepare round with an error.
	refused bool
	// asked and err are the round in progress: whether it goes to this
	// participant, and what came back.
	asked bool
	err   error
}

// New begins a transaction with the given ID.
func New(id lock.TxnID) *Txn { return &Txn{ID: id} }

// Reset begins another transaction, under the given ID, in the storage
// of one that is over (or never began). Parallel and Phase stay as set.
func (t *Txn) Reset(id lock.TxnID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ID, t.done, t.sealed, t.commitDue = id, false, false, false
	clear(t.participants)
	t.participants = t.participants[:0]
}

// ErrSealed is returned by Join for a writer the transaction does not
// already have once a prepare has gone out: the prepare carried the
// writer count, and a writer it did not count could be left out of a
// commit that counting decides (Resolve).
var ErrSealed = errors.New("txn: no writer may join once a prepare has gone out")

// Join records d as a participant the transaction may have written at:
// it is asked to prepare, and told the outcome. Every representative
// that received an operation under this transaction must be joined —
// before the operation is sent, so that a failed or unanswered call is
// still cleaned up — with Join or, for a read, JoinReader. Join refuses
// a new writer once a prepare has gone out (ErrSealed), or once the
// transaction is finished (ErrFinished).
func (t *Txn) Join(d rep.Directory) error {
	name := d.Name()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrFinished // the rounds have the list now, and would not reach d
	}
	p := t.find(name)
	switch {
	case p != nil && !p.reader:
		return nil
	case t.sealed:
		return fmt.Errorf("%w: txn %d at %s", ErrSealed, t.ID, name)
	case p != nil:
		p.reader = false
	default:
		t.participants = append(t.participants, participant{dir: d, name: name})
	}
	return nil
}

// JoinReader records d as a participant the transaction has only read
// from, unless it is already known as more. A reader holds locks, so it
// is asked to prepare — which verifies that it still holds them and
// releases them — but it has nothing to commit, and Commit sends it no
// second message. Abort reaches it like any participant.
func (t *Txn) JoinReader(d rep.Directory) {
	name := d.Name()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.find(name) != nil {
		return // known already, or past the rounds that would reach d
	}
	t.participants = append(t.participants, participant{dir: d, name: name, reader: true})
}

// Writers returns the transaction's writer count — the participants
// joined with Join — for a prepare about to go out, and fixes it: from
// here on Join refuses a writer the transaction does not already have.
func (t *Txn) Writers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealed = true
	return t.writers()
}

// writers counts the participants that may have written; callers hold
// t.mu or own the participant list.
func (t *Txn) writers() (n int) {
	for i := range t.participants {
		if !t.participants[i].reader {
			n++
		}
	}
	return n
}

// find returns the participant of that name, or nil; callers hold t.mu.
// Participants are as few as a quorum's members: a scan beats a map.
func (t *Txn) find(name string) *participant {
	for i := range t.participants {
		if t.participants[i].name == name {
			return &t.participants[i]
		}
	}
	return nil
}

// Voted records that d, already joined, has prepared: the caller's last
// write to it carried the prepare and was acknowledged.
func (t *Txn) Voted(d rep.Directory) {
	name := d.Name()
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.find(name); p != nil {
		p.voted = true
	}
}

// finish marks the transaction done. From here on the participant list
// belongs to the one Vote, Abort or Release that got through.
func (t *Txn) finish() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrFinished
	}
	t.done = true
	return nil
}

// Finished reports whether Vote (or Commit), Abort or Release has been
// called: whether the transaction is past taking operations.
func (t *Txn) Finished() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// ErrFinished is returned by Vote, Commit and Abort when the transaction
// was already completed.
var ErrFinished = errors.New("txn: transaction already finished")

// The participants a round goes to.
func unvotedReader(p *participant) bool { return p.reader && !p.voted }
func unvotedWriter(p *participant) bool { return !p.reader && !p.voted }
func wrote(p *participant) bool         { return !p.reader }
func stillHolding(p *participant) bool  { return !p.reader || p.refused }
func everyone(*participant) bool        { return true }

// Vote is the first phase of two-phase commit, and the decision: every
// participant votes. A participant votes either in the prepare round
// here or, before it, on the last write it was sent (Voted), and every
// prepare carries the writer count. The vote is asked of every
// participant, a lone one and a reader included: one that lost the
// transaction's state in a crash votes abort (rep.ErrUnknownTxn) instead
// of silently acknowledging a commit that would apply nothing, or that
// rests on read locks it no longer holds. A reader's yes vote releases
// it, so the commit round passes it by. If any prepare fails, the
// transaction is aborted wherever it may still hold anything and the
// prepare error returned.
//
// Once every writer holds a prepare record the transaction is committed
// (Resolve), whatever becomes of an abort sent after it. So the readers
// vote first, in a round of their own, and the writers not asked yet
// only once every reader has voted yes: no writer prepares while a
// reader can still refuse. A prepare that rode on a point write went out
// before its readers voted, which is safe because those readers read
// only the key the writers lock.
//
// Vote returns nil once every writer has voted yes: the transaction is
// committed, and its commit round — to every participant that may have
// written — is due. Release sends it; Commit is Vote and the round.
func (t *Txn) Vote(ctx context.Context) error {
	if err := t.finish(); err != nil {
		return err
	}
	t.counted = rep.Marked{Context: ctx, Marks: rep.MarksFrom(ctx), Writers: t.writers()}
	first := t.prepare(unvotedReader)
	if first == nil {
		first = t.prepare(unvotedWriter)
	}
	t.counted = rep.Marked{}
	if first != nil {
		// A reader that voted yes has already let go of everything.
		t.decidedRound(ctx, "abort", stillHolding, rep.Directory.Abort, false)
		return first
	}
	t.commitDue = true
	return nil
}

// Commit atomically commits at every participant via two-phase commit:
// Vote, and then the commit round on the caller's time, answered before
// Commit returns — for a caller that goes on to read what it wrote, or
// to run another transaction that must not meet this one's locks.
// Commit returns nil once every writer has voted yes; a participant the
// commit round does not reach stays in doubt, holding its locks, until
// Resolve settles it.
func (t *Txn) Commit(ctx context.Context) error {
	if err := t.Vote(ctx); err != nil {
		return err
	}
	t.commitDue = false
	t.decidedRound(ctx, "commit", wrote, rep.Directory.Commit, false)
	return nil
}

// prepare runs a prepare round at the participants to admits, under
// t.counted, and returns the first refusal.
func (t *Txn) prepare(to func(*participant) bool) (first error) {
	t.round(&t.counted, "prepare", to, rep.Directory.Prepare, false)
	for i := range t.participants {
		p := &t.participants[i]
		if p.refused = p.asked && p.err != nil; p.refused && first == nil {
			first = fmt.Errorf("txn %d: prepare at %s: %w", t.ID, p.name, p.err)
		}
	}
	return first
}

// round drives one protocol phase at the participants to admits, inside
// the Phase hook, and reports how many it asked and whether any call
// failed. With Parallel set the calls run concurrently — but for the
// last, which the calling goroutine would otherwise only wait for. A
// detached round spawns every call and returns.
func (t *Txn) round(ctx context.Context, name string, to func(*participant) bool,
	phase func(rep.Directory, context.Context, lock.TxnID) error, detached bool) (asked int, failed bool) {
	for i := range t.participants {
		p := &t.participants[i]
		if p.asked, p.err = to(p), nil; p.asked {
			asked++
		}
	}
	if asked == 0 {
		return 0, false
	}
	if detached {
		t.pending.Store(int32(asked))
	} else if t.Phase != nil {
		if done := t.Phase(name, asked); done != nil {
			defer done()
		}
	}
	t.ctx, t.call, t.detached = ctx, phase, detached
	for i, n := 0, asked; n > 0; i++ {
		p := &t.participants[i]
		if !p.asked {
			continue
		}
		switch n--; {
		case detached:
			t.spawn(i)
		case t.Parallel && n > 0:
			t.legs.Add(1)
			t.spawn(i)
		default:
			p.err = phase(p.dir, ctx, t.ID)
		}
	}
	if detached {
		return asked, false
	}
	t.legs.Wait()
	t.ctx = nil
	for _, p := range t.participants {
		failed = failed || p.asked && p.err != nil
	}
	return asked, failed
}

// spawn starts participant i's call of the round in progress on a
// goroutine of its own, through the slot's func, made once.
func (t *Txn) spawn(i int) {
	for j := len(t.legFns); j <= i; j++ {
		t.legFns = append(t.legFns, func() { t.leg(j) })
	}
	go t.legFns[i]()
}

// leg makes participant i's call of the round in progress. The last call
// of a detached round to be answered ends the round, and from then on
// the Txn may be somebody else's.
func (t *Txn) leg(i int) {
	p := &t.participants[i]
	p.err = t.call(p.dir, t.ctx, t.ID)
	switch {
	case !t.detached:
		t.legs.Done()
	case t.pending.Add(-1) == 0:
		t.grace.end()
		t.Landed()
	}
}

// Abort aborts at every participant. Individual abort failures are
// swallowed: an unreachable participant that had not prepared discards
// the transaction (presumed abort), and one that had stays in doubt
// until Resolve settles it — by the abort a sibling logged, or, when
// none did and every writer prepared, to commit.
func (t *Txn) Abort(ctx context.Context) error {
	if err := t.finish(); err != nil {
		return err
	}
	t.decidedRound(ctx, "abort", everyone, rep.Directory.Abort, false)
	return nil
}

// Release sends the round that ends a transaction whose result is
// already fixed, once the caller has it: the commit round due after a
// yes Vote, or, for a transaction that only read, an abort to every
// participant. Either way the transaction's lock point is behind it, so
// strict two-phase locking holds however late the locks go, and with
// Parallel set Release returns as soon as its round is sent. It returns
// how many participants it asked; Landed runs once all have answered.
func (t *Txn) Release(ctx context.Context) (asked int) {
	switch {
	case t.commitDue:
		t.commitDue = false
		asked = t.decidedRound(ctx, "commit", wrote, rep.Directory.Commit, t.Parallel)
	case t.finish() == nil && len(t.participants) > 0:
		asked = t.decidedRound(ctx, "abort", everyone, rep.Directory.Abort, t.Parallel)
	}
	if asked == 0 || !t.Parallel {
		t.Landed()
	}
	return asked
}

// decisionGrace bounds a decided round run under the Txn's own context.
// Commit and abort are never shed by admission control and acquire no
// locks of their own, so even a saturated participant answers quickly.
const decisionGrace = 2 * time.Second

// decidedRound delivers a round whose outcome is already decided —
// commit after a unanimous prepare vote, or abort — and returns how many
// calls it made. A decided round must reach the participants even when
// the caller's context is dead: a blown operation deadline is the most
// common reason an abort happens at all, and a deadline can equally die
// between the prepare and commit rounds. A participant the round never
// reaches is stuck holding locks nobody else can release — wait-die
// never steals from a live holder, an unprepared orphan is invisible to
// cooperative termination, and a prepared in-doubt orphan waits for a
// txn.Resolve that nothing in the live operation path drives. Each stuck
// lock then blocks later operations on its keys into the same deadline
// death: a self-sustaining congestion collapse. So a context dead on
// entry is replaced by the Txn's own (the caller's values, the
// configuration epoch among them; no cancellation; a deadline
// decisionGrace away), and a context that dies mid-round gets one
// redelivery of the whole round under it, which is safe because Commit
// and Abort are idempotent per participant. A detached round, whose
// caller may cancel the moment it returns, runs under the Txn's own
// from the start. Dead means dead by the clock too (live).
func (t *Txn) decidedRound(ctx context.Context, name string, to func(*participant) bool,
	phase func(rep.Directory, context.Context, lock.TxnID) error, detached bool) (asked int) {
	if !detached && ctx.Err() == nil {
		var failed bool
		if asked, failed = t.round(ctx, name, to, phase, false); !failed || live(ctx) {
			return asked
		}
	}
	n, _ := t.round(t.grace.begin(ctx), name, to, phase, detached)
	if n == 0 || !detached {
		t.grace.end()
	}
	return asked + n
}

// live reports whether ctx can still carry a call. The transport goes by
// the clock and refuses a call past its deadline before the context's
// own timer fires, so a round can fail of a deadline ctx.Err misses.
func live(ctx context.Context) bool {
	d, ok := ctx.Deadline()
	return ctx.Err() == nil && (!ok || time.Now().Before(d))
}

// graceCtx is the context a decided round runs under when it cannot use
// its caller's: the caller's values, the configuration epoch among them;
// no cancellation; a deadline decisionGrace from the round's start, with
// no channel and no timer unless a call waits (rep.Expiry), and then the
// same ones for every later round. It is the Txn's, so a round builds
// none.
type graceCtx struct {
	rep.Expiry
	mu     sync.Mutex
	values context.Context // the caller's, during a round
}

func (c *graceCtx) begin(ctx context.Context) context.Context {
	c.mu.Lock()
	c.values = ctx
	c.mu.Unlock()
	c.Set(time.Now().Add(decisionGrace))
	return c
}

// end lets go of the caller's context once the round is over, and keeps
// the channel and timer for the next (rep.Expiry.Idle).
func (c *graceCtx) end() {
	c.Idle()
	c.mu.Lock()
	c.values = context.Background()
	c.mu.Unlock()
}

func (c *graceCtx) Value(key any) any {
	c.mu.Lock()
	values := c.values
	c.mu.Unlock()
	return values.Value(key)
}
