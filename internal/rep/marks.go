package rep

import (
	"context"
	"math"
)

// Call marks. Four things a coordinator knows about a call cut round
// trips out of the point operations, and a fifth keeps a restart from
// going unnoticed. The Directory signatures have no parameter for any
// of them, so they travel the way the epoch does: a context value on
// the caller's side, a flags byte in the request header on the wire
// (transport), a context value again at the representative.
//
//   - One-shot: the Lookup is the only thing its transaction does at
//     this representative. Its lock point is the call itself, so the
//     representative takes RepLookup(k, k), answers, and releases in
//     the same call, and keeps no record of the transaction. Nothing is
//     left for a second message to clean up.
//   - Prepare rides: the Insert or Coalesce is the transaction's last
//     write here, so the representative prepares as soon as it has
//     applied it, as if Prepare had followed in a message of its own.
//     It is the transaction's first call here only if it also carries an
//     expectation (next item), which stands in for a read; otherwise it
//     is continuing (below).
//   - Expect: the Insert at version v is a point write's whole read: the
//     coordinator remembers the key's entry (ExpectEntryMark) or gap
//     (ExpectGapMark) at v-1 instead of reading it. A representative
//     that does not know the transaction checks under the key's lock
//     that it holds nothing newer (Rep.expected), and may then open the
//     transaction with the prepare riding.
//   - Around: the SuccessorBatch is a delete's whole read of key x. The
//     representative answers with the neighborhood of x — the max
//     entries below it, x's own entry if it stores one, the max entries
//     above it — instead of only the entries above (batch.go). The call
//     joins the transaction like any batch call and keeps its lock: the
//     coalesce that follows upgrades it.
//   - Continuing: an earlier call of the transaction was answered here.
//     A representative that does not know the transaction — a restart
//     lost it, or its deadline reaped it (reap.go) — refuses the call
//     with ErrUnknownTxn instead of opening it afresh without the locks,
//     undo and redo the earlier calls left.
//
// A prepare — Prepare, or a write the prepare rides on — also carries
// the transaction's writer count: how many participants it wrote at.
// The prepare record logs it and Status reports it, because a
// transaction is committed once that many writers hold a prepare record
// (txn.Resolve). The count travels like the marks, as its own context
// value, and a prepare that names none is refused.

// Marks is the set of call marks a context carries. The bit values are
// the transport's flags byte: part of the on-wire contract.
type Marks uint8

const (
	OneShotMark Marks = 1 << iota
	PrepareMark
	AroundMark
	ExpectEntryMark
	ExpectGapMark
	ContinuingMark
)

// MarksKey is the context key of a call's Marks. It is exported so that
// a transport's request context can answer for it without wrapping one
// context in another.
type MarksKey struct{}

// MarksFrom returns the marks ctx carries.
func MarksFrom(ctx context.Context) Marks {
	m, _ := ctx.Value(MarksKey{}).(Marks)
	return m
}

func withMark(ctx context.Context, m Marks) context.Context {
	return context.WithValue(ctx, MarksKey{}, MarksFrom(ctx)|m)
}

// MarkOneShot marks the Lookups made under ctx as one-shot.
func MarkOneShot(ctx context.Context) context.Context { return withMark(ctx, OneShotMark) }

// OneShot reports whether ctx carries the one-shot mark.
func OneShot(ctx context.Context) bool { return MarksFrom(ctx)&OneShotMark != 0 }

// MarkPrepare marks the Inserts and Coalesces made under ctx as
// carrying the transaction's prepare.
func MarkPrepare(ctx context.Context) context.Context { return withMark(ctx, PrepareMark) }

// PrepareRides reports whether ctx carries the prepare mark.
func PrepareRides(ctx context.Context) bool { return MarksFrom(ctx)&PrepareMark != 0 }

// MarkAround marks the SuccessorBatch calls made under ctx as reads of
// the key's whole neighborhood.
func MarkAround(ctx context.Context) context.Context { return withMark(ctx, AroundMark) }

// Around reports whether ctx carries the neighborhood mark.
func Around(ctx context.Context) bool { return MarksFrom(ctx)&AroundMark != 0 }

// Expects reports whether ctx carries either expectation mark.
func Expects(ctx context.Context) bool { return MarksFrom(ctx)&(ExpectEntryMark|ExpectGapMark) != 0 }

// Continuing reports whether ctx carries the continuing mark.
func Continuing(ctx context.Context) bool { return MarksFrom(ctx)&ContinuingMark != 0 }

// WritersKey is the context key of the writer count a prepare carries,
// exported for the same reason MarksKey is.
type WritersKey struct{}

// MaxWriters bounds a prepare's writer count: an in-doubt TxnStatus
// holds it above the fate, and must fit an int32. A representative
// refuses a prepare naming none, or more (ErrWriterCount).
const MaxWriters = math.MaxInt32 >> writersShift

// MarkWriters sets the writer count the prepares made under ctx carry.
func MarkWriters(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, WritersKey{}, n)
}

// WritersFrom returns the writer count ctx carries, zero if none.
func WritersFrom(ctx context.Context) int {
	n, _ := ctx.Value(WritersKey{}).(int)
	return n
}

// Marked is a context with call marks and a writer count set that costs
// no allocation when its owner keeps it: a coordinator embeds one and
// hands out its address, for calls that have all returned before it is
// set again.
type Marked struct {
	context.Context
	Marks   Marks
	Writers int
}

// Value answers for the marks and the writer count, and asks the
// embedded context for everything else.
func (c *Marked) Value(key any) any {
	switch key.(type) {
	case MarksKey:
		return c.Marks
	case WritersKey:
		return c.Writers
	}
	return c.Context.Value(key)
}
