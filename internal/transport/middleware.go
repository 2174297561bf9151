package transport

import (
	"context"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// Op names a Directory operation for middleware hooks.
type Op string

// Operation names passed to Middleware hooks.
const (
	OpLookup           Op = "lookup"
	OpPredecessor      Op = "predecessor"
	OpSuccessor        Op = "successor"
	OpPredecessorBatch Op = "predecessor-batch"
	OpSuccessorBatch   Op = "successor-batch"
	OpInsert           Op = "insert"
	OpCoalesce         Op = "coalesce"
	OpPrepare          Op = "prepare"
	OpCommit           Op = "commit"
	OpAbort            Op = "abort"
	OpStatus           Op = "status"
)

// IsInquiry reports whether the operation is a read-class message
// (DirRepLookup / DirRepPredecessor / DirRepSuccessor and their batches).
func (o Op) IsInquiry() bool {
	switch o {
	case OpLookup, OpPredecessor, OpSuccessor, OpPredecessorBatch, OpSuccessorBatch:
		return true
	default:
		return false
	}
}

// IsMutation reports whether the operation modifies directory state
// (DirRepInsert / DirRepCoalesce).
func (o Op) IsMutation() bool {
	return o == OpInsert || o == OpCoalesce
}

// Call is one delivery as a Hook's Enter shaped it.
type Call struct {
	// Ctx is the context the representative receives.
	Ctx context.Context
	// Dir is the representative to deliver to.
	Dir rep.Directory
	// Twice delivers the call a second time under the same transaction
	// (a retransmitted message whose first copy was processed); the
	// second reply is the one returned.
	Twice bool
	// Note is the hook's own, handed back to Exit untouched.
	Note any
}

// Hook is what a Middleware runs around every call.
type Hook interface {
	// Name is the name the Middleware reports for its representative.
	Name() string
	// Enter runs before the call and shapes its delivery. A non-nil
	// error refuses the call: it reaches no representative, Exit does
	// not run, and the caller gets the error.
	Enter(ctx context.Context, op Op) (Call, error)
	// Exit runs after the delivery with the call's error and returns the
	// error the caller gets. Returning a different error replaces the
	// reply: the caller gets the zero result.
	Exit(c Call, op Op, err error) error
}

// Middleware is the one rep.Directory decorator: every call passes
// through its Hook, which picks the representative, may refuse, delay or
// duplicate the call, and may replace its error. The in-process
// transport (Local), the fault injector (fault.Member) and the suite's
// epoch stamp are hooks on it, as are the test and simulation harnesses'
// partitions and counters.
type Middleware struct {
	// Hook runs around every call. Required.
	Hook Hook
}

var _ rep.Directory = (*Middleware)(nil)

// Wrap builds a Middleware over a fixed target. before, when non-nil,
// runs first on every call and refuses it by returning an error.
func Wrap(target rep.Directory, before func(op Op) error) *Middleware {
	return &Middleware{Hook: guard{dir: target, before: before}}
}

// guard is Wrap's hook: a fixed target behind an optional refusal.
type guard struct {
	dir    rep.Directory
	before func(op Op) error
}

func (g guard) Name() string { return g.dir.Name() }

func (g guard) Enter(ctx context.Context, op Op) (Call, error) {
	if g.before != nil {
		if err := g.before(op); err != nil {
			return Call{}, err
		}
	}
	return Call{Ctx: ctx, Dir: g.dir}, nil
}

func (guard) Exit(_ Call, _ Op, err error) error { return err }

// deliver runs one call through the hook. It only calls its closure,
// never keeps it, so the closure stays on the caller's stack: the
// in-process path allocates nothing of its own.
func deliver[T any](ctx context.Context, h Hook, op Op, call func(ctx context.Context, d rep.Directory) (T, error)) (T, error) {
	var zero T
	c, err := h.Enter(ctx, op)
	if err != nil {
		return zero, err
	}
	res, err := call(c.Ctx, c.Dir)
	if c.Twice {
		res, err = call(c.Ctx, c.Dir)
	}
	if out := h.Exit(c, op, err); out != err {
		return zero, out
	}
	return res, err
}

// Name implements rep.Directory.
func (m *Middleware) Name() string { return m.Hook.Name() }

// Lookup implements rep.Directory.
func (m *Middleware) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	return deliver(ctx, m.Hook, OpLookup, func(ctx context.Context, d rep.Directory) (rep.LookupResult, error) {
		return d.Lookup(ctx, id, key)
	})
}

// Predecessor implements rep.Directory.
func (m *Middleware) Predecessor(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	return deliver(ctx, m.Hook, OpPredecessor, func(ctx context.Context, d rep.Directory) (rep.NeighborResult, error) {
		return d.Predecessor(ctx, id, key)
	})
}

// Successor implements rep.Directory.
func (m *Middleware) Successor(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	return deliver(ctx, m.Hook, OpSuccessor, func(ctx context.Context, d rep.Directory) (rep.NeighborResult, error) {
		return d.Successor(ctx, id, key)
	})
}

// PredecessorBatch implements rep.Directory.
func (m *Middleware) PredecessorBatch(ctx context.Context, id lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	return deliver(ctx, m.Hook, OpPredecessorBatch, func(ctx context.Context, d rep.Directory) ([]rep.NeighborResult, error) {
		return d.PredecessorBatch(ctx, id, key, max)
	})
}

// SuccessorBatch implements rep.Directory.
func (m *Middleware) SuccessorBatch(ctx context.Context, id lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	return deliver(ctx, m.Hook, OpSuccessorBatch, func(ctx context.Context, d rep.Directory) ([]rep.NeighborResult, error) {
		return d.SuccessorBatch(ctx, id, key, max)
	})
}

// Insert implements rep.Directory.
func (m *Middleware) Insert(ctx context.Context, id lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	_, err := deliver(ctx, m.Hook, OpInsert, func(ctx context.Context, d rep.Directory) (struct{}, error) {
		return struct{}{}, d.Insert(ctx, id, key, ver, value)
	})
	return err
}

// Coalesce implements rep.Directory.
func (m *Middleware) Coalesce(ctx context.Context, id lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	return deliver(ctx, m.Hook, OpCoalesce, func(ctx context.Context, d rep.Directory) (rep.CoalesceResult, error) {
		return d.Coalesce(ctx, id, lo, hi, ver)
	})
}

// Prepare implements rep.Directory.
func (m *Middleware) Prepare(ctx context.Context, id lock.TxnID) error {
	_, err := deliver(ctx, m.Hook, OpPrepare, func(ctx context.Context, d rep.Directory) (struct{}, error) {
		return struct{}{}, d.Prepare(ctx, id)
	})
	return err
}

// Commit implements rep.Directory.
func (m *Middleware) Commit(ctx context.Context, id lock.TxnID) error {
	_, err := deliver(ctx, m.Hook, OpCommit, func(ctx context.Context, d rep.Directory) (struct{}, error) {
		return struct{}{}, d.Commit(ctx, id)
	})
	return err
}

// Abort implements rep.Directory.
func (m *Middleware) Abort(ctx context.Context, id lock.TxnID) error {
	_, err := deliver(ctx, m.Hook, OpAbort, func(ctx context.Context, d rep.Directory) (struct{}, error) {
		return struct{}{}, d.Abort(ctx, id)
	})
	return err
}

// Status implements rep.Directory.
func (m *Middleware) Status(ctx context.Context, id lock.TxnID) (rep.TxnStatus, error) {
	return deliver(ctx, m.Hook, OpStatus, func(ctx context.Context, d rep.Directory) (rep.TxnStatus, error) {
		return d.Status(ctx, id)
	})
}
