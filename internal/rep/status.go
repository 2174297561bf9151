package rep

import (
	"context"
	"fmt"

	"repdir/internal/interval"
	"repdir/internal/lock"
	"repdir/internal/wal"
)

// TxnStatus is a representative's knowledge of a transaction's fate,
// used by cooperative termination (txn.Resolve) to finish two-phase
// commits whose coordinator crashed between phases. An in-doubt status
// also carries the writer count the transaction's prepare named
// (InDoubtOf): Fate is the status without it, Writers the count.
type TxnStatus int

const (
	// StatusUnknown: this representative has no record of the
	// transaction's fate — it never prepared here. For resolution it is
	// no prepare: a writer that answers it has not prepared, and never
	// will (Prepare refuses a transaction it does not know). A member
	// recovering from storage loss cannot say so, and answers
	// ErrRecovering instead (Status).
	StatusUnknown TxnStatus = iota + 1
	// StatusInDoubt: prepared here, outcome unknown. The transaction's
	// write locks are held and its effects are withheld until Commit or
	// Abort arrives.
	StatusInDoubt
	// StatusCommitted: committed here.
	StatusCommitted
	// StatusAborted: aborted here.
	StatusAborted
)

// writersShift is where a status keeps its writer count: above the fate.
const writersShift = 3

// InDoubtOf is StatusInDoubt for a transaction with the given number of
// writers.
func InDoubtOf(writers int) TxnStatus { return StatusInDoubt | TxnStatus(writers)<<writersShift }

// Fate is the status without its writer count.
func (s TxnStatus) Fate() TxnStatus { return s & (1<<writersShift - 1) }

// Writers is the writer count an in-doubt status carries.
func (s TxnStatus) Writers() int { return int(s >> writersShift) }

// String names the status.
func (s TxnStatus) String() string {
	switch s.Fate() {
	case StatusUnknown:
		return "unknown"
	case StatusInDoubt:
		return fmt.Sprintf("in-doubt (writers: %d)", s.Writers())
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("TxnStatus(%d)", int(s))
	}
}

// Status implements Directory: this representative's knowledge of txn.
// Status is never fenced, but it does adopt newer epochs — which makes a
// Status(txn 0) probe under WithEpoch the wire-level "advance your
// fence" verb (reconfig uses it to fence members it only reaches
// through the generic Directory interface).
//
// A member rebuilt after storage loss (SetRecovering) may have lost a
// prepare record, so while it recovers it does not answer
// StatusUnknown: it returns ErrRecovering, which txn.Resolve counts as
// no answer. Transaction 0 is no transaction, and is answered.
func (r *Rep) Status(ctx context.Context, txn lock.TxnID) (TxnStatus, error) {
	r.adoptEpoch(ctx)
	r.mu.Lock()
	defer r.mu.Unlock()
	if committed, ok := r.outcomes[txn]; ok {
		if committed {
			return StatusCommitted, nil
		}
		return StatusAborted, nil
	}
	if st, ok := r.txns[txn]; ok && st.prepared {
		return InDoubtOf(st.writers), nil
	}
	if txn != 0 {
		if err := r.readable(); err != nil {
			return 0, err
		}
	}
	return StatusUnknown, nil
}

// InDoubt lists transactions that are prepared here but undecided.
func (r *Rep) InDoubt() []lock.TxnID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []lock.TxnID
	for id, st := range r.txns {
		if st.prepared {
			out = append(out, id)
		}
	}
	return out
}

// installAnalysis loads a log analysis into a freshly built
// representative: committed effects are applied, and in-doubt
// transactions are reconstructed as prepared — their effects withheld as
// pending redo, their write locks re-acquired so no other transaction can
// observe or overwrite the undecided ranges.
func (r *Rep) installAnalysis(a wal.Analysis) error {
	for _, op := range a.Committed {
		switch op.Kind {
		case wal.KindInsert:
			r.applyInsert(op.Key, op.Version, op.Value)
		case wal.KindCoalesce:
			if _, _, err := r.applyCoalesce(op.Key, op.Hi, op.Version); err != nil {
				return fmt.Errorf("replay txn %d: %w", op.Txn, err)
			}
		default:
			return fmt.Errorf("unexpected redo kind %s", op.Kind)
		}
	}
	for id, committed := range a.Outcomes {
		if id != 0 { // the commit that closes a checkpoint section
			r.outcomes[lock.TxnID(id)] = committed
		}
	}
	for id, p := range a.InDoubt {
		txnID := lock.TxnID(id)
		r.txns[txnID] = &txnState{prepared: true, logged: true, writers: int(p.Writers), pendingRedo: p.Redo}
		for _, rec := range p.Redo {
			rng := interval.Point(rec.Key)
			if rec.Kind == wal.KindCoalesce {
				rng = interval.Span(rec.Key, rec.Hi)
			}
			// Prepared transactions held these locks before the crash,
			// so they are mutually compatible; acquisition cannot block.
			if err := r.locks.Acquire(context.Background(), txnID, lock.ModeModify, rng); err != nil {
				return fmt.Errorf("relock in-doubt txn %d: %w", id, err)
			}
		}
	}
	if a.Epoch > r.fence {
		// Restore the epoch fence the log recorded. Set directly — the
		// advance was already logged before the crash; re-logging it on
		// every recovery would grow the log for nothing.
		r.fence = a.Epoch
	}
	return nil
}
