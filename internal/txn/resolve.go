package txn

import (
	"context"
	"errors"
	"fmt"

	"repdir/internal/lock"
	"repdir/internal/rep"
)

// ErrUnresolvable reports that cooperative termination could not reach a
// safe decision: some participant was unreachable, and the reachable
// ones had neither decided the transaction nor all prepared — the
// unreachable one might hold the decision, or the missing prepare.
var ErrUnresolvable = errors.New("txn: cannot resolve while a participant is unreachable and the others are undecided")

// Resolution describes what Resolve decided and did.
type Resolution struct {
	// Committed is the decision: true if the transaction was (and now
	// is everywhere reachable) committed, false if aborted.
	Committed bool
	// Finished lists participants that were in doubt and have now been
	// driven to the decision.
	Finished []string
}

// Resolve performs cooperative termination for an in-doubt two-phase
// commit whose coordinator died between phases. participants must be a
// superset of the transaction's actual participant set (a directory
// suite's full replica list qualifies, since quorums are drawn from it).
//
// PRECONDITION: the coordinator must be dead (or have abandoned the
// transaction). Resolving while a coordinator is still driving phase two
// races its commits; the representatives' decided-transaction guard
// (rep.ErrTxnDecided) turns such races into loud errors rather than
// silent divergence, but the resolution itself may then fail partway.
//
// The decision rule for client-coordinated 2PC without a coordinator
// log: the commit point is the moment every writer holds a forced
// prepare record. Every prepare names the writer count n (an in-doubt
// Status reports it), no writer joins after a prepare has gone out, an
// abort of a prepared writer is forced, no writer is asked to prepare
// before every reader has voted yes (Txn.Commit; a point write's riding
// prepare excepted, whose readers read only the key its writers lock),
// and the coordinator commits exactly when every writer voted yes.
// Therefore:
//
//   - if any participant reports Committed, the transaction committed;
//   - otherwise, if any reports Aborted, it aborted;
//   - otherwise, if n participants report InDoubt, every writer
//     prepared and none aborted: it committed;
//   - otherwise, if every participant answered, fewer than n writers
//     prepared, and one that has not never will (it refuses a prepare
//     of a transaction it does not know; a member rebuilt after storage
//     loss, which cannot vouch for that, answers rep.ErrRecovering and
//     counts as not answering): it aborted;
//   - otherwise a participant that did not answer may hold the decision
//     or the missing prepare, and no safe decision exists yet
//     (ErrUnresolvable).
//
// Every in-doubt participant is then driven to the decision. Readers
// log nothing and answer StatusUnknown; they are not writers, so they
// change no count.
func Resolve(ctx context.Context, id lock.TxnID, participants []rep.Directory) (Resolution, error) {
	var res Resolution
	statuses := make(map[string]rep.TxnStatus, len(participants))
	committed, aborted, unreachable := false, false, false
	prepared, writers := 0, 0
	for _, p := range participants {
		st, err := p.Status(ctx, id)
		if err != nil {
			unreachable = true
			continue
		}
		if _, seen := statuses[p.Name()]; seen {
			continue
		}
		statuses[p.Name()] = st
		switch st.Fate() {
		case rep.StatusCommitted:
			committed = true
		case rep.StatusAborted:
			aborted = true
		case rep.StatusInDoubt:
			prepared++
			writers = max(writers, st.Writers())
		}
	}
	switch {
	case committed:
		res.Committed = true
	case aborted:
	case writers > 0 && prepared >= writers:
		res.Committed = true
	case unreachable:
		return res, fmt.Errorf("%w (txn %d)", ErrUnresolvable, id)
	}
	for _, p := range participants {
		if statuses[p.Name()].Fate() != rep.StatusInDoubt {
			continue
		}
		var err error
		if res.Committed {
			err = p.Commit(ctx, id)
		} else {
			err = p.Abort(ctx, id)
		}
		if err != nil {
			return res, fmt.Errorf("txn: resolve %d at %s: %w", id, p.Name(), err)
		}
		res.Finished = append(res.Finished, p.Name())
	}
	return res, nil
}
