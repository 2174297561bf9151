package rep

import (
	"context"
	"errors"
	"fmt"

	"repdir/internal/wal"
)

// ErrStaleEpoch is returned by fenced operations whose caller carries a
// configuration epoch older than this representative's fence. The
// caller's configuration may no longer intersect the current one, so
// letting the operation proceed could assemble a non-intersecting
// quorum; the client must refetch the configuration record and retry
// under the new epoch (reconfig.Manager does this transparently).
var ErrStaleEpoch = errors.New("rep: stale configuration epoch")

// EpochBypass is a caller epoch that is never fenced. It exists for the
// configuration bootstrap: a client whose epoch just went stale must
// still be able to quorum-read the configuration record to learn the
// new epoch, and the fence would otherwise reject exactly that read.
// Bypass reads never adopt or advance fences.
const EpochBypass = ^uint64(0)

// EpochKey is the context key of the caller's configuration epoch,
// exported for the same reason MarksKey is.
type EpochKey struct{}

// WithEpoch returns a context whose directory operations carry the
// given configuration epoch. The transport forwards it to remote
// representatives; representatives fence operations whose epoch is
// older than their fence and virally adopt newer ones.
func WithEpoch(ctx context.Context, epoch uint64) context.Context {
	return context.WithValue(ctx, EpochKey{}, epoch)
}

// EpochFromContext extracts the caller epoch; zero means the caller is
// unversioned (a legacy client that has never seen a reconfiguration).
// An unversioned caller is fenced as stale by any representative whose
// fence has advanced — that is the enforced form of the old GrowSuite
// caveat that clients must not mix configurations.
func EpochFromContext(ctx context.Context) uint64 {
	e, _ := ctx.Value(EpochKey{}).(uint64)
	return e
}

// AsWitness builds a witness representative: it participates in voting,
// locking, and version bookkeeping exactly like a store member, but
// blanks every value before storing or logging it. Entry and gap
// versions — the part of the state that quorum intersection actually
// needs — are kept in full.
func AsWitness() Option { return func(r *Rep) { r.witness = true } }

// Witness reports whether this representative stores values.
func (r *Rep) Witness() bool { return r.witness }

// Fence returns the representative's current epoch fence.
func (r *Rep) Fence() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fence
}

// AdvanceEpoch raises the fence to epoch (never lowers it), durably via
// a KindEpoch log record, and returns the resulting fence. It is also
// reached virally: any operation carrying a newer epoch adopts it.
func (r *Rep) AdvanceEpoch(epoch uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.adoptLocked(epoch); err != nil {
		return r.fence, err
	}
	return r.fence, nil
}

// adoptLocked raises the fence if epoch is newer, logging the advance;
// callers hold r.mu. EpochBypass never adopts.
func (r *Rep) adoptLocked(epoch uint64) error {
	if epoch == EpochBypass || epoch <= r.fence {
		return nil
	}
	if err := r.appendRecord(wal.Record{Kind: wal.KindEpoch, Epoch: epoch}); err != nil {
		return err
	}
	r.fence = epoch
	return nil
}

// checkEpoch gates a fenced operation: callers older than the fence are
// rejected with ErrStaleEpoch, callers newer than the fence advance it
// (viral adoption), so one fenced representative spreads a new epoch to
// every member it shares quorums with. Fenced operations are the ones
// that read or write directory state — Lookup, the neighbor probes,
// Insert, Coalesce, and Prepare. Commit, Abort, and Status are never
// fenced (adopt-only): two-phase-commit completion and cooperative
// termination must keep working across a configuration change, or the
// change itself could wedge in-doubt transactions forever.
func (r *Rep) checkEpoch(ctx context.Context) error {
	e := EpochFromContext(ctx)
	if e == EpochBypass {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e < r.fence {
		r.stats.staleRejections.Add(1)
		return fmt.Errorf("%w: caller epoch %d < fence %d at %s", ErrStaleEpoch, e, r.fence, r.name)
	}
	return r.adoptLocked(e)
}

// adoptEpoch is checkEpoch without the rejection: unfenced operations
// still spread newer epochs.
func (r *Rep) adoptEpoch(ctx context.Context) {
	e := EpochFromContext(ctx)
	if e == 0 || e == EpochBypass {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = r.adoptLocked(e)
}
