package rep

import "context"

// Call marks. Two things a coordinator knows about a call cut a round
// trip out of the point operations, and the Directory signatures have
// no parameter for either, so they travel the way the epoch does: a
// context value on the caller's side, an op tag on the wire
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
//     The coordinator sends it only where the transaction has operated
//     before: like Prepare, the call votes ErrUnknownTxn if the
//     representative does not know the transaction, because then a
//     crash has lost locks the transaction still relies on.

type oneShotKey struct{}
type prepareRidesKey struct{}

// MarkOneShot marks the Lookups made under ctx as one-shot.
func MarkOneShot(ctx context.Context) context.Context {
	return context.WithValue(ctx, oneShotKey{}, true)
}

// OneShot reports whether ctx carries the one-shot mark.
func OneShot(ctx context.Context) bool {
	v, _ := ctx.Value(oneShotKey{}).(bool)
	return v
}

// MarkPrepare marks the Inserts and Coalesces made under ctx as
// carrying the transaction's prepare.
func MarkPrepare(ctx context.Context) context.Context {
	return context.WithValue(ctx, prepareRidesKey{}, true)
}

// PrepareRides reports whether ctx carries the prepare mark.
func PrepareRides(ctx context.Context) bool {
	v, _ := ctx.Value(prepareRidesKey{}).(bool)
	return v
}
