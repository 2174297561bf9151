// Package transport connects directory suites to directory
// representatives.
//
// The paper writes remote operations as "Send(<procedure invocation>)
// to(<object instance>)" (section 3). This package supplies two
// implementations of that primitive, both satisfying rep.Directory:
//
//   - Local: a direct in-process hop with optional fault injection
//     (crashed replica, added latency), used by simulations and tests.
//   - Client/Server: a multiplexed TCP transport speaking the binary
//     codec of wire.go (gob to a peer that predates it), used by the
//     cmd/repdir-server and cmd/repdir-cli executables.
//
// Errors that the replication algorithm reacts to (wait-die aborts,
// unavailable replicas, missing coalesce bounds) are mapped to wire codes
// so errors.Is keeps working across the network.
package transport

import (
	"errors"
	"fmt"

	"repdir/internal/lock"
	"repdir/internal/rep"
)

// ErrUnavailable reports that a representative cannot be reached: it is
// crashed, partitioned away, or its server is gone. Directory suites react
// by selecting a different quorum.
var ErrUnavailable = errors.New("transport: representative unavailable")

// ErrExpired reports that a request's propagated deadline had already
// passed (or provably could not be met) when the server would have
// started it, so the server refused to burn a worker on an answer the
// client can no longer use. Clients treat it like overload: retrying is
// pointless without both remaining deadline and retry budget.
var ErrExpired = errors.New("transport: request deadline expired before service")

// ErrOverloaded reports that the server shed the request under
// admission control: its dispatch queue's measured delay exceeded the
// target for a sustained interval, so the newest arrivals are rejected
// instead of queued (queueing them would only push every request past
// its deadline — the metastable-collapse mode). Clients must not retry
// on overload except against an explicit retry budget: blind retries
// multiply the very load being shed.
var ErrOverloaded = errors.New("transport: server overloaded, request shed")

// code is the wire form of the errors the algorithm must distinguish.
type code int

const (
	codeOK code = iota
	codeDie
	codeSentinel
	codeMissingBound
	codeBadRange
	codeNoNeighbor
	codeUnavailable
	codeTxnDecided
	codeUnknownTxn
	codeRecovering
	codeOther
	// codeStaleEpoch arrived with wire v2 (epoch fencing); appended
	// after codeOther so existing code values never change. An old
	// client maps it through the default branch to an opaque error,
	// which is right: it has no epoch machinery to react with.
	codeStaleEpoch
	// codeExpired and codeOverloaded arrived with wire v3 (deadline
	// propagation and admission control), appended for the same reason.
	// An old client sees them as opaque errors and does not retry,
	// which is exactly the conservative behavior overload needs.
	codeExpired
	codeOverloaded
)

// codeErrors pairs each wire code with the error whose identity it
// carries, in the order encodeError tries them.
var codeErrors = []struct {
	c   code
	err error
}{
	{codeDie, lock.ErrDie},
	{codeSentinel, rep.ErrSentinel},
	{codeMissingBound, rep.ErrMissingBound},
	{codeBadRange, rep.ErrBadRange},
	{codeNoNeighbor, rep.ErrNoNeighbor},
	{codeUnavailable, ErrUnavailable},
	{codeTxnDecided, rep.ErrTxnDecided},
	{codeUnknownTxn, rep.ErrUnknownTxn},
	{codeRecovering, rep.ErrRecovering},
	{codeStaleEpoch, rep.ErrStaleEpoch},
	{codeExpired, ErrExpired},
	{codeOverloaded, ErrOverloaded},
}

// encodeError maps an error to its wire code plus display message.
func encodeError(err error) (code, string) {
	if err == nil {
		return codeOK, ""
	}
	for _, ce := range codeErrors {
		if errors.Is(err, ce.err) {
			return ce.c, err.Error()
		}
	}
	return codeOther, err.Error()
}

// decodeError reconstructs an error whose identity survives errors.Is.
func decodeError(c code, msg string) error {
	if c == codeOK {
		return nil
	}
	for _, ce := range codeErrors {
		if ce.c == c {
			return fmt.Errorf("%w (remote: %s)", ce.err, msg)
		}
	}
	return errors.New(msg)
}
