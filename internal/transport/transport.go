// Package transport connects directory suites to directory
// representatives.
//
// The paper writes remote operations as "Send(<procedure invocation>)
// to(<object instance>)" (section 3). This package supplies two
// implementations of that primitive, both satisfying rep.Directory:
//
//   - Local: a direct in-process hop with optional fault injection
//     (crashed replica, added latency), used by simulations and tests.
//   - Client/Server: a multiplexed TCP transport speaking the one
//     protocol of wire.go, used by the cmd/repdir-server and
//     cmd/repdir-cli executables.
//
// Everything that decorates a representative in between — Local itself,
// fault injection, the suite's epoch stamp, test partitions — is a Hook
// on the one decorator, Middleware.
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
// client can no longer use. Clients treat it like overload and never
// retry it (core.Retryable).
var ErrExpired = errors.New("transport: request deadline expired before service")

// ErrOverloaded reports that the server shed the request under
// admission control: its dispatch queue's measured delay exceeded the
// target for a sustained interval, so the newest arrivals are rejected
// instead of queued (queueing them would only push every request past
// its deadline — the metastable-collapse mode). Clients never retry it
// (core.Retryable): a retry multiplies the very load being shed.
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
	// Epoch fencing, deadline propagation and admission control came
	// later; their codes are appended after codeOther so that existing
	// values never change.
	codeStaleEpoch
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
