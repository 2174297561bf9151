package keyspace

import (
	"errors"
	"fmt"
)

// Wire codes for the three key kinds, used by MarshalBinary and the RPC
// layer. The values are part of the on-wire contract; do not renumber.
const (
	wireLow    byte = 1
	wireNormal byte = 2
	wireHigh   byte = 3
)

var errShortKey = errors.New("keyspace: truncated key encoding")

// MarshalBinary encodes the key as a one-byte kind tag followed by the
// spelling for normal keys. It never fails.
func (k Key) MarshalBinary() ([]byte, error) {
	return k.AppendBinary(make([]byte, 0, 1+len(k.s))), nil
}

// AppendBinary appends the MarshalBinary encoding of the key to b, for
// callers that encode into a buffer they reuse.
func (k Key) AppendBinary(b []byte) []byte {
	switch k.k {
	case kindLow:
		return append(b, wireLow)
	case kindHigh:
		return append(b, wireHigh)
	default:
		return append(append(b, wireNormal), k.s...)
	}
}

// GobEncode implements gob.GobEncoder so keys with unexported fields can
// travel in snapshot files.
func (k Key) GobEncode() ([]byte, error) { return k.MarshalBinary() }

// GobDecode implements gob.GobDecoder.
func (k *Key) GobDecode(data []byte) error { return k.UnmarshalBinary(data) }

// UnmarshalBinary decodes a key produced by MarshalBinary.
func (k *Key) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return errShortKey
	}
	switch data[0] {
	case wireLow:
		*k = Low()
	case wireHigh:
		*k = High()
	case wireNormal:
		*k = New(string(data[1:]))
	default:
		return fmt.Errorf("keyspace: unknown key kind tag %d", data[0])
	}
	return nil
}
