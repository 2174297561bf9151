package keyspace

import (
	"errors"
	"fmt"
)

// Wire codes for the three key kinds, used by AppendBinary and the RPC
// layer. The values are part of the on-wire contract; do not renumber.
const (
	wireLow    byte = 1
	wireNormal byte = 2
	wireHigh   byte = 3
)

var errShortKey = errors.New("keyspace: truncated key encoding")

// AppendBinary appends the key's encoding to b: a one-byte kind tag
// followed by the spelling for normal keys.
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

// UnmarshalBinary decodes a key produced by AppendBinary.
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
