package core

import (
	"sync"

	"repdir/internal/version"
)

// maxHints bounds a suite's hint table; a full table is cleared whole.
const maxHints = 1 << 16

// hint is what a suite last learned of a key: an entry or a gap, and
// its version.
type hint struct {
	found bool
	ver   version.V
}

// learned is a hint a transaction holds until it commits.
type learned struct {
	key string
	hint
}

// hints remembers each key's latest version as the suite committed or
// read it, for a point write to build on without reading it (Tx.write).
// A suite whose write quorums need not intersect keeps none (m is nil).
type hints struct {
	mu sync.Mutex
	m  map[string]hint
}

// learn keeps what was seen of key unless the table knows a newer
// version.
func (h *hints) learn(key string, seen hint) {
	h.mu.Lock()
	defer h.mu.Unlock()
	old, ok := h.m[key]
	switch {
	case h.m == nil || ok && old.ver >= seen.ver:
		return
	case !ok && len(h.m) >= maxHints:
		clear(h.m)
	}
	h.m[key] = seen
}
