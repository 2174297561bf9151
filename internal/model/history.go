package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repdir/internal/version"
)

// Kind is what an operation does to its key.
type Kind uint8

const (
	Read   Kind = iota // a quorum lookup: it names the version it saw
	Write              // an insert or update: the key present with the value
	Delete             // the key absent
)

// Outcome is how an operation ended.
type Outcome uint8

const (
	Indeterminate Outcome = iota // not returned, or failed ambiguously: it may show up later, at its version, or never
	Ok                           // acknowledged
	Fail                         // refused: it took no effect
)

// Op is one operation on one key. A write's value must be unique among
// the key's writes: a read that returns it names the write by it.
type Op struct {
	Kind       Kind
	Value      string    // written, or read when Found
	Found      bool      // a read found an entry
	Ver        version.V // read, or written when the caller has it in hand (0 when not)
	Outcome    Outcome
	start, end int64 // ticks of the history's clock at invoke and at return
}

func (op *Op) String() string {
	return fmt.Sprintf("%s %q [%d,%d]", [...]string{"read", "write", "delete"}[op.Kind], op.Value, op.start, op.end)
}

// History records operations on a directory and checks each key's by
// the paper's versions (section 3.3): every key has one, present or not,
// and every write raises it. So one sort of a key's operations by
// version and one scan test four rules:
//
//  1. no two writes produced one version;
//  2. a write begun after an operation returned has a higher version;
//  3. a read returns a version some write produced, with its value, or
//     misses at a version no insert or update produced;
//  4. no read is below an operation that returned before it began.
//
// A write without a version in hand is placed by the reads that return
// its value; an acknowledged one wrote above every version that returned
// before it began. A retried write may show up below its acknowledged
// version too, written by an attempt whose reply was lost.
type History struct {
	mu      sync.Mutex
	clock   int64
	keys    map[string][]*Op // in invoke order
	refused []string         // the breaches Refused found
}

// NewHistory returns an empty history: every key absent.
func NewHistory() *History { return &History{keys: make(map[string][]*Op)} }

// Invoke records that an operation began; value is a write's.
func (h *History) Invoke(kind Kind, key, value string) *Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock++
	op := &Op{Kind: kind, Value: value, start: h.clock, end: math.MaxInt64}
	h.keys[key] = append(h.keys[key], op)
	return op
}

// Return records how an operation ended, with the version it wrote (0 if not in hand).
func (h *History) Return(op *Op, out Outcome, ver version.V) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock++
	op.Outcome, op.Ver, op.end = out, ver, h.clock
}

// Read records what an acknowledged read returned.
func (h *History) Read(op *Op, value string, found bool, ver version.V) {
	h.mu.Lock()
	op.Value, op.Found = value, found
	h.mu.Unlock()
	h.Return(op, Ok, ver)
}

// Keys lists every key a write or delete was invoked on, sorted.
func (h *History) Keys() (out []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for k, ops := range h.keys {
		if slices.ContainsFunc(ops, func(op *Op) bool { return op.Kind != Read }) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// Check returns every breach of the four rules, and of Refused, sorted.
func (h *History) Check() (bad []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bad = slices.Clone(h.refused)
	for key, ops := range h.keys {
		bad = append(bad, checkKey(key, ops)...)
	}
	slices.Sort(bad)
	return bad
}

// at is an operation at a version and what produced it: itself, a read's write, or nil for a miss.
type at struct {
	ver    version.V
	op, by *Op
}

func checkKey(key string, ops []*Op) (bad []string) {
	byValue := make(map[string]*Op)
	for _, w := range ops {
		if w.Kind == Write {
			byValue[w.Value] = w
		}
	}
	placed := make(map[*Op]version.V) // writes without a version in hand, at the highest a read saw
	var vs []at
	for _, op := range ops {
		switch {
		case op.Outcome != Ok:
		case op.Kind == Read && !op.Found:
			vs = append(vs, at{op.Ver, op, nil})
		case op.Kind == Read:
			w := byValue[op.Value]
			if w == nil || w.Outcome == Fail || w.Ver != 0 && op.Ver > w.Ver {
				bad = append(bad, fmt.Sprintf("%s: %v saw version %d, which no write of that value produced", key, op, op.Ver)) // rule 3
				continue
			}
			if w.Ver == 0 {
				placed[w] = max(placed[w], op.Ver)
			}
			vs = append(vs, at{op.Ver, op, w})
		case op.Ver != 0:
			vs = append(vs, at{op.Ver, op, op})
		}
	}
	for w, v := range placed {
		vs = append(vs, at{v, w, w})
	}
	slices.SortFunc(vs, func(a, b at) int {
		return cmp.Or(cmp.Compare(b.ver, a.ver), cmp.Compare(a.op.start, b.op.start))
	})
	first := at{op: &Op{end: math.MaxInt64}} // of the acknowledged operations at higher versions, the first to return
	for i, j := 0, 0; i < len(vs); i = j {
		var by []*Op // the writes and deletes that produced the version
		miss := false
		for j = i; j < len(vs) && vs[j].ver == vs[i].ver; j++ {
			if a := vs[j]; a.by == nil {
				miss = true
			} else if !slices.Contains(by, a.by) {
				by = append(by, a.by)
			}
		}
		if len(by) > 1 {
			bad = append(bad, fmt.Sprintf("%s: %v all produced version %d", key, by, vs[i].ver)) // rule 1
		}
		if miss && len(by) > 0 && by[0].Kind == Write {
			bad = append(bad, fmt.Sprintf("%s: a read missed at version %d, which %v produced", key, vs[i].ver, by[0])) // rule 3
		}
		for _, a := range vs[i:j] {
			if first.op.end < a.op.start {
				bad = append(bad, fmt.Sprintf("%s: %v at version %d began after %v at version %d returned", key, a.op, a.ver, first.op, first.ver)) // rules 2, 4
			}
			if len(by) > 0 && a.op.Outcome == Ok && a.op.end < by[0].start {
				bad = append(bad, fmt.Sprintf("%s: %v at version %d returned before %v, which produced it, began", key, a.op, a.ver, by[0])) // rule 2
			}
		}
		for _, a := range vs[i:j] {
			if a.op.Outcome == Ok && a.op.end < first.op.end {
				first = a
			}
		}
	}
	for _, w := range ops { // an acknowledged write no read placed: above all that returned before it began
		if _, ok := placed[w]; ok || w.Kind != Write || w.Outcome != Ok || w.Ver != 0 {
			continue
		}
		var below version.V // the empty directory's: every write is above it
		for _, a := range vs {
			if a.op.Outcome == Ok && a.op.end < w.start {
				below = max(below, a.ver)
			}
		}
		for _, a := range vs {
			if a.op.start > w.end && a.ver <= below {
				bad = append(bad, fmt.Sprintf("%s: %v at version %d began after %v, which wrote above version %d, returned", key, a.op, a.ver, w, below)) // rules 2, 4
			}
		}
	}
	return bad
}

// Refused records a write refused because its key was present (an
// insert) or absent (an update or a delete), where the history has one
// client: only an earlier attempt of the write, its reply lost, can have
// changed the key since. So a delete refused left the key absent; an
// insert refused took effect where the key was certainly absent, and none
// where it was certainly present; an update refused took none, and is a
// breach where the key was certainly present, as no attempt removes it.
func (h *History) Refused(key string, op *Op, exists bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ops := h.keys[key]
	present, absent := state(ops[:slices.Index(ops, op)])
	h.clock++
	switch op.end = h.clock; {
	case op.Kind == Delete || exists && !present:
		op.Outcome = Ok
	case exists && absent: // indeterminate: an earlier attempt may have put the key there
	case !exists && !absent:
		h.refused = append(h.refused, fmt.Sprintf("%s: %v found the key absent, where it was certainly present", key, op))
		fallthrough
	default:
		op.Outcome = Fail
	}
}

// CountBounds bounds the number of keys present between operations.
func (h *History) CountBounds() (lo, hi int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ops := range h.keys {
		if present, absent := state(ops); present {
			hi++
			if !absent {
				lo++
			}
		}
	}
	return lo, hi
}

// state says whether a key may be present and may be absent after ops:
// certainly one when nothing indeterminate can sit above the highest
// version read or acknowledged on it. A write that returned before that
// operation began sits below it: an ambiguous one holds its key's lock at
// a write quorum until it is settled.
func state(ops []*Op) (present, absent bool) {
	top := &Op{Outcome: Ok} // the empty directory: absent at the lowest version
	for _, op := range ops {
		if op.Outcome == Ok && (op.Kind == Read || op.Ver != 0) && (op.Ver > top.Ver || op.Ver == top.Ver && op.start > top.start) {
			top = op
		}
	}
	present = top.Kind == Write || top.Found
	absent, last := !present, top.end
	for _, op := range ops {
		if op.Kind == Read || op.Outcome == Fail || op.Outcome == Ok && op.Ver != 0 || op.end < top.start {
			continue
		}
		sets := op.Outcome == Ok && op.start > last // begun after all above top returned
		present, absent = present && !sets || op.Kind == Write, absent && !sets || op.Kind == Delete
		last = max(last, op.end)
	}
	return present, absent
}
