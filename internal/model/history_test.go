package model

import (
	"strings"
	"testing"

	"repdir/internal/version"
)

// The helpers record one operation on key "k", invoked and returned
// back to back.
func write(h *History, value string, out Outcome, ver version.V) {
	h.Return(h.Invoke(Write, "k", value), out, ver)
}

func del(h *History, ver version.V) { h.Return(h.Invoke(Delete, "k", ""), Ok, ver) }

func read(h *History, value string, found bool, ver version.V) {
	h.Read(h.Invoke(Read, "k", ""), value, found, ver)
}

func refuse(h *History, kind Kind, value string, exists bool) {
	h.Refused("k", h.Invoke(kind, "k", value), exists)
}

// historyCase is one hand-made history: want is a fragment of the breach
// it must be flagged with, "" where a single copy could have produced it.
type historyCase struct {
	name string
	run  func(h *History)
	want string
}

func checkCases(t *testing.T, cases []historyCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistory()
			tc.run(h)
			bad := h.Check()
			switch {
			case tc.want == "" && len(bad) > 0:
				t.Errorf("flagged %q", bad)
			case tc.want != "" && (len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), tc.want)):
				t.Errorf("flagged %q, want a breach containing %q", bad, tc.want)
			}
		})
	}
}

// TestHistoryRules feeds the checker one anomaly per rule, and histories
// with late, misplaced, retried and version-less writes.
func TestHistoryRules(t *testing.T) {
	checkCases(t, []historyCase{
		{"single copy", func(h *History) {
			read(h, "", false, 0)
			write(h, "a", Ok, 1)
			read(h, "a", true, 1)
			del(h, 2)
			read(h, "", false, 2)
			write(h, "b", Ok, 3)
		}, ""},
		{"rule 1: two writes at one version", func(h *History) {
			x, y := h.Invoke(Write, "k", "a"), h.Invoke(Write, "k", "b")
			h.Return(x, Ok, 1)
			h.Return(y, Ok, 1)
		}, "all produced version 1"},
		{"rule 1: a delete's version read as an entry", func(h *History) {
			write(h, "a", Indeterminate, 0)
			del(h, 2)
			read(h, "a", true, 2)
		}, "all produced version 2"},
		{"rule 2: a later write below an earlier one", func(h *History) {
			write(h, "a", Ok, 2)
			write(h, "b", Ok, 1)
		}, `write "b" [3,4] at version 1 began after write "a" [1,2] at version 2 returned`},
		{"rule 2: a read of a write not begun", func(h *History) {
			r := h.Invoke(Read, "k", "")
			h.Read(r, "", false, 1)
			del(h, 1)
		}, "returned before"},
		{"rule 3: a value no write wrote", func(h *History) { read(h, "x", true, 1) }, "no write of that value"},
		{"rule 3: a refused write's value", func(h *History) {
			write(h, "a", Fail, 0)
			read(h, "a", true, 1)
		}, "no write of that value"},
		{"rule 3: a value above its write's version", func(h *History) {
			write(h, "a", Ok, 1)
			read(h, "a", true, 2)
		}, "no write of that value"},
		{"rule 3: a miss at a write's version", func(h *History) {
			write(h, "a", Ok, 1)
			read(h, "", false, 1)
		}, "a read missed at version 1"},
		{"rule 4: a read below an acknowledged write", func(h *History) {
			write(h, "a", Ok, 1)
			write(h, "b", Ok, 2)
			read(h, "a", true, 1)
		}, `read "a" [5,6] at version 1 began after write "b" [3,4] at version 2 returned`},
		{"rule 4: a read below a write without its version", func(h *History) {
			del(h, 2)
			write(h, "a", Ok, 0)
			read(h, "", false, 2)
		}, `read "" [5,6] at version 2 began after write "a" [3,4], which wrote above version 2, returned`},
		{"indeterminate write shows up late", func(h *History) {
			write(h, "a", Ok, 1)
			write(h, "b", Indeterminate, 0)
			read(h, "a", true, 1)
			read(h, "b", true, 2)
		}, ""},
		{"indeterminate write shows up below what returned before it began", func(h *History) {
			write(h, "a", Ok, 2)
			write(h, "b", Indeterminate, 0)
			read(h, "b", true, 1)
		}, `write "b" [3,4] at version 1 began after write "a" [1,2] at version 2 returned`},
		{"retried write shows up below its acknowledged version", func(h *History) {
			w := h.Invoke(Write, "k", "a")
			read(h, "a", true, 1)
			h.Return(w, Ok, 2)
			read(h, "a", true, 2)
		}, ""},
		{"write without a version placed by a read", func(h *History) {
			write(h, "a", Ok, 0)
			read(h, "a", true, 3)
			write(h, "b", Ok, 0)
			read(h, "b", true, 2)
		}, `read "b" [7,8] at version 2 began after write "a" [1,2] at version 3 returned`},
	})
}

// TestCheckLookupAgainstCertainState: once a write is acknowledged, a
// read that begins later sees its value or something newer.
func TestCheckLookupAgainstCertainState(t *testing.T) {
	h := NewHistory()
	write(h, "v1", Ok, 1)
	read(h, "v1", true, 1)
	read(h, "v2", true, 1) // no write of v2
	read(h, "", false, 0)  // below v1
	if bad := h.Check(); len(bad) != 2 {
		t.Errorf("breaches %q, want 2", bad)
	}
}

// TestIndeterminateReanchorsOnObservation: an ambiguous write leaves
// its key uncertain in the count bounds until a later read places it.
func TestIndeterminateReanchorsOnObservation(t *testing.T) {
	h := NewHistory()
	write(h, "v1", Ok, 1)
	if lo, hi := h.CountBounds(); lo != 1 || hi != 1 {
		t.Errorf("after an acknowledged write: [%d, %d], want [1, 1]", lo, hi)
	}
	h.Return(h.Invoke(Delete, "k", ""), Indeterminate, 0)
	if lo, hi := h.CountBounds(); lo != 0 || hi != 1 {
		t.Errorf("after an ambiguous delete: [%d, %d], want [0, 1]", lo, hi)
	}
	read(h, "", false, 2)
	if lo, hi := h.CountBounds(); lo != 0 || hi != 0 {
		t.Errorf("after a miss: [%d, %d], want [0, 0]", lo, hi)
	}
	write(h, "v2", Ok, 0) // no version in hand, but after everything else
	if lo, hi := h.CountBounds(); lo != 1 || hi != 1 {
		t.Errorf("after a write without its version: [%d, %d], want [1, 1]", lo, hi)
	}
	if bad := h.Check(); len(bad) != 0 {
		t.Errorf("flagged %q", bad)
	}
}

// TestInsertExists: with one client, an insert refused because the key
// exists put it there itself, in an attempt whose reply was lost, where
// the key was certainly absent; it took no effect where the key was
// certainly present; and where the key was uncertain it may have done
// either.
func TestInsertExists(t *testing.T) {
	checkCases(t, []historyCase{
		{"on absent, its value read", func(h *History) { refuse(h, Write, "mine", true); read(h, "mine", true, 1) }, ""},
		{"on absent, a miss after", func(h *History) { refuse(h, Write, "mine", true); read(h, "", false, 0) }, "wrote above version 0"},
		{"on present, the old value read", func(h *History) { write(h, "old", Ok, 1); refuse(h, Write, "mine", true); read(h, "old", true, 1) }, ""},
		{"on present, its value read", func(h *History) { write(h, "old", Ok, 1); refuse(h, Write, "mine", true); read(h, "mine", true, 2) }, "no write of that value"},
		{"on uncertain, its value read", func(h *History) {
			write(h, "old", Indeterminate, 0)
			refuse(h, Write, "m", true)
			read(h, "m", true, 1)
		}, ""},
	})
	h := NewHistory()
	refuse(h, Write, "mine", true)
	if lo, hi := h.CountBounds(); lo != 1 || hi != 1 {
		t.Errorf("insert-exists on absent: [%d, %d], want [1, 1]", lo, hi)
	}
}

// TestUpdateNotFound: no attempt of an update removes its key, so with
// one client an update refused because the key is absent took no effect,
// and is a breach where the key was certainly present.
func TestUpdateNotFound(t *testing.T) {
	checkCases(t, []historyCase{
		{"on present", func(h *History) { write(h, "v", Ok, 1); refuse(h, Write, "u", false) }, "certainly present"},
		{"on uncertain", func(h *History) { write(h, "v", Indeterminate, 0); refuse(h, Write, "u", false) }, ""},
		{"on uncertain, its value read", func(h *History) { write(h, "v", Indeterminate, 0); refuse(h, Write, "u", false); read(h, "u", true, 1) }, "no write of that value"},
	})
}

// TestDeleteNotFoundNeverViolates: a delete refused where the key was
// certainly present breaks no rule: an earlier attempt of it may have
// won. Either way the key is absent after it.
func TestDeleteNotFoundNeverViolates(t *testing.T) {
	h := NewHistory()
	write(h, "v", Ok, 1)
	refuse(h, Delete, "", false)
	if lo, hi := h.CountBounds(); lo != 0 || hi != 0 {
		t.Errorf("count bounds [%d, %d], want [0, 0]", lo, hi)
	}
	read(h, "", false, 2)
	if bad := h.Check(); len(bad) != 0 {
		t.Errorf("flagged %q", bad)
	}
}

func TestKeysSorted(t *testing.T) {
	h := NewHistory()
	for _, k := range []string{"b", "a", "c"} {
		h.Return(h.Invoke(Write, k, "v"), Ok, 1)
	}
	h.Invoke(Read, "d", "") // read only: not a key to audit
	if got := strings.Join(h.Keys(), ","); got != "a,b,c" {
		t.Errorf("keys = %s, want a,b,c", got)
	}
}
