package core

import (
	"context"
	"testing"
)

// setStep is one call on a Set, or a check of its members: add, remove,
// addall and removeall must fail exactly when fails says; in and out
// name members that must, and must not, be in the set.
type setStep struct {
	op      string
	members []string
	fails   bool
}

func setScript(t *testing.T, steps ...setStep) {
	t.Helper()
	ctx := context.Background()
	set := NewSet(newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 51).suite)
	for i, st := range steps {
		var err error
		switch st.op {
		case "add":
			err = set.Add(ctx, st.members[0])
		case "remove":
			err = set.Remove(ctx, st.members[0])
		case "addall":
			err = set.AddAll(ctx, st.members...)
		case "removeall":
			err = set.RemoveAll(ctx, st.members...)
		default:
			for _, m := range st.members {
				if in, err := set.Contains(ctx, m); err != nil || in != (st.op == "in") {
					t.Fatalf("step %d: contains %s = %v, %v", i, m, in, err)
				}
			}
		}
		if (err != nil) != st.fails {
			t.Fatalf("step %d: %s %q: %v", i, st.op, st.members, err)
		}
	}
}

// TestSetAddContainsRemove: Add and Remove are idempotent.
func TestSetAddContainsRemove(t *testing.T) {
	x := []string{"x"}
	setScript(t, setStep{"out", x, false}, setStep{"add", x, false}, setStep{"in", x, false},
		setStep{"add", x, false}, setStep{"remove", x, false}, setStep{"out", x, false}, setStep{"remove", x, false})
}

// TestSetAddAllAtomic: an AddAll may overlap the set, and one invalid
// member aborts the whole batch.
func TestSetAddAllAtomic(t *testing.T) {
	setScript(t, setStep{"addall", []string{"a", "b", "c"}, false}, setStep{"in", []string{"a", "b", "c"}, false},
		setStep{"addall", []string{"b", "c", "d"}, false}, setStep{"in", []string{"d"}, false},
		setStep{"addall", []string{"e", ""}, true}, setStep{"out", []string{"e"}, false})
}

// TestSetRemoveAllAtomic: a RemoveAll may name members not in the set.
func TestSetRemoveAllAtomic(t *testing.T) {
	setScript(t, setStep{"addall", []string{"a", "b", "c"}, false},
		setStep{"removeall", []string{"a", "never-there", "c"}, false},
		setStep{"out", []string{"a", "c"}, false}, setStep{"in", []string{"b"}, false})
}
