package rep

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"testing"

	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/wal"
)

// flipByte corrupts one byte in the middle of a file.
func flipByte(t *testing.T, path string, frac float64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[int(frac*float64(len(data)))] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// seedDurable opens, commits n inserts, and closes, leaving files behind.
func seedDurable(t *testing.T, name, walPath, snapPath string, n int) {
	t.Helper()
	r, d, err := OpenDurable(name, walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		commitInsert(t, r, lock.TxnID(i+1), string(rune('a'+i)), i+1)
	}
	d.Close()
}

func TestRecoveringModeBouncesReads(t *testing.T) {
	r := New("recovering")
	commitInsert(t, r, 1, "a", 1)
	r.SetRecovering(true)
	if !r.Recovering() {
		t.Fatal("Recovering() should be true")
	}
	if _, err := r.Lookup(ctx, 10, k("a")); !errors.Is(err, ErrRecovering) {
		t.Errorf("Lookup = %v, want ErrRecovering", err)
	}
	if _, err := r.Predecessor(ctx, 11, k("b")); !errors.Is(err, ErrRecovering) {
		t.Errorf("Predecessor = %v, want ErrRecovering", err)
	}
	if _, err := r.Successor(ctx, 12, k("a")); !errors.Is(err, ErrRecovering) {
		t.Errorf("Successor = %v, want ErrRecovering", err)
	}
	if _, err := r.PredecessorBatch(ctx, 13, k("b"), 3); !errors.Is(err, ErrRecovering) {
		t.Errorf("PredecessorBatch = %v, want ErrRecovering", err)
	}
	if _, err := r.SuccessorBatch(ctx, 14, k("a"), 3); !errors.Is(err, ErrRecovering) {
		t.Errorf("SuccessorBatch = %v, want ErrRecovering", err)
	}
	// Writes must still land: the rebuild itself uses them.
	commitInsert(t, r, 2, "b", 2)
	r.SetRecovering(false)
	res, err := r.Lookup(ctx, 15, k("b"))
	if err != nil || !res.Found {
		t.Errorf("write during recovery lost: %+v %v", res, err)
	}
	r.Commit(ctx, 15)
}

func TestCorruptSnapshotFallsBackToWAL(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	// Commit, checkpoint, then commit more WITHOUT truncating history:
	// easiest is to never checkpoint, so the WAL reaches back to LSN 1
	// and can cover for the snapshot entirely.
	r, d, err := OpenDurable("fb", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "a", 1)
	commitInsert(t, r, 2, "b", 2)
	if err := WriteSnapshot(snapPath, Snapshot{Name: "fb", Entries: r.Dump()}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	flipByte(t, snapPath, 0.5)

	// Even the strict policy tolerates this: the WAL alone rebuilds it.
	o := obs.NewObserver(obs.ObserverConfig{NoTrace: true})
	r2, d2, err := OpenDurable("fb", walPath, snapPath, WithDurableObserver(o))
	if err != nil {
		t.Fatalf("corrupt snapshot with full WAL should fall back: %v", err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if !rec.SnapshotCorrupt || rec.SnapshotLoaded || len(rec.Warnings) == 0 {
		t.Errorf("recovery report = %+v", rec)
	}
	for _, key := range []string{"a", "b"} {
		res, err := r2.Lookup(ctx, 10, k(key))
		if err != nil || !res.Found {
			t.Errorf("%s lost in WAL fallback: %+v %v", key, res, err)
		}
	}
	r2.Commit(ctx, 10)
	if s := o.Storage(); s.SnapshotFallbacks != 1 {
		t.Errorf("SnapshotFallbacks = %d, want 1", s.SnapshotFallbacks)
	}
}

func TestCorruptSnapshotWithTruncatedWAL(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("gone", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "a", 1)
	if err := d.Checkpoint(); err != nil { // truncates the WAL
		t.Fatal(err)
	}
	commitInsert(t, r, 2, "b", 2)
	d.Close()
	flipByte(t, snapPath, 0.5)

	// The WAL starts after the checkpoint; nothing can recover "a"
	// locally. Strict and salvage must refuse...
	if _, _, err := OpenDurable("gone", walPath, snapPath); err == nil {
		t.Fatal("strict open over unrecoverable snapshot should fail")
	}
	if _, _, err := OpenDurable("gone", walPath, snapPath, WithRecovery(RecoverSalvage)); err == nil {
		t.Fatal("salvage open over unrecoverable snapshot should fail")
	}
	// ...and rebuild opens empty, recovering, with the evidence archived.
	o := obs.NewObserver(obs.ObserverConfig{NoTrace: true})
	r2, d2, err := OpenDurable("gone", walPath, snapPath,
		WithRecovery(RecoverRebuild), WithDurableObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if !rec.Rebuilt || !rec.NeedsRepair || !rec.SnapshotCorrupt {
		t.Errorf("recovery report = %+v", rec)
	}
	if !r2.Recovering() {
		t.Error("rebuilt replica should open in recovering mode")
	}
	if r2.Len() != 2 {
		t.Errorf("rebuilt replica should hold only sentinels, got %d", r2.Len())
	}
	if _, err := os.Stat(snapPath + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not archived: %v", err)
	}
	if s := o.Storage(); s.Rebuilds != 1 {
		t.Errorf("Rebuilds = %d, want 1", s.Rebuilds)
	}
	// Writes land while recovering, and versions restart from scratch.
	commitInsert(t, r2, 7, "x", 1)
	r2.SetRecovering(false)
	res, err := r2.Lookup(ctx, 20, k("x"))
	if err != nil || !res.Found {
		t.Errorf("post-rebuild write lost: %+v %v", res, err)
	}
	r2.Commit(ctx, 20)
}

func TestMidLogCorruptionPolicies(t *testing.T) {
	openWith := func(t *testing.T, policy RecoveryPolicy) (string, string) {
		walPath, snapPath := durablePaths(t)
		r, d, err := OpenDurable("mid", walPath, snapPath)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range []string{"a", "b", "c", "d"} {
			commitInsert(t, r, lock.TxnID(i+1), key, i+1)
		}
		d.Close()
		flipByte(t, walPath, 0.6)
		return walPath, snapPath
	}

	t.Run("strict", func(t *testing.T) {
		walPath, snapPath := openWith(t, RecoverStrict)
		before, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = OpenDurable("mid", walPath, snapPath)
		if err == nil {
			t.Fatal("strict open over mid-log corruption should fail")
		}
		var report *wal.CorruptionReport
		if !errors.As(err, &report) {
			t.Fatalf("error should carry the corruption report: %v", err)
		}
		// The refusal must not have repaired the log behind the
		// operator's back: the file is untouched, no sidecar appeared,
		// and a second strict open still refuses — otherwise strict
		// would discard acknowledged bytes on its own after one retry.
		after, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Error("strict refusal modified the log")
		}
		if _, err := os.Stat(walPath + ".quarantine"); !os.IsNotExist(err) {
			t.Error("strict refusal wrote a quarantine sidecar")
		}
		if _, _, err := OpenDurable("mid", walPath, snapPath); err == nil {
			t.Fatal("second strict open should still refuse")
		}
	})

	t.Run("salvage", func(t *testing.T) {
		walPath, snapPath := openWith(t, RecoverSalvage)
		o := obs.NewObserver(obs.ObserverConfig{NoTrace: true})
		r, d, err := OpenDurable("mid", walPath, snapPath,
			WithRecovery(RecoverSalvage), WithDurableObserver(o))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		rec := d.Recovery()
		if rec.Salvage == nil || !rec.NeedsRepair || rec.Rebuilt {
			t.Errorf("recovery report = %+v", rec)
		}
		// The prefix survived: "a" must be present; reads stay enabled.
		res, err := r.Lookup(ctx, 10, k("a"))
		if err != nil || !res.Found {
			t.Errorf("salvaged prefix lost: %+v %v", res, err)
		}
		r.Commit(ctx, 10)
		if s := o.Storage(); s.Salvages != 1 || s.QuarantinedBytes == 0 {
			t.Errorf("storage stats = %+v", s)
		}
		// The log was truncated to the valid prefix, so a reopen is clean.
		r2, d2, err := OpenDurable("mid", walPath, snapPath)
		if err != nil {
			t.Fatalf("reopen after salvage should be clean: %v", err)
		}
		defer d2.Close()
		_ = r2
	})

	t.Run("rebuild", func(t *testing.T) {
		walPath, snapPath := openWith(t, RecoverRebuild)
		r, d, err := OpenDurable("mid", walPath, snapPath, WithRecovery(RecoverRebuild))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if !d.Recovery().Rebuilt || !r.Recovering() {
			t.Errorf("rebuild policy: report %+v, recovering %v", d.Recovery(), r.Recovering())
		}
		if _, err := os.Stat(walPath + ".corrupt"); err != nil {
			t.Errorf("corrupt WAL not archived: %v", err)
		}
	})
}

func TestTornTailRecoversUnderStrict(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	seedDurable(t, "torn", walPath, snapPath, 3)
	// Append garbage shorter than a header: a torn final append.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xF7, 'W'})
	f.Close()

	r, d, err := OpenDurable("torn", walPath, snapPath)
	if err != nil {
		t.Fatalf("torn tail must not fail strict recovery: %v", err)
	}
	defer d.Close()
	rec := d.Recovery()
	if rec.Salvage == nil || !rec.Salvage.Cause.Torn() || rec.NeedsRepair {
		t.Errorf("recovery report = %+v", rec)
	}
	res, err := r.Lookup(ctx, 10, k("c"))
	if err != nil || !res.Found {
		t.Errorf("committed entry lost to torn tail: %+v %v", res, err)
	}
	r.Commit(ctx, 10)
}

// TestBareGobSnapshotIsCorrupt: a snapshot without the checksummed
// header — what builds before the header wrote — is not read on trust.
// It is a corrupt snapshot like any other: abandoned when the log covers
// for it, refused when it does not.
func TestBareGobSnapshotIsCorrupt(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	seedDurable(t, "old", walPath, "", 2)
	var bare bytes.Buffer
	if err := gob.NewEncoder(&bare).Encode(Snapshot{Name: "old", Entries: New("old").Dump()}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, bare.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(snapPath); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("ReadSnapshot = %v, want ErrSnapshotCorrupt", err)
	}
	r, d, err := OpenDurable("old", walPath, snapPath)
	if err != nil {
		t.Fatalf("the log covers for the snapshot: %v", err)
	}
	defer d.Close()
	if rec := d.Recovery(); rec.SnapshotLoaded || !rec.SnapshotCorrupt {
		t.Errorf("recovery report = %+v", rec)
	}
	if r.Len() != 4 {
		t.Errorf("recovered %d entries from the log, want 4", r.Len())
	}
}

// TestOldFormatLogRefusedUnderEveryPolicy: a log this build cannot read
// is not damage. Salvage would quarantine all of it and rebuild would
// archive it, and either way the representative would open empty, so
// every policy refuses and the file stays as it was.
func TestOldFormatLogRefusedUnderEveryPolicy(t *testing.T) {
	old, err := os.ReadFile("../wal/testdata/v1.wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []RecoveryPolicy{RecoverStrict, RecoverSalvage, RecoverRebuild} {
		walPath, snapPath := durablePaths(t)
		if err := os.WriteFile(walPath, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenDurable("old", walPath, snapPath, WithRecovery(policy)); !errors.Is(err, wal.ErrOldFormat) {
			t.Errorf("%s: OpenDurable = %v, want wal.ErrOldFormat", policy, err)
		}
		if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, old) {
			t.Errorf("%s: refused log was modified (%v)", policy, err)
		}
		for _, moved := range []string{walPath + ".quarantine", walPath + ".corrupt"} {
			if _, err := os.Stat(moved); !os.IsNotExist(err) {
				t.Errorf("%s: %s exists after a refusal", policy, moved)
			}
		}
	}
}

func TestParseRecoveryPolicy(t *testing.T) {
	for s, want := range map[string]RecoveryPolicy{
		"strict": RecoverStrict, "salvage": RecoverSalvage, "Rebuild": RecoverRebuild,
	} {
		got, err := ParseRecoveryPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseRecoveryPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() == "" {
			t.Errorf("empty String() for %v", got)
		}
	}
	if _, err := ParseRecoveryPolicy("yolo"); err == nil {
		t.Error("unknown policy should error")
	}
}
