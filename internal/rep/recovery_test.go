package rep

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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
func seedDurable(t *testing.T, name, walPath string, n int) {
	t.Helper()
	r, d, err := OpenDurable(name, walPath)
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

// TestCorruptSnapshotWithTruncatedWAL damages the checkpoint section a
// compacted log opens with: cut at a frame boundary inside it, which
// scans clean but has no closing record, one flipped bit in it, and a
// cut inside its first frame. The
// history before the checkpoint is gone, so nothing can recover "a"
// locally: strict and salvage refuse, leaving the log as it was, and
// rebuild archives it and opens empty in recovering mode — never an
// empty store opened as if nothing were wrong.
func TestCorruptSnapshotWithTruncatedWAL(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("gone", walPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "a", 1)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	section := readFile(t, walPath)
	commitInsert(t, r, 2, "b", 2)
	d.Close()
	whole := readFile(t, walPath)

	cut := append([]byte(nil), section[:len(section)/2]...)
	records, report, err := wal.ScanFileLog(writeTemp(t, cut))
	for report != nil && report.Cause.Torn() {
		// Back up to the last whole frame, so the scan is clean.
		cut = cut[:report.Offset]
		records, report, err = wal.ScanFileLog(writeTemp(t, cut))
	}
	if err != nil || len(records) == 0 {
		t.Fatalf("no whole frame in the first half of the section: %d records, %v", len(records), err)
	}
	flipped := append([]byte(nil), whole...)
	flipped[len(section)/2] ^= 0x40

	for _, damage := range []struct {
		name string
		log  []byte
	}{
		{"cut at a frame boundary", cut},
		{"bit flip", flipped},
		// With no whole frame left, nothing says a section was there.
		{"cut inside the first frame", section[:5]},
	} {
		for _, policy := range []RecoveryPolicy{RecoverStrict, RecoverSalvage} {
			p := writeTemp(t, damage.log)
			if _, _, err := OpenDurable("gone", p, WithRecovery(policy)); err == nil {
				t.Errorf("%s, %s: open over a damaged checkpoint section should fail", damage.name, policy)
			}
			if !bytes.Equal(readFile(t, p), damage.log) {
				t.Errorf("%s, %s: the refusal modified the log", damage.name, policy)
			}
			if _, err := os.Stat(p + ".quarantine"); !os.IsNotExist(err) {
				t.Errorf("%s, %s: the refusal wrote a quarantine sidecar", damage.name, policy)
			}
		}
		// Rebuild opens empty, recovering, with the evidence archived.
		p := writeTemp(t, damage.log)
		o := obs.NewObserver(obs.ObserverConfig{NoTrace: true})
		r2, d2, err := OpenDurable("gone", p, WithRecovery(RecoverRebuild), WithDurableObserver(o))
		if err != nil {
			t.Fatalf("%s, rebuild: %v", damage.name, err)
		}
		rec := d2.Recovery()
		if !rec.Rebuilt || !rec.NeedsRepair {
			t.Errorf("%s: recovery report = %+v", damage.name, rec)
		}
		if !r2.Recovering() {
			t.Errorf("%s: rebuilt replica should open in recovering mode", damage.name)
		}
		if r2.Len() != 2 {
			t.Errorf("%s: rebuilt replica should hold only sentinels, got %d", damage.name, r2.Len())
		}
		if archived, err := os.ReadFile(p + ".corrupt"); err != nil || !bytes.Equal(archived, damage.log) {
			t.Errorf("%s: damaged log not archived whole (%v)", damage.name, err)
		}
		if s := o.Storage(); s.Rebuilds != 1 {
			t.Errorf("%s: Rebuilds = %d, want 1", damage.name, s.Rebuilds)
		}
		// Writes land while recovering, and versions restart from scratch.
		commitInsert(t, r2, 7, "x", 1)
		r2.SetRecovering(false)
		res, err := r2.Lookup(ctx, 20, k("x"))
		if err != nil || !res.Found {
			t.Errorf("%s: post-rebuild write lost: %+v %v", damage.name, res, err)
		}
		r2.Commit(ctx, 20)
		d2.Close()
	}
}

// writeTemp writes data to a fresh log path and returns the path.
func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "rep.wal")
	writeFile(t, p, data)
	return p
}

func TestMidLogCorruptionPolicies(t *testing.T) {
	openWith := func(t *testing.T, policy RecoveryPolicy) string {
		walPath := durablePath(t)
		r, d, err := OpenDurable("mid", walPath)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range []string{"a", "b", "c", "d"} {
			commitInsert(t, r, lock.TxnID(i+1), key, i+1)
		}
		d.Close()
		flipByte(t, walPath, 0.6)
		return walPath
	}

	t.Run("strict", func(t *testing.T) {
		walPath := openWith(t, RecoverStrict)
		before, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = OpenDurable("mid", walPath)
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
		if _, _, err := OpenDurable("mid", walPath); err == nil {
			t.Fatal("second strict open should still refuse")
		}
	})

	t.Run("salvage", func(t *testing.T) {
		walPath := openWith(t, RecoverSalvage)
		o := obs.NewObserver(obs.ObserverConfig{NoTrace: true})
		r, d, err := OpenDurable("mid", walPath,
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
		r2, d2, err := OpenDurable("mid", walPath)
		if err != nil {
			t.Fatalf("reopen after salvage should be clean: %v", err)
		}
		defer d2.Close()
		_ = r2
	})

	t.Run("rebuild", func(t *testing.T) {
		walPath := openWith(t, RecoverRebuild)
		r, d, err := OpenDurable("mid", walPath, WithRecovery(RecoverRebuild))
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
	walPath := durablePath(t)
	seedDurable(t, "torn", walPath, 3)
	// Append garbage shorter than a header: a torn final append.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xF7, 'W'})
	f.Close()

	r, d, err := OpenDurable("torn", walPath)
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
		walPath := durablePath(t)
		if err := os.WriteFile(walPath, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenDurable("old", walPath, WithRecovery(policy)); !errors.Is(err, wal.ErrOldFormat) {
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

// TestFreshLogOpensWithSection: a missing log is created holding the
// section of an empty representative, so no log this build writes
// lacks one. Creation is a rename of a fsynced temp file, so a crash
// before it leaves no log, and the next open starts over, ignoring the
// temp file. A log that is there but holds no whole record — empty, or
// cut inside its first frame — has lost its section: strict and
// salvage refuse it untouched, and rebuild opens empty and recovering.
func TestFreshLogOpensWithSection(t *testing.T) {
	walPath := durablePath(t)
	writeFile(t, walPath+".compact", []byte("a temp file a crash left behind"))
	_, d, err := OpenDurable("new", walPath)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	records := readLog(t, walPath)
	if owner, whole, err := checkpointOwner(walPath, records); owner != "new" || !whole || err != nil {
		t.Fatalf("fresh log %+v: section of %q (whole %v, %v), want one naming new", records, owner, whole, err)
	}
	if len(records) != 3 || records[0].LSN != 1 {
		t.Errorf("fresh log holds %+v, want the three-record section of an empty representative from LSN 1", records)
	}
	if _, err := os.Stat(walPath + ".compact"); !os.IsNotExist(err) {
		t.Errorf("temp file left beside the created log (%v)", err)
	}
	section := readFile(t, walPath)

	for _, damage := range []struct {
		name string
		log  []byte
	}{
		{"empty", nil},
		{"cut inside the first frame", section[:5]},
	} {
		for _, policy := range []RecoveryPolicy{RecoverStrict, RecoverSalvage} {
			p := writeTemp(t, damage.log)
			if _, _, err := OpenDurable("new", p, WithRecovery(policy)); err == nil {
				t.Errorf("%s, %s: a log with no whole record opened", damage.name, policy)
			}
			if !bytes.Equal(readFile(t, p), damage.log) {
				t.Errorf("%s, %s: the refusal modified the log", damage.name, policy)
			}
		}
		// Rebuild archives it and opens empty, recovering, on a log
		// created whole.
		p := writeTemp(t, damage.log)
		r, d, err := OpenDurable("new", p, WithRecovery(RecoverRebuild))
		if err != nil {
			t.Fatalf("%s, rebuild: %v", damage.name, err)
		}
		d.Close()
		if !d.Recovery().Rebuilt || !r.Recovering() || !bytes.Equal(readFile(t, p), section) {
			t.Errorf("%s, rebuild: report %+v, recovering %v, log %x", damage.name, d.Recovery(), r.Recovering(), readFile(t, p))
		}
	}
}

// TestEarlierBuildLog: a log written before checkpoint sections opens
// with a transaction's record. From LSN 1 it is the whole history and
// is read as it is. From a later LSN, a snapshot checkpoint cut it and
// the rest of the history is in a snapshot file this build does not
// read: every policy refuses it with wal.ErrOldFormat, file untouched.
func TestEarlierBuildLog(t *testing.T) {
	write := func(t *testing.T, first uint64) string {
		t.Helper()
		p := durablePath(t)
		l, err := wal.OpenFileLog(p)
		if err != nil {
			t.Fatal(err)
		}
		l.StartAt(first)
		for _, rec := range []wal.Record{
			{Kind: wal.KindInsert, Txn: 7, Key: k("a"), Version: 1, Value: "v"},
			{Kind: wal.KindPrepare, Txn: 7, Writers: 1},
			{Kind: wal.KindCommit, Txn: 7},
		} {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}

	r, d, err := OpenDurable("old", write(t, 1))
	if err != nil {
		t.Fatalf("a whole log from an earlier build: %v", err)
	}
	if res, err := r.Lookup(ctx, 10, k("a")); err != nil || !res.Found {
		t.Errorf("a lost from an earlier build's log: %+v %v", res, err)
	}
	r.Commit(ctx, 10)
	d.Close()

	for _, policy := range []RecoveryPolicy{RecoverStrict, RecoverSalvage, RecoverRebuild} {
		p := write(t, 40)
		before := readFile(t, p)
		if _, _, err := OpenDurable("old", p, WithRecovery(policy)); !errors.Is(err, wal.ErrOldFormat) {
			t.Errorf("%s: OpenDurable over a log cut by a snapshot = %v, want wal.ErrOldFormat", policy, err)
		}
		if !bytes.Equal(readFile(t, p), before) {
			t.Errorf("%s: refused log was modified", policy)
		}
		for _, moved := range []string{p + ".quarantine", p + ".corrupt"} {
			if _, err := os.Stat(moved); !os.IsNotExist(err) {
				t.Errorf("%s: %s exists after a refusal", policy, moved)
			}
		}
	}
}
