package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repdir/internal/keyspace"
)

func rec(kind Kind, txn uint64, key string) Record {
	return Record{Kind: kind, Txn: txn, Key: keyspace.New(key)}
}

func TestMemoryLogAppendAndRecords(t *testing.T) {
	var l MemoryLog
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(KindInsert, uint64(i), "k")); err != nil {
			t.Fatal(err)
		}
	}
	got := l.Records()
	if len(got) != 3 || got[2].Txn != 2 {
		t.Errorf("records = %+v", got)
	}
	// Records returns a copy.
	got[0].Txn = 99
	if l.Records()[0].Txn == 99 {
		t.Error("Records must return a copy")
	}
}

func TestMemoryLogClosed(t *testing.T) {
	var l MemoryLog
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(KindInsert, 1, "k")); err != ErrClosed {
		t.Errorf("Append after close = %v, want ErrClosed", err)
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: KindInsert, Txn: 1, Key: keyspace.New("a"), Version: 3, Value: "va"},
		{Kind: KindCoalesce, Txn: 1, Key: keyspace.Low(), Hi: keyspace.New("c"), Version: 4},
		{Kind: KindCommit, Txn: 1},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := scanClean(t, path)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Txn != want[i].Txn ||
			!got[i].Key.Equal(want[i].Key) || got[i].Version != want[i].Version ||
			got[i].Value != want[i].Value {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFileLogAppendReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.wal")
	l1, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l1.Append(rec(KindInsert, 1, "a")); err != nil {
		t.Fatal(err)
	}
	l1.Close()
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(rec(KindCommit, 1, "")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got := scanClean(t, path)
	if len(got) != 2 {
		t.Fatalf("read %d records after reopen, want 2", len(got))
	}
}

func TestFileLogToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(rec(KindInsert, 1, "a"))
	l.Append(rec(KindCommit, 1, ""))
	l.Close()
	// Simulate a torn write by appending garbage bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00})
	f.Close()
	got, report, err := ScanFileLog(path)
	if err != nil || report == nil || !report.Cause.Torn() {
		t.Fatalf("torn tail: report %v, %v", report, err)
	}
	if len(got) != 2 {
		t.Fatalf("torn tail should preserve %d intact records, got %d", 2, len(got))
	}
}

func TestLSNAssignment(t *testing.T) {
	var l MemoryLog
	if l.NextLSN() != 1 {
		t.Errorf("fresh log NextLSN = %d, want 1", l.NextLSN())
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(KindInsert, 1, "k")); err != nil {
			t.Fatal(err)
		}
	}
	got := l.Records()
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Errorf("record %d LSN = %d", i, r.LSN)
		}
	}
	if l.NextLSN() != 4 {
		t.Errorf("NextLSN = %d, want 4", l.NextLSN())
	}
}

func TestFileLogLSNAcrossReopenAndTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rep.wal")
	l1, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l1.Append(rec(KindInsert, 1, "a"))
	l1.Append(rec(KindCommit, 1, ""))
	l1.Close()

	records := scanClean(t, path)
	if records[1].LSN != 2 {
		t.Fatalf("persisted LSN = %d, want 2", records[1].LSN)
	}
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.StartAt(records[len(records)-1].LSN + 1)
	// A compaction of a checkpoint that covers only LSN 1 must leave the
	// log alone, and no temp file beside it: record 2 is nowhere else.
	if err := l2.Compact(path, 1, []Record{rec(KindInsert, 0, "a")}); err != nil {
		t.Fatal(err)
	}
	if records = scanClean(t, path); len(records) != 2 {
		t.Fatalf("after a stale Compact: %d records, want 2", len(records))
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("a stale Compact left its temp file behind (stat: %v)", err)
	}
	// The compacted records are numbered on from the log, and appends
	// keep counting after them.
	if err := l2.Compact(path, 2, []Record{rec(KindInsert, 0, "a"), rec(KindCommit, 0, "")}); err != nil {
		t.Fatal(err)
	}
	l2.Append(rec(KindInsert, 2, "b"))
	l2.Close()
	records = scanClean(t, path)
	if len(records) != 3 || records[0].LSN != 3 || records[1].LSN != 4 || records[2].LSN != 5 || records[2].Key.Raw() != "b" {
		t.Fatalf("after compaction: %+v, want the two compacted records at LSNs 3 and 4 and b's at 5", records)
	}
}

// replayed returns the keys recovery replays from records: the redo
// records Analyze files as committed, in order.
func replayed(t *testing.T, records []Record) (Analysis, []string) {
	t.Helper()
	a, err := Analyze(records)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range a.Committed {
		keys = append(keys, r.Key.Raw())
	}
	return a, keys
}

func TestReplayCommitsOnly(t *testing.T) {
	records := []Record{
		rec(KindInsert, 1, "a"),
		rec(KindInsert, 2, "b"),
		{Kind: KindPrepare, Txn: 2, Writers: 3},
		rec(KindInsert, 3, "c"),
		{Kind: KindCommit, Txn: 1},
		{Kind: KindAbort, Txn: 3},
		// txn 2 prepared but never decided: in doubt, not replayed.
	}
	a, applied := replayed(t, records)
	if len(applied) != 1 || applied[0] != "a" {
		t.Errorf("applied = %v, want [a]", applied)
	}
	if p := a.InDoubt[2]; len(a.InDoubt) != 1 || len(p.Redo) != 1 || p.Writers != 3 {
		t.Errorf("in doubt = %v, want txn 2 with its one insert and 3 writers", a.InDoubt)
	}
}

func TestReplayPreservesIntraTxnOrder(t *testing.T) {
	records := []Record{
		rec(KindInsert, 7, "x"),
		rec(KindCoalesce, 7, "y"),
		rec(KindInsert, 7, "z"),
		{Kind: KindCommit, Txn: 7},
	}
	_, order := replayed(t, records)
	want := []string{"x", "y", "z"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestReplayCommitOrderAcrossTxns(t *testing.T) {
	records := []Record{
		rec(KindInsert, 2, "late"),
		rec(KindInsert, 1, "early"),
		{Kind: KindCommit, Txn: 1},
		{Kind: KindCommit, Txn: 2},
	}
	_, order := replayed(t, records)
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Errorf("replay must follow commit order, got %v", order)
	}
}

func TestReplayRejectsUnknownKind(t *testing.T) {
	if _, err := Analyze([]Record{{Kind: Kind(99)}}); err == nil {
		t.Error("unknown kind should fail analysis")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindInsert:   "insert",
		KindCoalesce: "coalesce",
		KindPrepare:  "prepare",
		KindCommit:   "commit",
		KindAbort:    "abort",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestFileLogSyncPolicyOnCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Default policy: redo records do not sync on their own...
	if err := l.Append(rec(KindInsert, 1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(KindCoalesce, 1, "a")); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncCount(); got != 0 {
		t.Fatalf("redo records synced %d times, want 0", got)
	}
	// ...the prepare forces the log to disk, carrying the redo records
	// that precede it...
	if err := l.Append(rec(KindPrepare, 1, "")); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncCount(); got != 1 {
		t.Fatalf("sync count after prepare = %d, want 1", got)
	}
	// ...the commit rests on it and does not...
	if err := l.Append(rec(KindCommit, 1, "")); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncCount(); got != 1 {
		t.Fatalf("sync count after commit = %d, want still 1", got)
	}
	// ...and an abort forces the log again.
	if err := l.Append(rec(KindPrepare, 2, "")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(KindAbort, 2, "")); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncCount(); got != 3 {
		t.Fatalf("sync count after prepare and abort = %d, want 3", got)
	}
}

func TestFileLogSyncPolicyNeverAndAlways(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetSyncPolicy(SyncNever)
	if err := l.Append(rec(KindCommit, 1, "")); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncCount(); got != 0 {
		t.Fatalf("SyncNever synced %d times", got)
	}
	l.SetSyncPolicy(SyncAlways)
	if err := l.Append(rec(KindInsert, 2, "a")); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncCount(); got != 1 {
		t.Fatalf("SyncAlways sync count = %d, want 1", got)
	}
}

func TestSyncPolicyString(t *testing.T) {
	for p, want := range map[SyncPolicy]string{
		SyncOnCommit:  "commit",
		SyncNever:     "never",
		SyncAlways:    "always",
		SyncPolicy(9): "SyncPolicy(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

// scanClean returns the records of the log at path, which must scan to
// a clean end.
func scanClean(t *testing.T, path string) []Record {
	t.Helper()
	records, report, err := ScanFileLog(path)
	if err != nil || report != nil {
		t.Fatalf("scan %s: %v %v", path, report, err)
	}
	return records
}
