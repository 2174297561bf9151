package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/wal"
	"repdir/internal/wal/waltest"
)

func walRec(i int) wal.Record {
	return wal.Record{Kind: wal.KindInsert, Txn: 1, Key: keyspace.New("k"), Version: 1, Value: "v"}
}

// openFaultLog builds a FileLog over a FaultFile over a real file.
func openFaultLog(t *testing.T, path string, plan StoragePlan) (*wal.FileLog, *FaultFile) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff := NewFaultFile(f, plan)
	return wal.NewFileLog(ff), ff
}

// TestFaultFileWriteErr: a full disk fails the append atomically and the
// file stays untouched and salvageable.
func TestFaultFileWriteErr(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	log, ff := openFaultLog(t, path, StoragePlan{PWriteErr: 1, Seed: 1})
	if err := log.Append(walRec(1)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append under full disk = %v, want ErrNoSpace", err)
	}
	if st := ff.Stats(); st.WriteErrs != 1 || st.BytesWritten != 0 {
		t.Errorf("stats = %+v, want one write error, zero bytes", st)
	}
	recs, salvage, err := wal.SalvageFileLog(path)
	if err != nil || salvage != nil || len(recs) != 0 {
		t.Errorf("after failed write: recs=%d salvage=%v err=%v, want clean empty log", len(recs), salvage, err)
	}
}

// TestFaultFileTornWrite: a torn append leaves a prefix that salvage
// truncates away, keeping the records written before it.
func TestFaultFileTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	clean, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := clean.Append(walRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}

	// Seed 3's first torn cut lands mid-frame (nonzero prefix).
	log, ff := openFaultLog(t, path, StoragePlan{PTornWrite: 1, Seed: 3})
	log.StartAt(6)
	if err := log.Append(walRec(6)); !errors.Is(err, ErrIO) {
		t.Fatalf("torn append = %v, want ErrIO", err)
	}
	st := ff.Stats()
	if st.TornWrites != 1 || st.BytesTorn == 0 {
		t.Fatalf("stats = %+v, want one torn write with torn bytes", st)
	}

	recs, salvage, err := wal.SalvageFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("salvaged %d records, want the 5 clean ones", len(recs))
	}
	if st.BytesWritten > 0 {
		if salvage == nil || !salvage.Cause.Torn() {
			t.Errorf("salvage report = %v, want a torn tail", salvage)
		}
	} else if salvage != nil {
		t.Errorf("salvage report = %v for zero-byte tear, want clean", salvage)
	}
}

// TestFaultFileBitFlip: a silently corrupted append succeeds but cannot
// survive the checksum on the read side.
func TestFaultFileBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.wal")
	log, ff := openFaultLog(t, path, StoragePlan{PBitFlip: 1, Seed: 7})
	if err := log.Append(walRec(1)); err != nil {
		t.Fatalf("bit-flipped append reported %v, want silent success", err)
	}
	if st := ff.Stats(); st.BitFlips != 1 {
		t.Fatalf("stats = %+v, want one bit flip", st)
	}
	recs, salvage, _ := wal.SalvageFileLog(path)
	if len(recs) != 0 || salvage == nil {
		t.Errorf("flipped frame read back as %d records (report %v), want checksum rejection", len(recs), salvage)
	}
}

// TestFaultFileFsyncFail: the sync fails but the write went through, so
// the data is readable — the caller just cannot rely on it.
func TestFaultFileFsyncFail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	log, ff := openFaultLog(t, path, StoragePlan{PFsyncFail: 1, Seed: 1})
	log.SetSyncPolicy(wal.SyncAlways)
	if err := log.Append(walRec(1)); !errors.Is(err, ErrIO) {
		t.Fatalf("append under failing fsync = %v, want ErrIO", err)
	}
	if st := ff.Stats(); st.FsyncFails != 1 || st.Syncs != 1 {
		t.Errorf("stats = %+v, want one failed sync", st)
	}
	if recs, salvage, err := wal.SalvageFileLog(path); err != nil || salvage != nil || len(recs) != 1 {
		t.Errorf("recs=%d salvage=%v err=%v, want the one record readable", len(recs), salvage, err)
	}
}

// TestFaultFileDeterminism: the same seed over the same operation
// sequence injects exactly the same faults.
func TestFaultFileDeterminism(t *testing.T) {
	run := func() StorageStats {
		ff := NewFaultFile(&waltest.File{}, StoragePlan{
			PFsyncFail: 0.2, PWriteErr: 0.1, PTornWrite: 0.1, PBitFlip: 0.1, Seed: 42,
		})
		buf := make([]byte, 64)
		for i := 0; i < 200; i++ {
			ff.Write(buf) // errors expected; the schedule is what matters
			ff.Sync()
		}
		return ff.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	if a.WriteErrs == 0 || a.TornWrites == 0 || a.BitFlips == 0 || a.FsyncFails == 0 {
		t.Errorf("stats = %+v, want every fault kind exercised", a)
	}
}

// TestFaultFileQuiesce: after Quiesce the file behaves cleanly.
func TestFaultFileQuiesce(t *testing.T) {
	ff := NewFaultFile(&waltest.File{}, StoragePlan{PWriteErr: 1, Seed: 1})
	if _, err := ff.Write([]byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write = %v, want ErrNoSpace", err)
	}
	ff.Quiesce()
	if n, err := ff.Write([]byte("xy")); n != 2 || err != nil {
		t.Errorf("write after quiesce = (%d, %v), want clean", n, err)
	}
	if err := ff.Sync(); err != nil {
		t.Errorf("sync after quiesce = %v", err)
	}
}
