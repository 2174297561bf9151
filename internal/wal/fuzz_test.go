package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/version"
)

// fuzzKey builds any key the domain holds from two fuzzed values.
func fuzzKey(kind uint8, s string) keyspace.Key {
	switch kind % 3 {
	case 0:
		return keyspace.Low()
	case 1:
		return keyspace.High()
	}
	return keyspace.New(s)
}

// FuzzRecordRoundTrip checks the record codec from both ends. Any record
// encodes to a frame that decodes to the same record. Any bytes at all
// either fail to decode or are the one encoding of the record they
// decode to, and inside a frame whose checksum holds they are one record
// or CauseDecode, never a panic.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(KindInsert), uint64(1), uint64(7), uint8(2), "alpha", uint8(2), "", uint64(3), "a", uint64(0), uint64(0), []byte{})
	f.Add(int64(KindCoalesce), uint64(2), uint64(7), uint8(0), "", uint8(1), "", uint64(300), "", uint64(0), uint64(0), []byte{4, 1, 7, 1, 2, 1, 2, 0, 0, 0, 0})
	f.Add(int64(KindEpoch), ^uint64(0), ^uint64(0), uint8(2), "\x00", uint8(2), "\xff", ^uint64(0), "\x00", ^uint64(0), ^uint64(0), []byte{4, 1, 7, 1, 2, 1, 2, 0, 0, 0, 0, 0})
	f.Add(int64(-1), uint64(0), uint64(0), uint8(2), "", uint8(2), "", uint64(0), "", uint64(0), uint64(3), []byte{0x84, 0, 1, 7, 1, 2, 1, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, kind int64, lsn, txn uint64, keyKind uint8, key string, hiKind uint8, hi string, ver uint64, value string, epoch, writers uint64, raw []byte) {
		rec := Record{LSN: lsn, Kind: Kind(kind), Txn: txn, Key: fuzzKey(keyKind, key), Hi: fuzzKey(hiKind, hi),
			Version: version.V(ver), Value: value, Epoch: epoch, Writers: writers}
		frame, err := appendFrame(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := decodeRecord(frame[frameHeaderLen:]); !ok || got != rec {
			t.Fatalf("%+v decodes as %+v (ok=%v)", rec, got, ok)
		}
		records, report := scanFrames("fuzz", bytes.NewReader(frame), int64(len(frame)))
		if report.Cause != CauseNone || len(records) != 1 || records[0] != rec {
			t.Fatalf("frame of %+v scans as %+v (%v)", rec, records, report.Cause)
		}

		got, ok := decodeRecord(raw)
		again, err := appendFrame(nil, &got)
		if err != nil {
			t.Fatal(err)
		}
		if ok && !bytes.Equal(again[frameHeaderLen:], raw) {
			t.Fatalf("%x decodes to %+v, whose encoding is %x", raw, got, again[frameHeaderLen:])
		}
		// The same bytes behind a header that vouches for them.
		framed := append(append([]byte(nil), again[:frameHeaderLen]...), raw...)
		if !ok {
			framed = reframe(raw)
		}
		records, report = scanFrames("fuzz", bytes.NewReader(framed), int64(len(framed)))
		if ok && (report.Cause != CauseNone || len(records) != 1 || records[0] != got) {
			t.Fatalf("frame of %x scans as %+v (%v), want %+v", raw, records, report.Cause, got)
		}
		if !ok && (report.Cause != CauseDecode || len(records) != 0) {
			t.Fatalf("frame of undecodable %x scans as %+v (%v), want %v", raw, records, report.Cause, CauseDecode)
		}
	})
}

// FuzzReadFileLog writes arbitrary bytes as a log file: reading must
// never panic, and whatever records are salvaged must survive a rewrite
// and reread.
func FuzzReadFileLog(f *testing.F) {
	// Seed with a valid one-record log.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.wal")
	l, err := OpenFileLog(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	l.Append(Record{Kind: KindCommit, Txn: 7})
	l.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd frame length

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, _, err := ScanFileLog(path)
		if err != nil {
			return // an old format may fail, but not panic
		}
		// Salvaged records must be rewritable and re-readable.
		out, err := OpenFileLog(filepath.Join(t.TempDir(), "rewrite.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range records {
			if err := out.Append(r); err != nil {
				t.Fatalf("rewrite append: %v", err)
			}
		}
		out.Close()
	})
}

// FuzzSalvage writes a known workload of frames, then mutates the
// file with a fuzz-chosen truncation and bit flip. Salvage must never
// panic, never return a record that was not written (every CRC-passing
// record is byte-authentic), and always return a prefix of the written
// sequence.
func FuzzSalvage(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "base.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		f.Fatal(err)
	}
	want := []Record{
		{Kind: KindInsert, Txn: 1, Key: keyspace.New("k1"), Version: 1, Value: "v1"},
		{Kind: KindPrepare, Txn: 1, Writers: 2},
		{Kind: KindCommit, Txn: 1},
		{Kind: KindInsert, Txn: 2, Key: keyspace.New("k2"), Version: 2, Value: "v2"},
		{Kind: KindCommit, Txn: 2},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	base, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint16(0), uint16(0), uint8(0))            // pristine
	f.Add(uint16(3), uint16(0), uint8(0))            // torn tail
	f.Add(uint16(0), uint16(20), uint8(1))           // early bit flip
	f.Add(uint16(1), uint16(len(base)/2), uint8(64)) // truncate + mid flip

	f.Fuzz(func(t *testing.T, cut uint16, flipAt uint16, flipMask uint8) {
		data := append([]byte(nil), base...)
		if int(cut) < len(data) {
			data = data[:len(data)-int(cut)]
		}
		if len(data) > 0 {
			data[int(flipAt)%len(data)] ^= flipMask
		}
		p := filepath.Join(t.TempDir(), "mut.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, report, err := scanAndQuarantine(p)
		if err != nil {
			t.Fatalf("salvage error: %v", err)
		}
		if len(records) > len(want) {
			t.Fatalf("salvaged %d records from a %d-record log", len(records), len(want))
		}
		for i, r := range records {
			w := want[i]
			if r.Kind != w.Kind || r.Txn != w.Txn || r.Version != w.Version || r.Writers != w.Writers ||
				r.Value != w.Value || r.Key.Raw() != w.Key.Raw() || r.LSN != uint64(i+1) {
				t.Fatalf("record %d = %+v, not a prefix of what was written (want %+v)", i, r, w)
			}
		}
		if report != nil {
			if report.Records != len(records) {
				t.Fatalf("report.Records = %d, got %d records", report.Records, len(records))
			}
			// After quarantine the log must read back clean.
			again, rep2, err := ScanFileLog(p)
			if err != nil || rep2 != nil || len(again) != len(records) {
				t.Fatalf("post-quarantine rescan: %d records, report %+v, err %v", len(again), rep2, err)
			}
		}
	})
}

// FuzzAnalyze checks the log analysis never panics and keeps its
// invariants for arbitrary record streams.
func FuzzAnalyze(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint8(4), uint64(1))
	// Found by this fuzzer: an abort followed by a prepare of the same
	// transaction was reported both decided and in doubt.
	f.Add(uint8(5), uint64(1), uint8(3), uint64(1))
	f.Fuzz(func(t *testing.T, k1 uint8, t1 uint64, k2 uint8, t2 uint64) {
		records := []Record{
			{Kind: Kind(k1%6) + 0, Txn: t1},
			{Kind: Kind(k2%6) + 0, Txn: t2},
		}
		a, err := Analyze(records)
		if err != nil {
			return // unknown kinds fail cleanly
		}
		for txn := range a.InDoubt {
			if _, decided := a.Outcomes[txn]; decided {
				t.Fatalf("txn %d both in doubt and decided", txn)
			}
		}
	})
}
