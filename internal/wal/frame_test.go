package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/version"
	"repdir/internal/wal/waltest"
)

// TestOldFormatRefused: a log whose first frame is in a format this
// build no longer reads — the bare-length v1 fixture, or a frame with
// one of the old magics — is refused by every reader with ErrOldFormat
// and left byte for byte as it was. Salvaging it would quarantine the
// whole file and hand recovery an empty log.
func TestOldFormatRefused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	old := map[string][]byte{"v1": v1}
	for i, magic := range oldFrameMagics {
		old[fmt.Sprintf("v%d", i+2)] = append(append([]byte(nil), magic[:]...), 0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 0x00)
	}
	for name, data := range old {
		path := filepath.Join(t.TempDir(), name+".wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ScanFileLog(path); !errors.Is(err, ErrOldFormat) {
			t.Errorf("%s: ScanFileLog = %v, want ErrOldFormat", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Errorf("%s: refused log was modified (%v)", name, err)
		}
		if _, err := os.Stat(path + ".quarantine"); !os.IsNotExist(err) {
			t.Errorf("%s: refused log was quarantined", name)
		}
	}
}

// goldenFrames pins the frame format byte for byte, one record of each
// kind with the fields that kind uses. The format is an on-disk
// contract: a change here orphans every log already written.
var goldenFrames = []struct {
	rec Record
	hex string
}{
	// magic | length | crc32c | kind lsn txn | key | hi | version | value | epoch | writers
	{Record{LSN: 1, Kind: KindInsert, Txn: 7, Key: keyspace.New("alpha"), Version: 3, Value: "a"},
		"f7575234 00000011 6e78356e 010107 0602616c706861 0102 03 0161 00 00"},
	{Record{LSN: 2, Kind: KindCoalesce, Txn: 7, Key: keyspace.Low(), Hi: keyspace.High(), Version: 300},
		"f7575234 0000000c dd5f8faa 020207 0101 0103 ac02 00 00 00"},
	{Record{LSN: 3, Kind: KindPrepare, Txn: 7, Writers: 2},
		"f7575234 0000000b 05088e66 030307 0102 0102 00 00 00 02"},
	{Record{LSN: 4, Kind: KindCommit, Txn: 1 << 40},
		"f7575234 00000010 fc2fb0a2 0404808080808020 0102 0102 00 00 00 00"},
	{Record{LSN: 5, Kind: KindAbort, Txn: 8},
		"f7575234 0000000b 561d9db5 050508 0102 0102 00 00 00 00"},
	{Record{LSN: 6, Kind: KindEpoch, Epoch: 9},
		"f7575234 0000000b 84b0a041 060600 0102 0102 00 00 09 00"},
}

func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		want, err := hex.DecodeString(strings.ReplaceAll(g.hex, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendFrame(nil, &g.rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s frame = %x, want %x", g.rec.Kind, got, want)
		}
		records, report := scanFrames("golden", bytes.NewReader(want), int64(len(want)))
		if report.Cause != CauseNone || len(records) != 1 || records[0] != g.rec {
			t.Errorf("%s frame reads back as %+v (%v), want %+v", g.rec.Kind, records, report.Cause, g.rec)
		}
	}
}

// TestRecordEdgesRoundTrip: the sentinel keys, the empty key, the empty
// value and the largest integers all survive a frame.
func TestRecordEdgesRoundTrip(t *testing.T) {
	for _, rec := range []Record{
		{},
		{Kind: KindCoalesce, Key: keyspace.Low(), Hi: keyspace.High()},
		{Kind: KindCoalesce, Key: keyspace.High(), Hi: keyspace.Low()},
		{Kind: KindInsert, Key: keyspace.New(""), Value: ""},
		{Kind: KindInsert, Key: keyspace.New("\x00\x01"), Value: "\x00"},
		{LSN: ^uint64(0), Kind: KindEpoch, Txn: ^uint64(0), Version: ^version.V(0), Epoch: ^uint64(0), Writers: ^uint64(0)},
	} {
		frame, err := appendFrame(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeRecord(frame[frameHeaderLen:])
		if !ok || got != rec {
			t.Errorf("%+v decodes as %+v (ok=%v)", rec, got, ok)
		}
	}
}

// TestDecodeRejectsNonCanonical: each payload below says what a valid
// one says, another way, or says more than one record; none may decode.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	frame, err := appendFrame(nil, &Record{LSN: 1, Kind: KindCommit, Txn: 7})
	if err != nil {
		t.Fatal(err)
	}
	valid := frame[frameHeaderLen:] // 04 01 07 0102 0102 00 00 00 00
	if _, ok := decodeRecord(valid); !ok {
		t.Fatalf("valid payload %x refused", valid)
	}
	for name, payload := range map[string][]byte{
		"trailing byte":          append(append([]byte(nil), valid...), 0),
		"cut short":              valid[:len(valid)-1],
		"padded varint":          append([]byte{0x84, 0x00}, valid[1:]...),
		"padded writer count":    append(append([]byte(nil), valid[:len(valid)-1]...), 0x80, 0x00),
		"sentinel with spelling": {4, 1, 7, 2, 1, 'x', 1, 2, 0, 0, 0, 0},
		"unknown key tag":        {4, 1, 7, 1, 9, 1, 2, 0, 0, 0, 0},
		"empty key":              {4, 1, 7, 0, 1, 2, 0, 0, 0, 0},
		"value past the end":     {4, 1, 7, 1, 2, 1, 2, 0, 200, 0, 0},
	} {
		if rec, ok := decodeRecord(payload); ok {
			t.Errorf("%s: %x decoded as %+v", name, payload, rec)
		}
	}
	// Inside a frame with a good checksum, that is CauseDecode.
	framed := reframe(append(append([]byte(nil), valid...), 0))
	if _, report := scanFrames("mem", bytes.NewReader(framed), int64(len(framed))); report.Cause != CauseDecode {
		t.Errorf("trailing byte in a checksummed payload: cause %v, want %v", report.Cause, CauseDecode)
	}
}

// reframe puts a header with the right length and checksum in front of
// any payload, decodable or not.
func reframe(payload []byte) []byte {
	frame := append(append([]byte(nil), frameMagic[:]...), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(frame[4:], uint32(len(payload)))
	crc := crc32.Update(crc32.Update(0, crcTable, frame[:8]), crcTable, payload)
	binary.BigEndian.PutUint32(frame[8:], crc)
	return append(frame, payload...)
}

// TestAppendAllocs pins the append path's steady state: once the staged
// buffer has its working size, logging a transaction — redo record,
// prepare, commit, the prepare fsynced — allocates nothing.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	f := &waltest.File{}
	l := NewFileLog(f)
	defer l.Close()
	txn := func() {
		for _, r := range []Record{
			{Kind: KindInsert, Txn: 1 << 40, Key: keyspace.New("k0000042"), Version: 12, Value: "payload-value"},
			{Kind: KindPrepare, Txn: 1 << 40, Writers: 2},
			{Kind: KindCommit, Txn: 1 << 40},
		} {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Let the file grow to more than the measured runs will write, then
	// empty it: waltest.File keeps its capacity.
	for i := 0; i < 400; i++ {
		txn()
	}
	f.Truncate(0)
	if n := testing.AllocsPerRun(200, txn); n != 0 {
		t.Errorf("three appends allocate %.0f times, want 0", n)
	}
	if l.SyncCount() == 0 {
		t.Error("no append reached Sync: the measured path is not the durable one")
	}
}

// corpus writes a small committed workload and returns its bytes.
func corpus(t *testing.T, dir string) (string, []Record) {
	t.Helper()
	path := filepath.Join(dir, "log.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindInsert, Txn: 1, Key: keyspace.New("a"), Version: 1, Value: "one"},
		{Kind: KindCommit, Txn: 1},
		{Kind: KindInsert, Txn: 2, Key: keyspace.New("b"), Version: 2, Value: "two"},
		{Kind: KindPrepare, Txn: 2},
		{Kind: KindCommit, Txn: 2},
		{Kind: KindInsert, Txn: 3, Key: keyspace.New("c"), Version: 3, Value: "three"},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

// TestReadFileLogBoundsFrameLength: a corrupted length prefix must be
// rejected before allocation, not drive a multi-gigabyte make.
func TestReadFileLogBoundsFrameLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.wal")
	// A header claiming ~4 GiB, then a few bytes.
	huge := append(append([]byte(nil), frameMagic[:]...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3)
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	records, report, err := ScanFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 || report == nil || report.Cause != CauseBadLength {
		t.Fatalf("salvage = %d records, report %+v", len(records), report)
	}
}

// TestSalvageBitFlip flips one bit mid-log: ScanFileLog must recover
// the prefix and report the bad checksum, and Quarantine must move the tail
// aside and truncate the log so future appends land after the valid
// prefix.
func TestSalvageBitFlip(t *testing.T) {
	dir := t.TempDir()
	path, _ := corpus(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the payload of an interior frame (walking the
	// headers to find it), so the CRC — not a length check — is what
	// catches it.
	var off, pos int
	for frame := 0; ; frame++ {
		payloadLen := int(binary.BigEndian.Uint32(data[off+4 : off+8]))
		if frame == 3 {
			pos = off + frameHeaderLen + payloadLen/2
			break
		}
		off += frameHeaderLen + payloadLen
	}
	data[pos] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	records, report, err := scanAndQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Fatal("salvage of a corrupt log must produce a report")
	}
	if report.Cause != CauseBadCRC {
		t.Errorf("cause = %v, want bad-crc", report.Cause)
	}
	if report.Records != len(records) {
		t.Errorf("report.Records = %d, salvaged %d", report.Records, len(records))
	}
	if len(records) > 0 && report.LastLSN != records[len(records)-1].LSN {
		t.Errorf("report.LastLSN = %d", report.LastLSN)
	}
	// Quarantine: tail preserved byte-for-byte, log truncated to prefix.
	tail, err := os.ReadFile(report.SidecarPath)
	if err != nil {
		t.Fatalf("sidecar: %v", err)
	}
	if !bytes.Equal(tail, data[report.Offset:]) {
		t.Error("sidecar does not hold the corrupt tail")
	}
	if report.QuarantinedBytes != int64(len(tail)) {
		t.Errorf("QuarantinedBytes = %d, want %d", report.QuarantinedBytes, len(tail))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != report.Offset {
		t.Errorf("log size after salvage = %d, want %d", info.Size(), report.Offset)
	}
	// The salvaged log must now be clean, and appendable.
	again, rep2, err := ScanFileLog(path)
	if err != nil || rep2 != nil {
		t.Fatalf("second salvage: %d records, report %+v, err %v", len(again), rep2, err)
	}
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.StartAt(report.LastLSN + 1)
	if err := l.Append(Record{Kind: KindCommit, Txn: 9}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	final := scanClean(t, path)
	if len(final) != len(records)+1 || final[len(final)-1].Txn != 9 {
		t.Fatalf("post-salvage append lost: %+v", final)
	}
}

// TestSalvageEveryTruncationPoint cuts the log at every byte boundary:
// salvage must always return a prefix of the written records, never an
// error, never a record that was not written.
func TestSalvageEveryTruncationPoint(t *testing.T) {
	dir := t.TempDir()
	path, want := corpus(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(data); cut++ {
		p := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		records, report, err := scanAndQuarantine(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i, r := range records {
			if r.Kind != want[i].Kind || r.Txn != want[i].Txn || r.Value != want[i].Value {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, want[i])
			}
		}
		if cut == len(data) {
			if report != nil {
				t.Fatalf("full log salvaged with report %+v", report)
			}
			if len(records) != len(want) {
				t.Fatalf("full log: %d records", len(records))
			}
		} else if report == nil && len(records) != len(want[:len(records)]) {
			t.Fatalf("cut %d: no report but %d records", cut, len(records))
		}
	}
}

// TestSalvageCleanLogUntouched: a healthy log must salvage with no
// report, no sidecar, no truncation.
func TestSalvageCleanLogUntouched(t *testing.T) {
	dir := t.TempDir()
	path, want := corpus(t, dir)
	before, _ := os.Stat(path)
	records, report, err := scanAndQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("clean log produced report %+v", report)
	}
	if len(records) != len(want) {
		t.Fatalf("clean salvage: %d records, want %d", len(records), len(want))
	}
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Error("clean salvage changed the file")
	}
	if _, err := os.Stat(path + ".quarantine"); !os.IsNotExist(err) {
		t.Error("clean salvage wrote a sidecar")
	}
}

// scanAndQuarantine salvages a log the way rep.OpenDurable does under
// the salvage policy: the longest valid prefix, and whatever follows it
// quarantined.
func scanAndQuarantine(path string) ([]Record, *CorruptionReport, error) {
	records, report, err := ScanFileLog(path)
	if err != nil || report == nil {
		return records, report, err
	}
	return records, report, Quarantine(path, report)
}

// TestCorruptionCauseString covers the names used in reports and logs.
func TestCorruptionCauseString(t *testing.T) {
	for c, want := range map[CorruptionCause]string{
		CauseNone:           "none",
		CauseTornHeader:     "torn-header",
		CauseTornPayload:    "torn-payload",
		CauseBadLength:      "bad-length",
		CauseBadCRC:         "bad-crc",
		CauseDecode:         "bad-payload",
		CauseBadMagic:       "bad-magic",
		CorruptionCause(42): "CorruptionCause(42)",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if !CauseTornHeader.Torn() || !CauseTornPayload.Torn() || CauseBadCRC.Torn() {
		t.Error("Torn misclassifies causes")
	}
}
