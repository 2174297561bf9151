package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repdir/internal/keyspace"
	"repdir/internal/version"
)

// Frame format. A log is a sequence of frames, one record each; there is
// one format, written and read:
//
//	[0:4]  magic  F7 'W' 'R' '4'
//	[4:8]  payload length, big endian
//	[8:12] CRC32C over bytes [0:8] and the payload
//	[12:]  the record
//
// so recovery can tell a torn or bit-flipped frame from a valid one
// before it looks at the record. The record is every field of Record in
// a fixed order, whatever the kind:
//
//	kind     uvarint
//	lsn      uvarint
//	txn      uvarint
//	key      uvarint length, then keyspace.Key.AppendBinary's bytes
//	hi       as key
//	version  uvarint
//	value    uvarint length, then the bytes
//	epoch    uvarint
//	writers  uvarint
//
// The encoding is canonical: a varint with a padding byte, a sentinel key
// with a spelling, or bytes left over after the writer count are
// CauseDecode, so a payload that decodes re-encodes to itself.
var frameMagic = [4]byte{0xF7, 'W', 'R', '4'}

// oldFrameMagics opened the frames of the formats this one replaced: the
// gob payload, then the record without a writer count. Each differs from
// the current magic in at least three bits, so no single flipped bit
// turns a damaged log into an "old" one.
var oldFrameMagics = [...][4]byte{{0xF7, 'W', 'A', '2'}, {0xF7, 'W', 'R', '3'}}

const frameHeaderLen = 12

// MaxFrameLen bounds a single record frame (16 MiB). Directory records
// are tiny; anything near this limit in a length prefix is corruption,
// and validating before allocation keeps a flipped length byte from
// driving a multi-gigabyte make([]byte, n).
const MaxFrameLen = 16 << 20

// ErrOldFormat reports a log written before the frame format above: its
// first frame opens with an old magic, or with the bare length prefix of
// the format before that. Nothing here reads those, and quarantining the
// whole file as damage would open the representative empty, so every
// reader and every recovery policy refuses and leaves the file as it is.
var ErrOldFormat = errors.New("wal: log is in a format this build no longer reads")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends r to b as one frame. It allocates only to grow b.
func appendFrame(b []byte, r *Record) ([]byte, error) {
	start := len(b)
	b = append(b, frameMagic[:]...)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length and CRC, once the payload is there
	b = binary.AppendUvarint(b, uint64(r.Kind))
	b = binary.AppendUvarint(b, r.LSN)
	b = binary.AppendUvarint(b, r.Txn)
	b = appendKey(b, r.Key)
	b = appendKey(b, r.Hi)
	b = binary.AppendUvarint(b, uint64(r.Version))
	b = binary.AppendUvarint(b, uint64(len(r.Value)))
	b = append(b, r.Value...)
	b = binary.AppendUvarint(b, r.Epoch)
	b = binary.AppendUvarint(b, r.Writers)
	payload := b[start+frameHeaderLen:]
	if len(payload) > MaxFrameLen {
		return b[:start], fmt.Errorf("wal: %d-byte record exceeds the %d-byte frame bound", len(payload), MaxFrameLen)
	}
	binary.BigEndian.PutUint32(b[start+4:], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, b[start:start+8])
	binary.BigEndian.PutUint32(b[start+8:], crc32.Update(crc, crcTable, payload))
	return b, nil
}

func appendKey(b []byte, k keyspace.Key) []byte {
	return k.AppendBinary(binary.AppendUvarint(b, uint64(1+len(k.Raw())))) // a sentinel's Raw is empty
}

// recordReader walks one frame payload. The first malformed field sets
// bad, and every read after it returns zero.
type recordReader struct {
	b   []byte
	bad bool
}

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) { // cut short, over 64 bits, or padded
		r.b, r.bad = nil, true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recordReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.b, r.bad = nil, true
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *recordReader) key() keyspace.Key {
	var k keyspace.Key
	raw := r.bytes()
	if r.bad {
		return k
	}
	if err := k.UnmarshalBinary(raw); err != nil || (k.IsSentinel() && len(raw) != 1) {
		r.bad = true
	}
	return k
}

// decodeRecord decodes a frame payload, which must hold one record and
// nothing else. Strings are copied out: the payload buffer is reused.
func decodeRecord(payload []byte) (rec Record, ok bool) {
	r := recordReader{b: payload}
	rec.Kind = Kind(r.uvarint())
	rec.LSN = r.uvarint()
	rec.Txn = r.uvarint()
	rec.Key = r.key()
	rec.Hi = r.key()
	rec.Version = version.V(r.uvarint())
	rec.Value = string(r.bytes())
	rec.Epoch = r.uvarint()
	rec.Writers = r.uvarint()
	return rec, !r.bad && len(r.b) == 0
}

// CorruptionCause classifies why a log scan stopped before a clean EOF.
type CorruptionCause int

const (
	// CauseNone: the scan reached a clean end of file.
	CauseNone CorruptionCause = iota
	// CauseTornHeader: the file ends inside a frame header — the
	// ordinary signature of a crash mid-append.
	CauseTornHeader
	// CauseTornPayload: a plausible header, but the file ends before the
	// payload does — also a torn append.
	CauseTornPayload
	// CauseBadLength: a length prefix over MaxFrameLen; the header bytes
	// themselves are damaged.
	CauseBadLength
	// CauseBadCRC: a frame whose checksum does not cover its bytes.
	CauseBadCRC
	// CauseDecode: the payload passed its length and CRC checks but is not
	// one canonical record.
	CauseDecode
	// CauseBadMagic: four bytes where a frame should start that are not
	// the frame magic.
	CauseBadMagic
)

// String names the cause.
func (c CorruptionCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseTornHeader:
		return "torn-header"
	case CauseTornPayload:
		return "torn-payload"
	case CauseBadLength:
		return "bad-length"
	case CauseBadCRC:
		return "bad-crc"
	case CauseDecode:
		return "bad-payload"
	case CauseBadMagic:
		return "bad-magic"
	default:
		return fmt.Sprintf("CorruptionCause(%d)", int(c))
	}
}

// Torn reports whether the cause is an ordinary torn tail (a crash
// mid-append) rather than damage to bytes the log had already written.
func (c CorruptionCause) Torn() bool {
	return c == CauseTornHeader || c == CauseTornPayload
}

// CorruptionReport describes where and why a salvage scan stopped, and
// what it did with the unreadable tail.
type CorruptionReport struct {
	// Path is the log file scanned.
	Path string
	// Cause is why the scan stopped.
	Cause CorruptionCause
	// Offset is the byte offset where the valid prefix ends — the start
	// of the first unreadable frame.
	Offset int64
	// Records is the number of valid records recovered before the stop.
	Records int
	// LastLSN is the LSN of the last valid record (zero when none).
	LastLSN uint64
	// QuarantinedBytes is the size of the tail moved to SidecarPath
	// (zero when the scan did not quarantine).
	QuarantinedBytes int64
	// SidecarPath is where the unreadable tail was preserved.
	SidecarPath string
}

// Error renders the report as a recovery error for strict readers.
func (r *CorruptionReport) Error() string {
	return fmt.Sprintf("wal: %s at offset %d of %q (%d valid records before it)",
		r.Cause, r.Offset, r.Path, r.Records)
}

// scanFrames reads every decodable record from r, which holds size
// bytes. It never fails: the report says whether the scan ended at a
// clean EOF (CauseNone) or why it stopped early.
func scanFrames(path string, r io.Reader, size int64) ([]Record, CorruptionReport) {
	br := bufio.NewReader(r)
	var (
		out     []Record
		off     int64
		payload []byte // reused from frame to frame
	)
	report := func(cause CorruptionCause) ([]Record, CorruptionReport) {
		rep := CorruptionReport{Path: path, Cause: cause, Offset: off, Records: len(out)}
		if len(out) > 0 {
			rep.LastLSN = out[len(out)-1].LSN
		}
		return out, rep
	}
	for {
		remaining := size - off
		if remaining == 0 {
			return report(CauseNone)
		}
		var head [frameHeaderLen]byte
		if remaining < 4 {
			return report(CauseTornHeader)
		}
		if _, err := io.ReadFull(br, head[:4]); err != nil {
			return report(CauseTornHeader)
		}
		if [4]byte(head[:4]) != frameMagic {
			return report(CauseBadMagic)
		}
		if remaining < frameHeaderLen {
			return report(CauseTornHeader)
		}
		if _, err := io.ReadFull(br, head[4:]); err != nil {
			return report(CauseTornHeader)
		}
		payloadLen := binary.BigEndian.Uint32(head[4:8])
		if payloadLen > MaxFrameLen {
			return report(CauseBadLength)
		}
		if int64(payloadLen) > remaining-frameHeaderLen {
			return report(CauseTornPayload)
		}
		if uint32(cap(payload)) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return report(CauseTornPayload)
		}
		crc := crc32.Update(0, crcTable, head[:8])
		if crc32.Update(crc, crcTable, payload) != binary.BigEndian.Uint32(head[8:12]) {
			return report(CauseBadCRC)
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return report(CauseDecode)
		}
		out = append(out, rec)
		off += frameHeaderLen + int64(payloadLen)
	}
}

// SalvageFileLog recovers the longest valid prefix of a log file. When
// the scan stops before a clean EOF — a torn append or mid-log
// corruption — the unreadable tail is moved to a sidecar file
// (path + ".quarantine"), the log is truncated to the valid prefix, and
// the returned report says what happened; a nil report means the log
// was clean. Unlike ReadFileLog, mid-log corruption is not an error:
// the caller gets everything before it plus the evidence.
//
// Truncating matters beyond hygiene: the log is appended to in place,
// so leaving damaged bytes in the middle would strand every later
// append behind them on the next recovery.
func SalvageFileLog(path string) ([]Record, *CorruptionReport, error) {
	records, report, err := ScanFileLog(path)
	if err != nil || report == nil {
		return records, report, err
	}
	return records, report, Quarantine(path, report)
}

// ScanFileLog recovers the longest valid prefix of a log file without
// modifying the file. A nil report means the log was clean; otherwise
// the report says why the scan stopped, and the caller decides whether
// to repair (Quarantine), refuse, or discard — the split exists so a
// strict recovery policy can refuse to open a damaged log without
// having already truncated it. Only a log's first frame can be in an old
// format (every build appends in its own, to a file it could read), so
// that is where ErrOldFormat is decided.
func ScanFileLog(path string) ([]Record, *CorruptionReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %q: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: stat %q: %w", path, err)
	}
	var first [4]byte
	if n, _ := f.ReadAt(first[:], 0); n == len(first) {
		v1Len := binary.BigEndian.Uint32(first[:])
		old := v1Len > 0 && v1Len <= MaxFrameLen
		for _, magic := range oldFrameMagics {
			old = old || first == magic
		}
		if old {
			return nil, nil, fmt.Errorf("%w: %q", ErrOldFormat, path)
		}
	}
	records, report := scanFrames(path, f, info.Size())
	if report.Cause == CauseNone {
		return records, nil, nil
	}
	return records, &report, nil
}

// Quarantine performs the repair half of SalvageFileLog on a report
// returned by ScanFileLog: everything from report.Offset on moves to the
// ".quarantine" sidecar and the log is truncated to its valid prefix,
// fsyncing both files and the directory so the surgery itself survives
// a crash. The report's QuarantinedBytes and SidecarPath are filled in.
func Quarantine(path string, report *CorruptionReport) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: quarantine open %q: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: quarantine stat %q: %w", path, err)
	}
	tailLen := info.Size() - report.Offset
	if tailLen <= 0 {
		return nil
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, report.Offset); err != nil {
		return fmt.Errorf("wal: quarantine read %q: %w", path, err)
	}
	sidecar := path + ".quarantine"
	if err := writeFileSync(sidecar, tail); err != nil {
		return err
	}
	if err := f.Truncate(report.Offset); err != nil {
		return fmt.Errorf("wal: quarantine truncate %q: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: quarantine sync %q: %w", path, err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	report.QuarantinedBytes = tailLen
	report.SidecarPath = sidecar
	return nil
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %q: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: write %q: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync %q: %w", path, err)
	}
	return f.Close()
}

// SyncDir fsyncs a directory, making renames and truncations in it
// durable on journaled filesystems.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %q: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir %q: %w", dir, err)
	}
	return nil
}
