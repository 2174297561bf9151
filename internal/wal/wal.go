// Package wal provides the write-ahead log that gives directory
// representatives recoverable storage.
//
// The paper assumes each representative is held by a transactional storage
// system that "stores critical information in a fashion that recovers from
// failures" (section 3.1). This package supplies that substrate: mutating
// operations are logged as redo records grouped by transaction, forced to
// disk by the transaction's prepare record; a commit record makes them
// effective, and recovery replays the redo records of committed
// transactions in log order. Because strict
// two-phase locking orders all conflicting operations, replaying commit
// batches in log order reproduces the committed state.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repdir/internal/keyspace"
	"repdir/internal/version"
)

// Kind discriminates record types.
type Kind int

const (
	// KindInsert records DirRepInsert(Key, Version, Value).
	KindInsert Kind = iota + 1
	// KindCoalesce records DirRepCoalesce(Key, Hi, Version).
	KindCoalesce
	// KindPrepare marks a transaction as prepared (two-phase commit
	// phase one); its redo records precede it in the log, and it names
	// how many writers the transaction has (Record.Writers).
	KindPrepare
	// KindCommit makes a transaction's redo records effective.
	KindCommit
	// KindAbort discards a transaction's redo records.
	KindAbort
	// KindEpoch records an epoch-fence advance (Record.Epoch): after
	// recovery the representative rejects operations carrying an older
	// configuration epoch. Epoch records belong to no transaction.
	KindEpoch
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindCoalesce:
		return "coalesce"
	case KindPrepare:
		return "prepare"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Record is one log entry. Key/Hi/Version/Value are meaningful only for
// the redo kinds, and Value for the commit record that closes a
// checkpoint (see FileLog.Compact). LSN is the record's log sequence
// number, assigned by the Log on Append; LSNs rise strictly within a
// log file, across compactions too.
type Record struct {
	LSN     uint64
	Kind    Kind
	Txn     uint64
	Key     keyspace.Key
	Hi      keyspace.Key
	Version version.V
	Value   string
	// Epoch is the configuration epoch a KindEpoch record fences at;
	// zero on every other kind.
	Epoch uint64
	// Writers is the number of participants a KindPrepare record's
	// transaction wrote at, this one included: once that many hold a
	// prepare record, the transaction is committed (txn.Resolve). Zero
	// on every other kind.
	Writers uint64
}

// Log is an append-only record sink.
type Log interface {
	// Append durably adds a record, assigning it the next LSN.
	Append(Record) error
	// NextLSN returns the LSN the next appended record will receive.
	NextLSN() uint64
	// Close releases resources. Append after Close fails.
	Close() error
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log is closed")

// MemoryLog keeps records in memory; it is the default for simulations
// and tests. The zero value is ready to use.
type MemoryLog struct {
	mu      sync.Mutex
	records []Record
	next    uint64
	closed  bool
}

var _ Log = (*MemoryLog)(nil)

// Append adds a record, stamping its LSN.
func (l *MemoryLog) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.next++
	r.LSN = l.next
	l.records = append(l.records, r)
	return nil
}

// NextLSN implements Log.
func (l *MemoryLog) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next + 1
}

// Close marks the log closed.
func (l *MemoryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Records returns a copy of everything appended so far.
func (l *MemoryLog) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// DropTail discards the last n records, simulating storage that lost
// its most recent writes (the in-memory analogue of a truncated or
// salvaged file log — recovery sees a strict prefix of history). LSNs
// keep counting from where they were, exactly as a salvaged FileLog
// reopened with StartAt does. It returns how many records were dropped.
func (l *MemoryLog) DropTail(n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.records) {
		n = len(l.records)
	}
	if n <= 0 {
		return 0
	}
	l.records = l.records[:len(l.records)-n]
	return n
}

// SyncPolicy controls when FileLog forces appended records to stable
// storage (fsync). Flushing the bufio writer alone only hands bytes to
// the OS; without an fsync a machine crash can lose records the log
// already acknowledged.
type SyncPolicy int

const (
	// SyncOnCommit (the default) fsyncs after KindPrepare and KindAbort
	// records: the records two-phase commit's decision rests on. A
	// transaction is committed once every writer holds a durable prepare
	// record (txn.Resolve), so a prepare must survive a crash, and a
	// commit record need not: it is written to the file before Append
	// returns and reaches the disk with the next fsync, and a member
	// that loses it comes back in doubt and is resolved to commit. An
	// abort is forced because losing it would leave a transaction whose
	// writers all prepared to be resolved to commit after its
	// coordinator had reported it failed. Redo records need no sync of
	// their own: they precede their prepare in the log, so its fsync
	// carries them to disk too.
	SyncOnCommit SyncPolicy = iota
	// SyncNever leaves persistence timing to the OS. A crash can lose
	// committed transactions; meant for simulations and benchmarks that
	// opt out of durability.
	SyncNever
	// SyncAlways fsyncs after every record.
	SyncAlways
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncOnCommit:
		return "commit"
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// File is the storage handle a FileLog writes through. *os.File
// satisfies it; the fault-injection harness wraps one to impose fsync
// failures, short (torn) writes, ENOSPC, and bit flips underneath an
// otherwise-real log.
//
// A FileLog never overlaps two Writes or two Syncs, but it does call
// Write while a Sync is in progress (that overlap is what group commit
// is), so an implementation must allow the pair.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FileLog appends records to a file as checksummed frames (see
// frame.go), so a log can be reopened for appending and recovery can
// distinguish every record that was fully written from torn or
// corrupted bytes.
//
// Appends that need an fsync are group-committed: each record is encoded
// straight into the staged buffer under mu, and the appender that finds
// no sync in flight writes and fsyncs everything staged so far with mu
// released. Appenders that arrive meanwhile stage behind it and form the
// next group, which the first of them to wake leads. A lone appender is
// its own group and pays exactly one write and one fsync, inline — and,
// once the buffer has grown to its working size, no allocation.
type FileLog struct {
	mu     sync.Mutex
	f      File
	staged []byte // frames encoded since the last write to f
	werr   error  // the first failed write; see flush
	next   uint64
	policy SyncPolicy
	syncs  uint64
	closed bool

	syncing  bool       // a group leader is inside f.Sync with mu released
	waiting  *syncGroup // appenders staged behind the sync in flight; nil when none
	syncDone sync.Cond  // on mu: a sync ended or the log closed
}

// syncGroup carries one fsync's result to the appenders that waited for
// it. It is allocated only when an appender has to wait, so the
// uncontended path allocates nothing.
type syncGroup struct {
	done bool
	err  error
}

var _ Log = (*FileLog)(nil)

// OpenFileLog opens (creating or appending to) a log file. When
// appending to an existing log, call StartAt with one past the last LSN
// already in the file (ScanFileLog reveals it) so sequence numbers stay
// monotone; rep.OpenDurable does this automatically. The sync policy
// defaults to SyncOnCommit.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %q: %w", path, err)
	}
	return NewFileLog(f), nil
}

// NewFileLog builds a log over an already-open append-positioned file
// handle. Most callers want OpenFileLog; this entry point exists so a
// fault-injecting File wrapper can sit between the log and the disk.
func NewFileLog(f File) *FileLog {
	l := &FileLog{f: f}
	l.syncDone.L = &l.mu
	return l
}

// SetSyncPolicy selects when appends fsync.
func (l *FileLog) SetSyncPolicy(p SyncPolicy) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.policy = p
}

// SyncCount reports how many fsyncs Append has issued (explicit Sync
// calls not included); tests use it to assert commits hit the disk.
func (l *FileLog) SyncCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// needsSync reports whether the policy demands an fsync after a record
// of kind k; callers hold l.mu.
func (l *FileLog) needsSync(k Kind) bool {
	switch l.policy {
	case SyncAlways:
		return true
	case SyncOnCommit:
		return k == KindPrepare || k == KindAbort
	default:
		return false
	}
}

// StartAt sets the next LSN to assign. It must be called before the
// first Append after reopening an existing log.
func (l *FileLog) StartAt(nextLSN uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if nextLSN > 0 {
		l.next = nextLSN - 1
	}
}

// NextLSN implements Log.
func (l *FileLog) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next + 1
}

// CreateFileLog puts a new log file at path holding records, numbered
// from LSN 1: as Compact does, it writes them to a temp file beside path
// and fsyncs it, renames it over path and fsyncs the directory. A crash
// at any step leaves no log at path, or this one whole. Open it with
// OpenFileLog and StartAt one past the last record's LSN.
func CreateFileLog(path string, records []Record) error {
	f, err := writeTemp(path, 0, records)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("wal: create %q: %w", path, err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("wal: create %q: %w", path, err)
	}
	return SyncDir(filepath.Dir(path))
}

// Compact replaces the log file at path with a compacted one: records,
// a checkpoint of everything the log held through lastLSN, numbered on
// from lastLSN. They are written as frames to a temp file beside path
// (path + ".compact") and fsynced with the log mutex free. Then, under
// it, the temp file takes the log's place if the last record appended
// is still lastLSN: once any fsync in flight has ended, it is renamed
// over path and the directory fsynced before an append can land in it,
// and appends go on numbering after the compacted records. A record
// appended after lastLSN is in the old log alone, so then the log is
// left whole, Compact returns nil, and the next checkpoint compacts it.
// A crash at any step leaves the old log or the compacted one at path;
// nothing reads the temp file. Calls must not overlap.
func (l *FileLog) Compact(path string, lastLSN uint64, records []Record) error {
	f, err := writeTemp(path, lastLSN, records)
	if err != nil {
		return err
	}
	installed := false
	defer func() {
		if !installed {
			f.Close()
			os.Remove(f.Name())
		}
	}()

	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.syncDone.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.next != lastLSN {
		return nil
	}
	// Anything staged was numbered at or below lastLSN, so the
	// checkpoint holds it: it goes to the old file, not the new one.
	if err := l.flush(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	installed = true
	old := l.f
	l.f, l.next = f, lastLSN+uint64(len(records))
	old.Close() // what it holds is no longer the log, so its error is moot
	if err := SyncDir(filepath.Dir(path)); err != nil {
		// Until the rename is durable a crash can bring the old log
		// back, and with it lose whatever the new one was told.
		l.werr = err
		return err
	}
	return nil
}

// writeTemp writes records as frames, stamping their LSNs on from
// lastLSN, to the temp file beside path (path + ".compact", truncated
// first) and fsyncs it. It returns the file open for appending, or
// removes it and fails.
func writeTemp(path string, lastLSN uint64, records []Record) (*os.File, error) {
	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var b []byte
	for i := range records {
		records[i].LSN = lastLSN + 1 + uint64(i)
		if b, err = appendFrame(b, &records[i]); err != nil {
			break
		}
		if len(b) >= stagedKeep || i == len(records)-1 {
			if _, err = f.Write(b); err != nil {
				break
			}
			b = b[:0]
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("wal: write %q: %w", tmp, err)
	}
	return f, nil
}

// Append stamps the record's LSN and stages its frame. A record the
// policy does not sync is flushed to the file before Append returns; one
// it does sync returns only after an fsync that began after its frame
// was flushed (see commitStaged).
func (l *FileLog) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.werr != nil {
		return fmt.Errorf("wal: write frame: %w", l.werr)
	}
	r.LSN = l.next + 1
	staged, err := appendFrame(l.staged, &r)
	if err != nil {
		return err
	}
	l.staged = staged
	l.next++
	if l.needsSync(r.Kind) {
		return l.commitStaged()
	}
	return l.flush()
}

// stagedKeep is the largest staged buffer kept between writes; one that
// a burst or a huge value grew past it goes back to the collector.
const stagedKeep = 64 << 10

// flush writes the staged frames to the file; callers hold l.mu. A
// failed or short write may have left part of a frame in the file, and
// a frame appended behind it would be stranded there at recovery, so the
// first failure is kept and fails every later append.
func (l *FileLog) flush() error {
	if l.werr == nil && len(l.staged) > 0 {
		n, err := l.f.Write(l.staged)
		if err == nil && n < len(l.staged) {
			err = io.ErrShortWrite
		}
		l.werr = err
		l.staged = l.staged[:0]
		if cap(l.staged) > stagedKeep {
			l.staged = nil
		}
	}
	if l.werr != nil {
		return fmt.Errorf("wal: flush: %w", l.werr)
	}
	return nil
}

// commitStaged makes every frame staged so far durable, the caller's
// included; callers hold l.mu. With no sync in flight the caller leads:
// it flushes, then fsyncs with l.mu released so later appenders can
// stage behind it. With one in flight the caller joins the group
// waiting behind it; when that sync ends, whichever member wakes first
// leads the group and hands the rest its result.
func (l *FileLog) commitStaged() error {
	if l.syncing {
		g := l.waiting
		if g == nil {
			g = new(syncGroup)
			l.waiting = g
		}
		for l.syncing && !g.done {
			l.syncDone.Wait()
		}
		if g.done {
			return g.err
		}
	}
	// Lead, for everyone waiting — the caller's own group if it waited,
	// or one whose members have not woken yet if it did not.
	g := l.waiting
	l.waiting = nil
	err := l.flushAndSync()
	if g != nil {
		g.done, g.err = true, err
	}
	l.syncDone.Broadcast()
	return err
}

// flushAndSync writes the staged frames and fsyncs the file, releasing
// l.mu for the fsync; callers hold l.mu and have seen l.syncing false.
func (l *FileLog) flushAndSync() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.flush(); err != nil {
		return err
	}
	l.syncing = true
	l.mu.Unlock()
	err := l.f.Sync()
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.syncs++
	return nil
}

// Sync flushes anything staged and forces the file to stable storage.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.syncDone.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close waits out a sync in flight, then flushes and closes the file.
// Appenders still waiting for a sync get ErrClosed: their frames were
// written but never fsynced.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for l.syncing {
		l.syncDone.Wait()
	}
	if err := l.flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Analysis is the outcome of scanning a log: the redo records of
// committed transactions in commit order, the redo records of in-doubt
// transactions (prepared but neither committed nor aborted — two-phase
// commit participants that must await resolution), and the final outcome
// of every transaction the log decided.
type Analysis struct {
	// Committed holds redo records of committed transactions, ordered
	// by commit; within one transaction, in execution order.
	Committed []Record
	// InDoubt maps each prepared-but-undecided transaction to its redo
	// records and its writer count.
	InDoubt map[uint64]Prepared
	// Outcomes records the decided transactions: true = committed,
	// false = aborted.
	Outcomes map[uint64]bool
	// Epoch is the highest configuration epoch fence the log recorded
	// (KindEpoch records); zero when the log holds none.
	Epoch uint64
}

// Prepared is what the log holds of an in-doubt transaction: its redo
// records in execution order, and the writer count its prepare record
// named.
type Prepared struct {
	Redo    []Record
	Writers uint64
}

// Analyze scans log records. Transactions with redo records but no
// prepare, commit, or abort marker were alive at a crash before phase
// one completed; they are presumed aborted (their coordinator cannot
// have committed).
//
// Analyze is total: the first commit or abort record of a transaction
// decides it, and any later record under the same ID — redo or marker —
// changes nothing, so no record order can leave a transaction both
// decided and in doubt.
func Analyze(records []Record) (Analysis, error) {
	a := Analysis{
		InDoubt:  make(map[uint64]Prepared),
		Outcomes: make(map[uint64]bool),
	}
	pending := make(map[uint64][]Record)
	prepared := make(map[uint64]uint64) // the writer count, by transaction
	for _, r := range records {
		if _, decided := a.Outcomes[r.Txn]; decided && r.Kind >= KindInsert && r.Kind <= KindAbort {
			continue
		}
		switch r.Kind {
		case KindInsert, KindCoalesce:
			pending[r.Txn] = append(pending[r.Txn], r)
		case KindPrepare:
			prepared[r.Txn] = r.Writers
		case KindAbort:
			delete(pending, r.Txn)
			delete(prepared, r.Txn)
			a.Outcomes[r.Txn] = false
		case KindCommit:
			a.Committed = append(a.Committed, pending[r.Txn]...)
			delete(pending, r.Txn)
			delete(prepared, r.Txn)
			a.Outcomes[r.Txn] = true
		case KindEpoch:
			if r.Epoch > a.Epoch {
				a.Epoch = r.Epoch
			}
		default:
			return Analysis{}, fmt.Errorf("wal: unknown record kind %d", r.Kind)
		}
	}
	for txn, writers := range prepared {
		a.InDoubt[txn] = Prepared{Redo: pending[txn], Writers: writers}
	}
	return a, nil
}
