package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repdir/internal/wal/waltest"
)

// gatedLog is a FileLog over a file whose every Sync waits to be let
// through.
func gatedLog() (*FileLog, *waltest.File) {
	f := &waltest.File{Entered: make(chan struct{}, 64), Release: make(chan struct{})}
	return NewFileLog(f), f
}

// appendAsync appends a prepare record for txn on its own goroutine and
// returns the channel its result arrives on.
func appendAsync(l *FileLog, txn uint64) <-chan error {
	return appendKindAsync(l, KindPrepare, txn)
}

func appendKindAsync(l *FileLog, kind Kind, txn uint64) <-chan error {
	done := make(chan error, 1)
	go func() { done <- l.Append(Record{Kind: kind, Txn: txn}) }()
	return done
}

// TestSyncOnCommitForcesPrepareAndAbort pins the default policy with the
// file's gates: a prepare and an abort each return only after an fsync
// that began once their frame was written, and a commit returns without
// one — written to the file, durable only with the next fsync.
func TestSyncOnCommitForcesPrepareAndAbort(t *testing.T) {
	l, f := gatedLog()
	select {
	case err := <-appendKindAsync(l, KindCommit, 1):
		if err != nil {
			t.Fatal(err)
		}
	case <-f.Entered:
		close(f.Release)
		t.Fatal("a commit record began an fsync")
	}
	commitEnd := frameEnds(t, f.Bytes())[1]
	if f.Durable() != 0 || l.SyncCount() != 0 {
		t.Fatalf("after a commit: %d bytes durable, %d fsyncs; want the frame written and nothing forced", f.Durable(), l.SyncCount())
	}
	for _, kind := range []Kind{KindPrepare, KindAbort} {
		txn := uint64(kind)
		done := appendKindAsync(l, kind, txn)
		select {
		case <-f.Entered: // the fsync has begun, and noted how much it covers
		case err := <-done:
			t.Fatalf("%s returned (%v) without an fsync", kind, err)
		}
		end := frameEnds(t, f.Bytes())[txn]
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) before its fsync did", kind, err)
		default:
		}
		f.Release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if f.Durable() < end {
			t.Fatalf("%s acknowledged with %d bytes durable; its frame ends at %d", kind, f.Durable(), end)
		}
	}
	if f.Durable() < commitEnd {
		t.Errorf("the prepare's fsync left the commit written before it undurable")
	}
	if got := l.SyncCount(); got != 2 {
		t.Errorf("commit, prepare and abort cost %d fsyncs, want 2", got)
	}
}

// awaitStaged returns once n records in all have been given LSNs. An
// appender holds the log mutex from taking its LSN until it parks
// behind the sync in flight, and NextLSN takes that mutex, so by then
// every one of them is parked.
func awaitStaged(t *testing.T, l *FileLog, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); l.NextLSN() != n+1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d records staged", l.NextLSN()-1, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// frameEnds maps each record's Txn to the file offset its frame ends at.
func frameEnds(t *testing.T, data []byte) map[uint64]int {
	t.Helper()
	records, report := scanFrames("mem", bytes.NewReader(data), int64(len(data)))
	if report.Cause != CauseNone {
		t.Fatalf("log does not scan clean: %v", &report)
	}
	ends := make(map[uint64]int, len(records))
	off := 0
	for _, r := range records {
		off += frameHeaderLen + int(binary.BigEndian.Uint32(data[off+4:off+8]))
		ends[r.Txn] = off
	}
	return ends
}

// TestGroupCommitNeverAcksBeforeDurable: whenever Append returns nil for
// a record the policy syncs, a Sync that began after the record's last
// byte was written has already succeeded.
func TestGroupCommitNeverAcksBeforeDurable(t *testing.T) {
	f := &waltest.File{Delay: 200 * time.Microsecond}
	l := NewFileLog(f)
	const appenders, each = 16, 40
	marks := make([]int, appenders*each) // durable mark seen as record i was acknowledged
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				txn := a*each + i
				kind := KindAbort
				if i%2 == 0 {
					kind = KindPrepare
				}
				if err := l.Append(Record{Kind: kind, Txn: uint64(txn)}); err != nil {
					t.Error(err)
					return
				}
				marks[txn] = f.Durable()
			}
		}(a)
	}
	wg.Wait()
	ends := frameEnds(t, f.Bytes())
	if len(ends) != len(marks) {
		t.Fatalf("file holds %d records, want %d", len(ends), len(marks))
	}
	for txn, mark := range marks {
		if end := ends[uint64(txn)]; end > mark {
			t.Errorf("txn %d acknowledged with %d bytes durable; its frame ends at %d", txn, mark, end)
		}
	}
	if got := l.SyncCount(); got >= appenders*each {
		t.Errorf("%d fsyncs for %d records: nothing was grouped", got, appenders*each)
	}
}

// TestGroupCommitOneAppenderOneSync: alone, an appender is its own
// group: one fsync, issued on its own goroutine.
func TestGroupCommitOneAppenderOneSync(t *testing.T) {
	l, f := gatedLog()
	done := appendAsync(l, 1)
	<-f.Entered
	f.Release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := l.SyncCount(); got != 1 {
		t.Fatalf("one commit cost %d fsyncs, want exactly 1", got)
	}
}

// TestGroupCommitSixteenCommitsTwoSyncs: fifteen commits that arrive
// while the first is being fsynced share the next fsync.
func TestGroupCommitSixteenCommitsTwoSyncs(t *testing.T) {
	l, f := gatedLog()
	dones := []<-chan error{appendAsync(l, 1)}
	<-f.Entered
	for txn := uint64(2); txn <= 16; txn++ {
		dones = append(dones, appendAsync(l, txn))
	}
	awaitStaged(t, l, 16)
	close(f.Release)
	for i, done := range dones {
		if err := <-done; err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	if got := l.SyncCount(); got != 2 {
		t.Fatalf("16 concurrent commits cost %d fsyncs, want 2", got)
	}
	if ends, data := frameEnds(t, f.Bytes()), f.Bytes(); len(ends) != 16 || f.Durable() != len(data) {
		t.Fatalf("file holds %d records, %d of %d bytes durable", len(ends), f.Durable(), len(data))
	}
}

// TestGroupCommitSyncErrorStaysInItsGroup: a failed fsync fails every
// appender that was waiting for it, and nobody else — not the group
// before, not the group that forms while it is failing.
func TestGroupCommitSyncErrorStaysInItsGroup(t *testing.T) {
	l, f := gatedLog()
	boom := errors.New("boom")

	first := appendAsync(l, 1)
	<-f.Entered // group 1: txn 1, in Sync
	second := []<-chan error{appendAsync(l, 2), appendAsync(l, 3), appendAsync(l, 4)}
	awaitStaged(t, l, 4)

	f.FailSync(boom) // armed for the next Sync to begin: group 2's
	f.Release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatalf("group 1: %v, want nil", err)
	}
	<-f.Entered // group 2: txns 2-4, in the Sync that will fail
	third := []<-chan error{appendAsync(l, 5), appendAsync(l, 6)}
	awaitStaged(t, l, 6)

	close(f.Release)
	for i, done := range second {
		if err := <-done; !errors.Is(err, boom) {
			t.Errorf("group 2 member %d: %v, want the sync error", i, err)
		}
	}
	for i, done := range third {
		if err := <-done; err != nil {
			t.Errorf("group 3 member %d: %v, want nil", i, err)
		}
	}
	if got := l.SyncCount(); got != 2 {
		t.Errorf("SyncCount = %d, want 2 (the failed fsync is not counted)", got)
	}
}

// stagedBehindSync parks txn 1 inside Sync and txn 2 behind it, its
// frame still in the log's buffer.
func stagedBehindSync(t *testing.T) (l *FileLog, f *waltest.File, first, second <-chan error) {
	l, f = gatedLog()
	first = appendAsync(l, 1)
	<-f.Entered
	second = appendAsync(l, 2)
	awaitStaged(t, l, 2)
	if got := len(frameEnds(t, f.Bytes())); got != 1 {
		t.Fatalf("file holds %d frames with one staged, want 1", got)
	}
	return l, f, first, second
}

// TestSyncFlushesStaged: an explicit Sync writes and fsyncs what
// appenders have staged.
func TestSyncFlushesStaged(t *testing.T) {
	l, f, first, second := stagedBehindSync(t)
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	close(f.Release)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if data := f.Bytes(); len(frameEnds(t, data)) != 2 || f.Durable() != len(data) {
		t.Fatalf("after Sync: %d frames, %d of %d bytes durable", len(frameEnds(t, data)), f.Durable(), len(data))
	}
	for _, done := range []<-chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseFlushesStaged: Close waits out the fsync in flight and writes
// what was staged behind it. The staged appender is told the truth,
// whichever of the two gets there first: nil if it fsynced its frame
// itself, ErrClosed if Close beat it to the file.
func TestCloseFlushesStaged(t *testing.T) {
	l, f, first, second := stagedBehindSync(t)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	close(f.Release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, f.Bytes())
	if len(ends) != 2 {
		t.Fatalf("after Close: %d frames, want 2", len(ends))
	}
	switch err := <-second; {
	case err == nil:
		if f.Durable() < ends[2] {
			t.Fatalf("staged append acknowledged with %d bytes durable, frame ends at %d", f.Durable(), ends[2])
		}
	case !errors.Is(err, ErrClosed):
		t.Fatalf("staged append across Close = %v, want nil or ErrClosed", err)
	}
	if err := l.Append(Record{Kind: KindCommit, Txn: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestTruncateAtFlushesStaged: a staged frame is written before the file
// is cut, not after — it must not reappear in a log whose snapshot
// already covers it.
func TestTruncateAtFlushesStaged(t *testing.T) {
	l, f, first, second := stagedBehindSync(t)
	if err := l.TruncateAt(2); err != nil {
		t.Fatal(err)
	}
	close(f.Release)
	for _, done := range []<-chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Bytes()); got != 0 {
		t.Fatalf("%d bytes in the file after TruncateAt, want 0", got)
	}
}
