package rep

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repdir/internal/btree"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// durablePath returns a WAL path in a temp dir.
func durablePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "rep.wal")
}

// readLog returns the records of the log at path, which must scan clean.
func readLog(t *testing.T, path string) []wal.Record {
	t.Helper()
	records, report, err := wal.ScanFileLog(path)
	if err != nil || report != nil {
		t.Fatalf("read %s: %v %v", path, report, err)
	}
	return records
}

// commitInsert runs one committed insert through a fresh transaction.
func commitInsert(t *testing.T, r *Rep, id lock.TxnID, key string, ver int) {
	t.Helper()
	if err := r.Insert(ctx, id, k(key), 1, fmt.Sprintf("v%d", ver)); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, id); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDurableFresh(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("fresh", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if r.Len() != 2 {
		t.Errorf("fresh durable rep should hold sentinels, got %d entries", r.Len())
	}
}

func TestDurableSurvivesReopen(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("dur", walPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "a", 1)
	commitInsert(t, r, 2, "b", 1)
	d.Close()

	r2, d2, err := OpenDurable("dur", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, key := range []string{"a", "b"} {
		res, err := r2.Lookup(ctx, 10, k(key))
		if err != nil || !res.Found {
			t.Errorf("%s lost across reopen: %+v %v", key, res, err)
		}
	}
	r2.Commit(ctx, 10)
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("cp", walPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		commitInsert(t, r, lock.TxnID(i+1), fmt.Sprintf("k%02d", i), i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The log's history is cut: it holds the checkpoint section alone, no
	// prepare of the twenty transactions, closed by a commit of
	// transaction 0 naming the representative.
	records := readLog(t, walPath)
	for _, rec := range records {
		if rec.Kind == wal.KindPrepare {
			t.Fatalf("log still holds a prepare after checkpoint: %+v", rec)
		}
	}
	if last := records[len(records)-1]; last.Kind != wal.KindCommit || last.Txn != 0 || last.Value != "cp" {
		t.Errorf("log after checkpoint ends with %+v, want the commit of transaction 0 naming cp", last)
	}
	// Post-checkpoint writes land in the fresh log.
	commitInsert(t, r, 100, "post", 1)
	d.Close()

	r2, d2, err := OpenDurable("cp", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, want := r2.Len(), 2+21; got != want {
		t.Errorf("recovered %d entries, want %d", got, want)
	}
	res, err := r2.Lookup(ctx, 200, k("post"))
	if err != nil || !res.Found {
		t.Errorf("post-checkpoint write lost: %+v %v", res, err)
	}
	r2.Commit(ctx, 200)
}

// TestCrashBetweenSnapshotAndTruncateIsSafe crashes a checkpoint at
// each step of its swap (wal.FileLog.Compact). Before the rename the old
// log is at the path and the fsynced compacted one beside it; after it,
// the compacted log alone. Either recovers the state the checkpoint
// captured, the temp file is never read, and an append acknowledged
// after the swap lands in the compacted log and survives a reopen.
func TestCrashBetweenSnapshotAndTruncateIsSafe(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("win", walPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "a", 1)
	commitInsert(t, r, 2, "b", 1)
	commitInsert(t, r, 3, "c", 1)
	// Delete b via coalesce(a, c).
	if _, err := r.Coalesce(ctx, 4, k("a"), k("c"), 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 4); err != nil {
		t.Fatal(err)
	}
	checkpointed := r.Dump()
	old := readFile(t, walPath)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compacted := readFile(t, walPath)
	// Delete a, acknowledged on the compacted log; then the process dies
	// without closing it.
	if _, err := r.Coalesce(ctx, 5, keyspace.Low(), k("c"), 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	appended := r.Dump()
	crashed := readFile(t, walPath)

	garbage := []byte("not a log at all")
	for _, tc := range []struct {
		name      string
		log, temp []byte
		want      []btree.Entry
	}{
		// The temp file is the compacted log, whole and fsynced: were it
		// read, the report would count its records, not the old log's.
		{"before the rename", old, compacted, checkpointed},
		{"after the rename", compacted, nil, checkpointed},
		{"after an append to the compacted log", crashed, garbage, appended},
	} {
		p := filepath.Join(t.TempDir(), "rep.wal")
		writeFile(t, p, tc.log)
		if tc.temp != nil {
			writeFile(t, p+".compact", tc.temp)
		}
		r2, d2, err := OpenDurable("win", p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r2.Dump(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: recovered %v, want %v", tc.name, got, tc.want)
		}
		if records := readLog(t, p); d2.Recovery().WALRecords != len(records) {
			t.Errorf("%s: recovered %d records, the log holds %d", tc.name, d2.Recovery().WALRecords, len(records))
		}
		// A leftover temp file does not stand in the next checkpoint's way.
		if err := d2.Checkpoint(); err != nil {
			t.Fatalf("%s: checkpoint over a leftover temp file: %v", tc.name, err)
		}
		d2.Close()
		r3, d3, err := OpenDurable("win", p)
		if err != nil {
			t.Fatalf("%s: reopen after the second checkpoint: %v", tc.name, err)
		}
		if got := r3.Dump(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: after a second checkpoint, recovered %v, want %v", tc.name, got, tc.want)
		}
		d3.Close()
	}
	d.Close()
}

// TestCheckpointRoundTrip: a checkpoint keeps everything a replay of the
// whole log restores. A seeded mix of inserts, updates and deletes
// leaves gap versions of its own on most gaps, beside an epoch advance
// and transactions committed and aborted; after a checkpoint, close and
// reopen, the entries, the fence and the status of every decided
// transaction are what they were, and transaction 0 is no transaction.
func TestCheckpointRoundTrip(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("rt", walPath)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	var decided []lock.TxnID
	for id := lock.TxnID(1); id <= 300; id++ {
		ver := version.V(id)
		entries := r.Dump()
		switch op := rng.Intn(10); {
		case op < 5: // insert, or update a key already there
			if err := r.Insert(ctx, id, k(fmt.Sprintf("k%02d", rng.Intn(40))), ver, fmt.Sprintf("v%d", id)); err != nil {
				t.Fatal(err)
			}
		case len(entries) > 2: // delete an entry: coalesce its neighbors
			i := 1 + rng.Intn(len(entries)-2)
			if _, err := r.Coalesce(ctx, id, entries[i-1].Key, entries[i+1].Key, ver); err != nil {
				t.Fatal(err)
			}
		default:
			continue
		}
		if err := r.Prepare(MarkWriters(ctx, 1), id); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(5) == 0 {
			err = r.Abort(ctx, id)
		} else {
			err = r.Commit(ctx, id)
		}
		if err != nil {
			t.Fatal(err)
		}
		decided = append(decided, id)
	}
	if _, err := r.AdvanceEpoch(7); err != nil {
		t.Fatal(err)
	}
	before := r.Dump()
	statuses := make(map[lock.TxnID]TxnStatus, len(decided))
	for _, id := range decided {
		statuses[id], _ = r.Status(ctx, id)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	r2, d2, err := OpenDurable("rt", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := r2.Dump(); !slices.Equal(got, before) {
		t.Errorf("entries after checkpoint and reopen:\n got %v\nwant %v", got, before)
	}
	if got := r2.Fence(); got != 7 {
		t.Errorf("fence after checkpoint and reopen = %d, want 7", got)
	}
	for _, id := range decided {
		if got, _ := r2.Status(ctx, id); got != statuses[id] {
			t.Errorf("status of transaction %d after checkpoint and reopen = %v, want %v", id, got, statuses[id])
		}
	}
	if got, _ := r2.Status(ctx, 0); got != StatusUnknown {
		t.Errorf("status of transaction 0 = %v, want unknown", got)
	}
}

// readFile and writeFile are os.ReadFile and os.WriteFile for tests.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRefusesWhileBusy(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("busy", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := r.Insert(ctx, 1, k("x"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrBusy) {
		t.Errorf("checkpoint with in-flight txn = %v, want ErrBusy", err)
	}
	if err := r.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Errorf("checkpoint after commit: %v", err)
	}
}

// TestOpenDurableRejectsForeignSnapshot: a log whose checkpoint section
// names another representative is refused under every policy, and left
// as it was.
func TestOpenDurableRejectsForeignSnapshot(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("mine", walPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "a", 1)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	before := readFile(t, walPath)
	for _, policy := range []RecoveryPolicy{RecoverStrict, RecoverSalvage, RecoverRebuild} {
		if _, _, err := OpenDurable("theirs", walPath, WithRecovery(policy)); err == nil {
			t.Errorf("%s: opening another representative's log should fail", policy)
		}
		if !bytes.Equal(readFile(t, walPath), before) {
			t.Fatalf("%s: the refusal modified the log", policy)
		}
	}
	r2, d2, err := OpenDurable("mine", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if res, err := r2.Lookup(ctx, 10, k("a")); err != nil || !res.Found {
		t.Errorf("lookup(a) in its own log = %+v, %v", res, err)
	}
}

func TestUncommittedNeverSurvivesDurableReopen(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("unc", walPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "keep", 1)
	// Prepared but never committed.
	if err := r.Insert(ctx, 2, k("drop"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(MarkWriters(ctx, 1), 2); err != nil {
		t.Fatal(err)
	}
	d.Close()
	r2, d2, err := OpenDurable("unc", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if res, _ := r2.Lookup(ctx, 10, k("keep")); !res.Found {
		t.Error("committed entry lost")
	}
	if res, _ := r2.Lookup(ctx, 10, k("drop")); res.Found {
		t.Error("uncommitted entry survived (presumed abort violated)")
	}
	r2.Commit(ctx, 10)
}

// TestDurableConcurrentCommits drives parallel transactions on disjoint
// keys through a file-backed log: the framed WAL writes must serialize
// correctly under contention, and recovery must see all of them.
func TestDurableConcurrentCommits(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("conc", walPath)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := lock.TxnID(1000*w + i + 1)
				key := k(fmt.Sprintf("w%d-%03d", w, i))
				if err := r.Insert(ctx, id, key, 1, "v"); err != nil {
					errs <- err
					return
				}
				if err := r.Commit(ctx, id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	d.Close()

	r2, d2, err := OpenDurable("conc", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, want := r2.Len(), 2+workers*perWorker; got != want {
		t.Fatalf("recovered %d entries, want %d", got, want)
	}
}

// TestCheckpointKeepsCommitsThatRaceIt: a checkpoint on a live
// representative writes its compacted log with nothing held, so
// transactions commit meanwhile. Their records are in the old log alone;
// swapping the compacted one in then would discard commits that were
// acknowledged.
func TestCheckpointKeepsCommitsThatRaceIt(t *testing.T) {
	walPath := durablePath(t)
	// The race is between the compacted log's write and the commits,
	// not the commits' own fsyncs; without them the run takes a moment.
	r, d, err := OpenDurable("live", walPath, WithSyncPolicy(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	const commits = 3000
	stop := make(chan struct{})
	checkpointer := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				checkpointer <- nil
				return
			default:
			}
			if err := d.Checkpoint(); err != nil && !errors.Is(err, ErrBusy) {
				checkpointer <- err
				return
			}
		}
	}()
	for i := 0; i < commits; i++ {
		commitInsert(t, r, lock.TxnID(i+1), fmt.Sprintf("k%04d", i), i)
	}
	close(stop)
	if err := <-checkpointer; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	d.Close()

	r2, d2, err := OpenDurable("live", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if lost := 2 + commits - r2.Len(); lost != 0 {
		t.Fatalf("%d of %d acknowledged commits lost across checkpoints", lost, commits)
	}
}

// TestDurableTortureLoop interleaves committed work, checkpoints, and
// reopen-from-disk "crashes", auditing the full contents each life.
func TestDurableTortureLoop(t *testing.T) {
	walPath := durablePath(t)
	oracle := map[string]bool{}
	nextTxn := lock.TxnID(1)

	for life := 0; life < 6; life++ {
		r, d, err := OpenDurable("torture", walPath)
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		// Audit everything the oracle knows.
		auditID := nextTxn
		nextTxn++
		for key, want := range oracle {
			res, err := r.Lookup(ctx, auditID, k(key))
			if err != nil {
				t.Fatalf("life %d audit: %v", life, err)
			}
			if res.Found != want {
				t.Fatalf("life %d: %s found=%v, oracle %v", life, key, res.Found, want)
			}
		}
		r.Commit(ctx, auditID)

		// Mutate: insert three keys, delete one previous key by
		// coalescing its neighborhood.
		for j := 0; j < 3; j++ {
			key := fmt.Sprintf("l%02d-k%d", life, j)
			commitInsert(t, r, nextTxn, key, life)
			nextTxn++
			oracle[key] = true
		}
		// Checkpoint on even lives, skip on odd (exercising recovery of
		// a compacted log with and without records after its section).
		if life%2 == 0 {
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("life %d checkpoint: %v", life, err)
			}
		}
		d.Close() // crash boundary
	}
}

// TestDurableCommitSyncsWAL: under the default SyncOnCommit policy a
// one-shot commit forces one record, the prepare it writes first as its
// transaction's one writer — carrying the redo record to disk — and
// writes its commit record unforced.
func TestDurableCommitSyncsWAL(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("sync", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitInsert(t, r, 1, "a", 1)
	if got := d.log.SyncCount(); got != 1 {
		t.Fatalf("one-shot commit issued %d fsyncs, want 1, for its prepare", got)
	}
	records := readLog(t, walPath)
	var kinds []wal.Kind
	for _, rec := range records {
		kinds = append(kinds, rec.Kind)
	}
	// The log opens with the section of an empty representative it was
	// created with.
	want := []wal.Kind{wal.KindCoalesce, wal.KindEpoch, wal.KindCommit, wal.KindInsert, wal.KindPrepare, wal.KindCommit}
	if !slices.Equal(kinds, want) || records[4].Writers != 1 {
		t.Fatalf("log holds %v, want %v with the prepare naming 1 writer", kinds, want)
	}
}

func TestDurableSyncNeverOptsOut(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("nosync", walPath, WithSyncPolicy(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitInsert(t, r, 1, "a", 1)
	if got := d.log.SyncCount(); got != 0 {
		t.Fatalf("SyncNever issued %d fsyncs", got)
	}
}

// TestTransactionZeroIsReserved: the records of a checkpoint section are
// logged under transaction 0, so no call may write, lock or decide
// under it — a committed write of its would be read back as part of
// the section, and skipped. Every transactional call refuses it before
// taking a lock, the log never holds a record of it outside a section,
// and Status of it, the fence probe, still answers.
func TestTransactionZeroIsReserved(t *testing.T) {
	walPath := durablePath(t)
	r, d, err := OpenDurable("zero", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitInsert(t, r, 1, "a", 1)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for what, err := range map[string]error{
		"Insert":          r.Insert(ctx, 0, k("b"), 2, "v"),
		"Coalesce":        second(r.Coalesce(ctx, 0, keyspace.Low(), k("a"), 2)),
		"Lookup":          second(r.Lookup(ctx, 0, k("a"))),
		"Lookup one-shot": second(r.Lookup(MarkOneShot(ctx), 0, k("a"))),
		"Successor":       second(r.Successor(ctx, 0, k("a"))),
		"Prepare":         r.Prepare(MarkWriters(ctx, 1), 0),
		"Commit":          r.Commit(ctx, 0),
		"Abort":           r.Abort(ctx, 0),
	} {
		if !errors.Is(err, ErrReservedTxn) {
			t.Errorf("%s under transaction 0 = %v, want ErrReservedTxn", what, err)
		}
	}
	if st, err := r.Status(ctx, 0); err != nil || st != StatusUnknown {
		t.Errorf("Status(0) = %v, %v, want unknown", st, err)
	}
	// No lock was left behind under transaction 0.
	commitInsert(t, r, 2, "b", 1)
	if _, err := r.Coalesce(ctx, 3, keyspace.Low(), k("b"), 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 3); err != nil {
		t.Fatal(err)
	}

	records := readLog(t, walPath)
	end := slices.IndexFunc(records, func(rec wal.Record) bool { return rec.Kind == wal.KindCommit && rec.Txn == 0 })
	for _, rec := range records[end+1:] {
		if rec.Txn == 0 {
			t.Errorf("log holds %+v, a record of transaction 0 after its section", rec)
		}
	}
}

// second returns the error of a call that also returns a result.
func second[T any](_ T, err error) error { return err }
