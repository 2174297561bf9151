package rep

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/wal"
)

// durablePaths returns WAL and snapshot paths in a temp dir.
func durablePaths(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	return filepath.Join(dir, "rep.wal"), filepath.Join(dir, "rep.snap")
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
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("fresh", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if r.Len() != 2 {
		t.Errorf("fresh durable rep should hold sentinels, got %d entries", r.Len())
	}
}

func TestDurableSurvivesReopen(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("dur", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "a", 1)
	commitInsert(t, r, 2, "b", 1)
	d.Close()

	r2, d2, err := OpenDurable("dur", walPath, snapPath)
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
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("cp", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		commitInsert(t, r, lock.TxnID(i+1), fmt.Sprintf("k%02d", i), i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The log is now empty on disk.
	records, err := wal.ReadFileLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Errorf("log should be truncated after checkpoint, has %d records", len(records))
	}
	// Post-checkpoint writes land in the fresh log.
	commitInsert(t, r, 100, "post", 1)
	d.Close()

	r2, d2, err := OpenDurable("cp", walPath, snapPath)
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

func TestCrashBetweenSnapshotAndTruncateIsSafe(t *testing.T) {
	// Simulate the crash window: snapshot written, log NOT truncated.
	// Recovery must skip the covered prefix by LSN instead of replaying
	// it twice (double-replay of a coalesce whose bound was later
	// deleted would fail).
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("win", walPath, snapPath)
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

	// Write the snapshot by hand — the checkpoint's first half only.
	snap, err := r.checkpointState()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(snapPath, snap); err != nil {
		t.Fatal(err)
	}
	// "Crash": no truncate. Now delete a — its redo record refers to a
	// state the snapshot already contains.
	if _, err := r.Coalesce(ctx, 5, keyspace.Low(), k("c"), 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Full log + snapshot on disk. Recovery must produce: c present,
	// a and b absent.
	r2, d2, err := OpenDurable("win", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tests := []struct {
		key  string
		want bool
	}{{"a", false}, {"b", false}, {"c", true}}
	for _, tt := range tests {
		res, err := r2.Lookup(ctx, 300, k(tt.key))
		if err != nil || res.Found != tt.want {
			t.Errorf("recovered lookup(%s) = %+v, %v; want found=%v", tt.key, res, err, tt.want)
		}
	}
	r2.Commit(ctx, 300)
}

func TestCheckpointRefusesWhileBusy(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("busy", walPath, snapPath)
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

func TestOpenDurableRejectsForeignSnapshot(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("mine", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	commitInsert(t, r, 1, "a", 1)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, _, err := OpenDurable("theirs", walPath, snapPath); err == nil {
		t.Error("opening with a mismatched name should fail")
	}
}

func TestUncommittedNeverSurvivesDurableReopen(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("unc", walPath, snapPath)
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
	r2, d2, err := OpenDurable("unc", walPath, snapPath)
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
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("conc", walPath, snapPath)
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

	r2, d2, err := OpenDurable("conc", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, want := r2.Len(), 2+workers*perWorker; got != want {
		t.Fatalf("recovered %d entries, want %d", got, want)
	}
}

// TestCheckpointKeepsCommitsThatRaceIt: a checkpoint on a live
// representative writes its snapshot with nothing held, so transactions
// commit meanwhile. Their records are in the log alone; compacting the
// log then would discard commits that were acknowledged.
func TestCheckpointKeepsCommitsThatRaceIt(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	// The race is between the snapshot write and the commits, not the
	// commits' own fsyncs; without them the run takes a moment.
	r, d, err := OpenDurable("live", walPath, snapPath, WithSyncPolicy(wal.SyncNever))
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

	r2, d2, err := OpenDurable("live", walPath, snapPath)
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
	walPath, snapPath := durablePaths(t)
	oracle := map[string]bool{}
	nextTxn := lock.TxnID(1)

	for life := 0; life < 6; life++ {
		r, d, err := OpenDurable("torture", walPath, snapPath)
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
		// Checkpoint on even lives, skip on odd (exercising both the
		// snapshot+log and log-only recovery paths).
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
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("sync", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitInsert(t, r, 1, "a", 1)
	if got := d.log.SyncCount(); got != 1 {
		t.Fatalf("one-shot commit issued %d fsyncs, want 1, for its prepare", got)
	}
	records, err := wal.ReadFileLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []wal.Kind
	for _, rec := range records {
		kinds = append(kinds, rec.Kind)
	}
	if want := []wal.Kind{wal.KindInsert, wal.KindPrepare, wal.KindCommit}; !slices.Equal(kinds, want) || records[1].Writers != 1 {
		t.Fatalf("log holds %v (prepare writers %d), want %v with the prepare naming 1 writer", kinds, records[1].Writers, want)
	}
}

func TestDurableSyncNeverOptsOut(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("nosync", walPath, snapPath, WithSyncPolicy(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitInsert(t, r, 1, "a", 1)
	if got := d.log.SyncCount(); got != 0 {
		t.Fatalf("SyncNever issued %d fsyncs", got)
	}
}
