package txn

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/wal"
)

// TestResolveSettlesCrashRestartedParticipant runs the full
// crash-during-2PC story against real write-ahead logs: a coordinator
// prepares a transaction at two participants, commits at one, and dies.
// The other participant crashes, loses its volatile state, and is
// rebuilt from its log — the transaction comes back in doubt, effects
// withheld and write locks held. Cooperative termination must find the
// committed participant and drive the recovered one to commit.
func TestResolveSettlesCrashRestartedParticipant(t *testing.T) {
	ctx := context.Background()
	logA, logB := &wal.MemoryLog{}, &wal.MemoryLog{}
	a := rep.New("A", rep.WithLog(logA))
	b := rep.New("B", rep.WithLog(logB))
	id := lock.TxnID(42)
	key := keyspace.New("k")

	for _, r := range []*rep.Rep{a, b} {
		if err := r.Insert(ctx, id, key, 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := r.Prepare(rep.MarkWriters(ctx, 2), id); err != nil {
			t.Fatal(err)
		}
	}
	// Coordinator commits at A, then dies before reaching B.
	if err := a.Commit(ctx, id); err != nil {
		t.Fatal(err)
	}

	// B crashes and restarts from its log.
	b2, err := rep.Recover("B", logB.Records(), rep.WithLog(logB))
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.InDoubt(); len(got) != 1 || got[0] != id {
		t.Fatalf("recovered in-doubt set = %v, want [%d]", got, id)
	}
	if st, _ := b2.Status(ctx, id); st.Fate() != rep.StatusInDoubt {
		t.Fatalf("recovered status = %v, want in-doubt", st)
	}
	// Effects are withheld until the decision arrives.
	if res, err := a.Lookup(ctx, 50, key); err != nil || !res.Found {
		t.Fatalf("A lookup = %+v, %v; want committed entry", res, err)
	}

	res, err := Resolve(ctx, id, []rep.Directory{a, b2})
	if err != nil {
		t.Fatalf("resolve = %v", err)
	}
	if !res.Committed {
		t.Error("resolution should be commit: a participant committed")
	}
	if len(res.Finished) != 1 || res.Finished[0] != "B" {
		t.Errorf("finished = %v, want [B]", res.Finished)
	}

	// B now matches A: effects installed, locks released, outcome known.
	if st, _ := b2.Status(ctx, id); st != rep.StatusCommitted {
		t.Errorf("B status = %v, want committed", st)
	}
	got, err := b2.Lookup(ctx, 51, key)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || got.Value != "v" {
		t.Errorf("B lookup after resolve = %+v, want found v", got)
	}
}

// TestResolveAfterReadOnlyParticipantCrash: a participant that only read
// logs nothing at prepare or commit, so a crash leaves it with no memory
// of the transaction. Cooperative termination must still drive the
// participants that wrote to one outcome — commit, whether or not a
// writer was told: both writers prepared, and the reader's unknown is
// not a writer's, so it counts for nothing.
func TestResolveAfterReadOnlyParticipantCrash(t *testing.T) {
	for _, tt := range []struct {
		name      string
		commitAtB bool // the coordinator reached the reader and writer B before dying
		want      rep.TxnStatus
	}{
		{"no writer committed", false, rep.StatusCommitted},
		{"one writer committed", true, rep.StatusCommitted},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ctx := context.Background()
			logA := &wal.MemoryLog{}
			a := rep.New("A", rep.WithLog(logA))
			b := rep.New("B", rep.WithLog(&wal.MemoryLog{}))
			c := rep.New("C", rep.WithLog(&wal.MemoryLog{}))
			id := lock.TxnID(42)
			key := keyspace.New("k")

			if _, err := a.Lookup(ctx, id, key); err != nil {
				t.Fatal(err)
			}
			for _, w := range []*rep.Rep{b, c} {
				if err := w.Insert(ctx, id, key, 1, "v"); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range []*rep.Rep{a, b, c} {
				if err := p.Prepare(rep.MarkWriters(ctx, 2), id); err != nil {
					t.Fatal(err)
				}
			}
			if tt.commitAtB {
				for _, p := range []*rep.Rep{a, b} {
					if err := p.Commit(ctx, id); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := logA.Records(); len(got) != 0 {
				t.Fatalf("read-only participant logged %+v, want nothing", got)
			}

			// The reader crashes and restarts from its (empty) log.
			a2, err := rep.Recover("A", logA.Records(), rep.WithLog(logA))
			if err != nil {
				t.Fatal(err)
			}
			if st, _ := a2.Status(ctx, id); st != rep.StatusUnknown {
				t.Fatalf("reader's status after crash = %v, want unknown", st)
			}

			res, err := Resolve(ctx, id, []rep.Directory{a2, b, c})
			if err != nil {
				t.Fatalf("resolve = %v", err)
			}
			if res.Committed != (tt.want == rep.StatusCommitted) {
				t.Errorf("resolution committed = %v, want outcome %v", res.Committed, tt.want)
			}
			for _, w := range []*rep.Rep{b, c} {
				if st, _ := w.Status(ctx, id); st != tt.want {
					t.Errorf("%s status = %v, want %v", w.Name(), st, tt.want)
				}
				got, err := w.Lookup(ctx, 50, key)
				if err != nil {
					t.Fatal(err)
				}
				if got.Found != (tt.want == rep.StatusCommitted) {
					t.Errorf("%s lookup after resolve = %+v under outcome %v", w.Name(), got, tt.want)
				}
				w.Commit(ctx, 50)
			}
			// The reader's locks died with it; the key is free there too.
			if _, err := a2.Lookup(ctx, 51, key); err != nil {
				t.Errorf("reader lookup after resolve: %v", err)
			}
		})
	}
}

// TestResolveAfterCheckpointOfCommittedSibling: a member remembers what
// it decided across a checkpoint. A prepared at writer count 2 and was
// left in doubt; B committed, checkpointed — compacting away the log
// that held its prepare and commit records — and reopened. B must still answer
// StatusCommitted, and A resolve to commit: an unknown B would be a
// writer that never prepared, and would abort a committed transaction.
func TestResolveAfterCheckpointOfCommittedSibling(t *testing.T) {
	ctx := context.Background()
	id := lock.TxnID(42)
	key := keyspace.New("k")
	dir := t.TempDir()
	walB := filepath.Join(dir, "B.wal")

	a := rep.New("A", rep.WithLog(&wal.MemoryLog{}))
	b, d, err := rep.OpenDurable("B", walB)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*rep.Rep{a, b} {
		if err := r.Insert(ctx, id, key, 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := r.Prepare(rep.MarkWriters(ctx, 2), id); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	records, _, err := wal.ScanFileLog(walB)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if rec.Kind == wal.KindPrepare {
			t.Fatalf("B's log after the checkpoint still holds a prepare: %+v", rec)
		}
	}
	b2, d2, err := rep.OpenDurable("B", walB)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st, _ := b2.Status(ctx, id); st != rep.StatusCommitted {
		t.Fatalf("B's status after checkpoint and reopen = %v, want committed", st)
	}

	res, err := Resolve(ctx, id, []rep.Directory{a, b2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || len(res.Finished) != 1 || res.Finished[0] != "A" {
		t.Fatalf("resolution = %+v, want committed, finished at A", res)
	}
	if got, err := a.Lookup(ctx, 50, key); err != nil || !got.Found {
		t.Errorf("A lookup after resolve = %+v, %v; want the committed entry", got, err)
	}
}

// TestResolveWaitsForARebuiltSibling: A prepared at writer count 2 and
// was left in doubt (its commit call was lost, or a power cut took its
// unforced commit record). B committed, checkpointed, and then lost its
// storage — its compacted log damaged — and reopens rebuilt, empty, with
// no record of the transaction.
// B must not answer StatusUnknown — that would read as a writer that
// never prepared, and abort a write the caller was told succeeded. It
// answers ErrRecovering, and Resolve leaves A in doubt.
func TestResolveWaitsForARebuiltSibling(t *testing.T) {
	ctx := context.Background()
	id := lock.TxnID(42)
	key := keyspace.New("k")
	dir := t.TempDir()
	walB := filepath.Join(dir, "B.wal")

	a := rep.New("A", rep.WithLog(&wal.MemoryLog{}))
	b, d, err := rep.OpenDurable("B", walB)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*rep.Rep{a, b} {
		if err := r.Insert(ctx, id, key, 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := r.Prepare(rep.MarkWriters(ctx, 2), id); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(walB)
	if err != nil {
		t.Fatal(err)
	}
	log[len(log)/2] ^= 0xff
	if err := os.WriteFile(walB, log, 0o644); err != nil {
		t.Fatal(err)
	}
	b2, d2, err := rep.OpenDurable("B", walB, rep.WithRecovery(rep.RecoverRebuild))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Recovery().Rebuilt {
		t.Fatalf("B reopened without a rebuild: %+v", d2.Recovery())
	}
	if st, err := b2.Status(ctx, id); !errors.Is(err, rep.ErrRecovering) {
		t.Fatalf("rebuilt B's status = %v, %v; want ErrRecovering", st, err)
	}

	if res, err := Resolve(ctx, id, []rep.Directory{a, b2}); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("resolve = %+v, %v; want ErrUnresolvable", res, err)
	}
	if st, _ := a.Status(ctx, id); st != rep.InDoubtOf(2) {
		t.Errorf("A status = %v, want still in doubt of 2 writers", st)
	}
}
