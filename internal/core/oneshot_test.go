package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/fault"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// TestOneShotReadsLinearizePerKey races point reads, which hold no lock
// past the call that serves them, against point writers, with every
// quorum drawn at random and every member a different distance away.
// Each key has one writer, so "the last acknowledged version" of a key
// is a number the writer can publish. Half the writers run under
// parallel quorum, so their writes are acknowledged before their commit
// rounds land. Per key the history must be linearizable:
//
//   - a read that begins after a write was acknowledged sees that write
//     or a later one;
//   - the versions one reader sees, one read after another, never go
//     back — it cannot see a write and then miss it;
//   - every value read is the value written at the version it came with,
//     and never one a transaction wrote and then took back: beside each
//     writer runs a saboteur that overwrites the key and aborts.
func TestOneShotReadsLinearizePerKey(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const keys, readers, writes = 4, 6, 60

	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"A", "B", "C"} {
		l := transport.NewLocal(rep.New(name))
		l.SetLatency(time.Duration(i*150) * time.Microsecond)
		dirs[i] = l
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	// Writers and readers are separate clients with separate selectors,
	// so a reader's quorum and a writer's share one member or two.
	client := func(seed int64) *Suite {
		s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, seed)), WithParallelQuorum(seed%2 == 0))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	keyName := func(k int) string { return fmt.Sprintf("key-%d", k) }
	valueAt := func(k int, v version.V) string { return fmt.Sprintf("%d@%d", k, v) }

	setup := client(100)
	var acked [keys]atomic.Uint64 // version of the key's last acknowledged write
	for k := 0; k < keys; k++ {
		v, err := setup.InsertV(ctx, keyName(k), valueAt(k, 1))
		if err != nil || v != 1 {
			t.Fatalf("insert %s = version %d, %v", keyName(k), v, err)
		}
		acked[k].Store(1)
	}

	var writing sync.WaitGroup
	for k := 0; k < keys; k++ {
		writing.Add(1)
		go func(k int) {
			defer writing.Done()
			s := client(int64(200 + k))
			for n := 0; n < writes; n++ {
				next := version.V(acked[k].Load() + 1)
				v, err := s.UpdateV(ctx, keyName(k), valueAt(k, next))
				if err != nil {
					t.Errorf("update %s: %v", keyName(k), err)
					return
				}
				if v != next {
					t.Errorf("update %s installed version %d, want %d", keyName(k), v, next)
					return
				}
				acked[k].Store(uint64(v))
			}
		}(k)
	}
	done := make(chan struct{})
	go func() { writing.Wait(); close(done) }()

	errSabotage := errors.New("sabotage")
	var sabotaging sync.WaitGroup
	var sabotaged atomic.Int64
	for k := 0; k < keys; k++ {
		sabotaging.Add(1)
		go func(k int) {
			defer sabotaging.Done()
			s := client(int64(400 + k))
			for {
				select {
				case <-done:
					return
				default:
				}
				err := s.RunInTxn(ctx, func(tx *Tx) error {
					if err := tx.Update(ctx, keyName(k), "never committed"); err != nil {
						return err
					}
					sabotaged.Add(1)
					return errSabotage
				})
				if !errors.Is(err, errSabotage) {
					t.Errorf("saboteur of %s: %v", keyName(k), err)
					return
				}
			}
		}(k)
	}

	var reading sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			s := client(int64(300 + r))
			var last [keys]version.V
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := (i + r) % keys
				floor := version.V(acked[k].Load())
				val, found, v, err := s.LookupV(ctx, keyName(k))
				if err != nil {
					t.Errorf("reader %d: lookup %s: %v", r, keyName(k), err)
					return
				}
				switch {
				case !found:
					t.Errorf("reader %d: %s not found", r, keyName(k))
				case v < floor:
					t.Errorf("reader %d: %s read at version %d after version %d was acknowledged", r, keyName(k), v, floor)
				case v < last[k]:
					t.Errorf("reader %d: %s read at version %d after it had read version %d", r, keyName(k), v, last[k])
				case val != valueAt(k, v):
					t.Errorf("reader %d: %s version %d carries %q", r, keyName(k), v, val)
				}
				if t.Failed() {
					return
				}
				last[k] = v
				reads.Add(1)
			}
		}(r)
	}
	reading.Wait()
	sabotaging.Wait()
	if reads.Load() < 100 || sabotaged.Load() < 10 {
		t.Errorf("only %d reads and %d aborted overwrites raced the writers", reads.Load(), sabotaged.Load())
	}
	// Every writer finished, so every key reads at its last version.
	for k := 0; k < keys; k++ {
		if _, _, v, err := setup.LookupV(ctx, keyName(k)); err != nil || v != 1+writes {
			t.Errorf("%s ends at version %d, %v; want %d", keyName(k), v, err, 1+writes)
		}
	}
}

// TestReadsLeakNoLocks: reads that lose their reply, or whose member
// crashes right after executing them, used to leave a read lock behind
// until an abort or a sweep of strays found it. A one-shot read releases
// before it answers, so whatever happens to the answer nothing is left:
// after a storm of lookups through members that drop replies and crash
// after executing, no member holds a lock or a transaction record —
// with no abort sent and no sweep run.
func TestReadsLeakNoLocks(t *testing.T) {
	ctx := context.Background()
	plan := fault.Plan{PDropReply: 0.15, PCrashAfter: 0.05, PDuplicate: 0.05, DownMin: 1, DownMax: 3,
		PDelay: 0.2, MaxLatency: 300 * time.Microsecond}
	in := fault.NewInjector([]string{"A", "B", "C"}, plan, 7)
	in.Suspend(true)
	cfg := quorum.NewUniform(in.Directories(), 2, 2)
	s, err := NewSuite(cfg, WithSelector(quorum.NewRandomSelector(cfg, 7)), WithParallelQuorum(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(ctx); err != nil { // no commit may meet a fault
		t.Fatal(err)
	}
	in.Suspend(false)

	failed := 0
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("k%d", i%8)
		if _, _, err := s.Lookup(ctx, key); err != nil {
			failed++ // two members down at once; nothing to do with locks
		}
	}
	in.Suspend(true)
	if err := in.Heal(); err != nil {
		t.Fatal(err)
	}
	var faults fault.Stats
	for _, st := range in.Stats() {
		faults.DroppedReplies += st.DroppedReplies
		faults.CrashAfters += st.CrashAfters
	}
	if faults.DroppedReplies == 0 || faults.CrashAfters == 0 {
		t.Fatalf("the plan injected %d dropped replies and %d crashes after execution; want both", faults.DroppedReplies, faults.CrashAfters)
	}
	t.Logf("%d of 600 reads failed; %d replies dropped, %d crashes after executing", failed, faults.DroppedReplies, faults.CrashAfters)
	// A transaction is known at a member only while it holds a lock
	// there (rep.Rep.join), so a member that holds none remembers none.
	for _, m := range in.Members() {
		if n := m.Rep().Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%d transactions hold locks at %s", n, m.Name())
		}
	}
}
