package rep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/wal"
	"repdir/internal/wal/waltest"
)

// populatedRep builds a representative with n committed entries.
func populatedRep(b *testing.B, n int) *Rep {
	b.Helper()
	r := New("bench")
	ctx := context.Background()
	id := lock.TxnID(1)
	for i := 0; i < n; i++ {
		if err := r.Insert(ctx, id, keyspace.FromUint64(uint64(i)), 1, "v"); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Commit(ctx, id); err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkRepLookup measures a committed-read transaction per iteration.
func BenchmarkRepLookup(b *testing.B) {
	r := populatedRep(b, 10000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := lock.TxnID(i + 10)
		if _, err := r.Lookup(ctx, id, keyspace.FromUint64(uint64(i%10000))); err != nil {
			b.Fatal(err)
		}
		r.Abort(ctx, id)
	}
}

// BenchmarkRepInsertCommit measures insert + single-phase commit.
func BenchmarkRepInsertCommit(b *testing.B) {
	r := New("bench")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := lock.TxnID(i + 1)
		if err := r.Insert(ctx, id, keyspace.FromUint64(uint64(i)), 1, "v"); err != nil {
			b.Fatal(err)
		}
		if err := r.Commit(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepCoalesce measures delete-by-coalesce of a three-entry
// range.
func BenchmarkRepCoalesce(b *testing.B) {
	r := New("bench")
	ctx := context.Background()
	setup := lock.TxnID(1)
	if err := r.Insert(ctx, setup, keyspace.New("lo"), 1, "v"); err != nil {
		b.Fatal(err)
	}
	if err := r.Insert(ctx, setup, keyspace.New("zhi"), 1, "v"); err != nil {
		b.Fatal(err)
	}
	if err := r.Commit(ctx, setup); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := lock.TxnID(i + 10)
		key := fmt.Sprintf("mid%d", i)
		if err := r.Insert(ctx, id, keyspace.New(key), 2, "v"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := r.Coalesce(ctx, id, keyspace.New("lo"), keyspace.New("zhi"), 3); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := r.Commit(ctx, id); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkDurableCommit measures committed inserts through a file log
// whose fsync takes 2 ms, from 1, 8 and 64 concurrent committers on
// disjoint keys. Alone, a committer pays one fsync per commit; together
// they share them, so commits/s should rise with the committers and
// fsyncs/commit fall, which is the group size the log reached.
func BenchmarkDurableCommit(b *testing.B) {
	for _, committers := range []int{1, 8, 64} {
		b.Run(fmt.Sprint(committers), func(b *testing.B) {
			log := wal.NewFileLog(&waltest.File{Delay: 2 * time.Millisecond})
			r := New("bench", WithLog(log))
			ctx := context.Background()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						id := lock.TxnID(i)
						if err := r.Insert(ctx, id, keyspace.FromUint64(uint64(i)), 1, "v"); err != nil {
							b.Error(err)
							return
						}
						if err := r.Commit(ctx, id); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
			b.ReportMetric(float64(log.SyncCount())/float64(b.N), "fsyncs/commit")
		})
	}
}
