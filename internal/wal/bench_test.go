package wal

import (
	"path/filepath"
	"testing"

	"repdir/internal/keyspace"
)

// BenchmarkMemoryLogAppend measures the in-memory log.
func BenchmarkMemoryLogAppend(b *testing.B) {
	var l MemoryLog
	r := Record{Kind: KindInsert, Txn: 1, Key: keyspace.New("key"), Value: "value"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileLogAppend measures framed, flushed file appends.
func BenchmarkFileLogAppend(b *testing.B) {
	l, err := OpenFileLog(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := Record{Kind: KindInsert, Txn: 1, Key: keyspace.New("key"), Value: "value"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures recovery's log analysis over a
// committed-transaction log.
func BenchmarkAnalyze(b *testing.B) {
	var records []Record
	for txn := uint64(1); txn <= 1000; txn++ {
		records = append(records,
			Record{Kind: KindInsert, Txn: txn, Key: keyspace.FromUint64(txn)},
			Record{Kind: KindCommit, Txn: txn},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Analyze(records)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Committed) != 1000 {
			b.Fatal("analysis miscounted")
		}
	}
}
