// Package waltest provides an in-memory wal.File for tests and
// benchmarks that need to see what a log did to its file, or to hold the
// log inside an fsync while something else runs.
package waltest

import (
	"sync"
	"time"
)

// File is a wal.File that keeps what is written to it in memory. Every
// Sync, in order: notes how much had been written, announces itself on
// Entered, waits for a value from Release, sleeps for Delay, and then
// either fails with the error FailSync armed or moves the durable mark
// to the noted length. Leave a channel nil to skip its step; close
// Release to let every later Sync through.
type File struct {
	Entered chan struct{}
	Release chan struct{}
	Delay   time.Duration

	mu      sync.Mutex
	data    []byte
	durable int
	fail    error
}

// Write implements wal.File.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = append(f.data, p...)
	return len(p), nil
}

// Sync implements wal.File.
func (f *File) Sync() error {
	f.mu.Lock()
	mark, err := len(f.data), f.fail
	f.fail = nil
	f.mu.Unlock()
	if f.Entered != nil {
		f.Entered <- struct{}{}
	}
	if f.Release != nil {
		<-f.Release
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.durable = mark
	f.mu.Unlock()
	return nil
}

// Truncate cuts the file to its first size bytes, keeping the capacity
// it grew to.
func (f *File) Truncate(size int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = f.data[:size]
	f.durable = min(f.durable, size)
}

// Close implements wal.File.
func (f *File) Close() error { return nil }

// FailSync makes the next Sync to begin return err, once.
func (f *File) FailSync(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = err
}

// Bytes returns a copy of everything written and not truncated away.
func (f *File) Bytes() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.data...)
}

// Durable returns how many bytes the file held when the last Sync that
// succeeded began: the prefix a crash could not take.
func (f *File) Durable() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.durable
}
