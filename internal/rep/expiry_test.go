package rep

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestExpiryKeepsAnOpenChannel: an Expiry that went Idle with its channel
// open serves the next call with the same channel, its timer re-armed for
// the new deadline — the earlier deadline ends nothing — and one that a
// deadline or End closed makes a fresh channel for the next call.
func TestExpiryKeepsAnOpenChannel(t *testing.T) {
	var e Expiry
	e.Set(time.Now().Add(20 * time.Millisecond))
	first := e.Done()
	e.Idle()
	e.Set(time.Now().Add(time.Hour))
	if e.Done() != first {
		t.Fatal("Set after Idle made a new channel for an open one")
	}
	time.Sleep(40 * time.Millisecond) // past the first call's deadline
	select {
	case <-first:
		t.Fatal("the first call's deadline ended the second call")
	default:
	}
	if err := e.Err(); err != nil {
		t.Fatalf("Err = %v with an hour to go", err)
	}

	e.Idle()
	e.Set(time.Now().Add(5 * time.Millisecond))
	select {
	case <-e.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the re-armed timer never fired")
	}
	if err := e.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v after the deadline, want DeadlineExceeded", err)
	}

	e.Set(time.Now().Add(time.Hour))
	if e.Done() == first || e.Err() != nil {
		t.Fatal("Set after a deadline kept the closed channel")
	}
	e.End(context.Canceled)
	e.Set(time.Now().Add(time.Hour))
	if e.Armed() || e.Err() != nil {
		t.Fatal("Set after End kept the closed channel")
	}
}
