package core

import (
	"context"
	"testing"
	"time"
)

func TestBackoffRespectsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	// Attempt high enough to hit the 2ms cap; a cancelled context must
	// return without serving the wait.
	Backoff(ctx, 1000)
	if elapsed := time.Since(start); elapsed > time.Millisecond {
		t.Errorf("backoff slept %v despite cancelled context", elapsed)
	}
}

func TestBackoffCapsDelay(t *testing.T) {
	start := time.Now()
	Backoff(context.Background(), 1000)
	elapsed := time.Since(start)
	if elapsed < 2*time.Millisecond {
		t.Errorf("backoff returned after %v, want >= 2ms cap", elapsed)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("backoff took %v, cap not applied", elapsed)
	}
}
