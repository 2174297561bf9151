package legs

import (
	"sync"
	"testing"
	"time"
)

// parked reports how many workers are parked.
func parked() int {
	mu.Lock()
	defer mu.Unlock()
	return len(idle)
}

// burst runs n legs at once, each blocked until all n have started, and
// returns once every one has run. It fails the test if the idle list
// ever holds more than maxIdle workers meanwhile.
func burst(t *testing.T, n int) {
	t.Helper()
	var started, done sync.WaitGroup
	gate := make(chan struct{})
	started.Add(n)
	done.Add(n)
	fn := func(int) {
		started.Done()
		<-gate
		done.Done()
	}
	for i := 0; i < n; i++ {
		Go(fn, i)
	}
	started.Wait()
	close(gate)
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	for {
		if p := parked(); p > maxIdle {
			t.Fatalf("%d workers parked, want at most %d", p, maxIdle)
		}
		select {
		case <-finished:
			return
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// settle waits for the workers of a burst of at least maxIdle legs to
// park, and fails the test unless exactly maxIdle are parked then.
func settle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parked() < maxIdle && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // the last legs' workers are still parking
	}
	time.Sleep(10 * time.Millisecond) // and any beyond the cap exiting
	if p := parked(); p != maxIdle {
		t.Fatalf("after a burst, %d workers parked, want %d", p, maxIdle)
	}
}

// TestIdleCapped runs bursts of more concurrent legs than the pool parks
// workers: the workers left over exit, and the idle list fills to its
// cap and no further.
func TestIdleCapped(t *testing.T) {
	for round := 0; round < 3; round++ {
		burst(t, 3*maxIdle)
		settle(t)
	}
}

// TestGoNeverWaits occupies every parked worker, and more, with legs
// that block until the test lets them go. Another leg handed to Go must
// still run meanwhile, on a goroutine of its own.
func TestGoNeverWaits(t *testing.T) {
	burst(t, maxIdle) // park workers to occupy
	settle(t)
	gate := make(chan struct{})
	var blocked sync.WaitGroup
	blocked.Add(maxIdle + 1)
	for i := 0; i <= maxIdle; i++ {
		Go(func(int) { blocked.Done(); <-gate }, i)
	}
	blocked.Wait()
	if p := parked(); p != 0 {
		t.Fatalf("%d workers parked while every leg is blocked, want 0", p)
	}
	ran := make(chan int, 1)
	Go(func(i int) { ran <- i }, 7)
	select {
	case i := <-ran:
		if i != 7 {
			t.Fatalf("leg ran with index %d, want 7", i)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a leg handed to Go did not run while every worker was blocked")
	}
	close(gate)
}
