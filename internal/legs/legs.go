// Package legs runs the concurrent calls of a round — its legs — on
// goroutines parked between rounds: a leg starts on a stack earlier legs
// grew, in a goroutine that has the timer the runtime makes at its first
// sleep, and handing it over allocates nothing. Go never waits for a
// worker, so a leg blocked on a lock holds none another round needs.
package legs

import "sync"

// maxIdle caps the parked workers, which live as long as the process:
// one that finishes a leg with this many parked already exits.
const maxIdle = 128

// leg is one call handed to a worker: fn(i).
type leg struct {
	fn func(int)
	i  int
}

var (
	mu   sync.Mutex
	idle []chan leg // each parked worker's own; the last to park goes first
)

// Go runs fn(i) on a parked worker, or on a goroutine of its own when
// none is parked, and returns without waiting for it.
func Go(fn func(int), i int) {
	mu.Lock()
	if n := len(idle); n > 0 {
		next := idle[n-1]
		idle[n-1], idle = nil, idle[:n-1]
		mu.Unlock()
		next <- leg{fn, i}
		return
	}
	mu.Unlock()
	go work(leg{fn, i}, make(chan leg, 1))
}

// work runs l, then parks on next and runs each leg handed to it there,
// until it finishes one with maxIdle workers parked.
func work(l leg, next chan leg) {
	for {
		l.fn(l.i)
		mu.Lock()
		if len(idle) >= maxIdle {
			mu.Unlock()
			return
		}
		idle = append(idle, next)
		mu.Unlock()
		l = <-next
	}
}
