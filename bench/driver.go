package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one completed request as a client saw it.
type sample struct {
	end    int64  // ns since the block's epoch
	lat    uint32 // ns, saturating
	kind   opKind
	failed bool
}

// client is one closed-loop caller: it sends its next request when the
// previous one has answered.
type client struct {
	id       int
	stream   []op
	stripe   *stripe
	samples  []sample
	issued   atomic.Int64 // requests completed so far
	firstErr error

	mark opMark   // traced deployments only
	buf  *spanBuf // the client's op spans
}

// block is the timed part of one deployment's life.
type block struct {
	d       *deployment
	keys    []string
	vals    []string
	clients []*client
	epoch   time.Time
	stop    atomic.Bool

	window  time.Duration
	windows int

	from, to int64    // the measured interval, ns since epoch
	cpu      [2]int64 // process CPU time at from and to, ns
	msgs     [2]int64 // member calls served so far, at from and to
	mem      [2]runtime.MemStats
	// counts is taken when client 0 completes the workload's countOps-th
	// request; see spec.countOps.
	base, counts counters
	countsTaken  bool
	countErr     error
}

func (b *block) now() int64 { return int64(time.Since(b.epoch)) }

// runBlock drives the deployment: one window's length of warm-up, a
// collection, then the measured windows, then, if asked, Count() against
// what the clients expect. Count walks every key, which takes seconds,
// so a run asks for it once.
func runBlock(d *deployment, keys, vals []string, seed int64, round int, window time.Duration, windows int, count bool) *block {
	b := &block{d: d, keys: keys, vals: vals, window: window, windows: windows}
	stripes := make([]*stripe, d.sp.clients)
	for c := range stripes {
		stripes[c] = newStripe(d.sp, c)
		cl := &client{id: c, stream: makeStream(d.sp, seed, round, c), stripe: stripes[c],
			samples: make([]sample, 0, (1<<20)/d.sp.clients)}
		if d.rec != nil {
			cl.buf = d.rec.buf()
		}
		b.clients = append(b.clients, cl)
	}
	// A request that is still out a while after the block should have
	// ended is cancelled and counts as failed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(windows+1)*window+10*time.Second)
	defer cancel()

	d.live.Store(true)
	b.base = d.counters()
	b.epoch = time.Now()
	if d.rec != nil {
		b.epoch = d.rec.epoch
	}
	var wg sync.WaitGroup
	for _, cl := range b.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			b.run(ctx, cl)
		}(cl)
	}
	time.Sleep(window)
	runtime.GC()
	runtime.ReadMemStats(&b.mem[0])
	b.cpu[0] = cpuTime()
	b.msgs[0] = d.memberCalls()
	b.from = b.now()
	b.to = b.from + int64(time.Duration(windows)*window)
	time.Sleep(time.Duration(b.to - b.now()))
	b.cpu[1] = cpuTime()
	b.msgs[1] = d.memberCalls()
	runtime.ReadMemStats(&b.mem[1])
	b.stop.Store(true)
	wg.Wait()
	if !b.countsTaken {
		b.takeCounts()
	}
	d.live.Store(false)

	if count {
		// Count's own minute: it walks every key, and the block's deadline
		// is a few seconds away by now.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		got, err := d.dir.Count(ctx)
		if err == nil {
			err = checkCount(got, d.sp.keys, stripes)
		}
		b.countErr = err
	}
	return b
}

// run is the timed loop. Everything it does besides the directory call
// is bookkeeping in memory; gen.share reports how much time that takes.
func (b *block) run(ctx context.Context, cl *client) {
	sp := b.d.sp
	dir := b.d.dir
	traced := b.d.rec != nil
	if traced {
		ctx = context.WithValue(ctx, opMarkKey{}, &cl.mark)
	}
	pos := 0
	for seq := int64(1); !b.stop.Load(); seq++ {
		o := cl.stripe.resolve(cl.stream[pos])
		if pos++; pos == len(cl.stream) {
			pos = 0
		}
		key := b.keys[o.key]
		if traced {
			cl.mark.id = uint64(cl.id)<<40 | uint64(seq)
		}
		var err error
		t0 := b.now()
		switch o.kind {
		case opLookup:
			var v string
			var found bool
			v, found, err = dir.Lookup(ctx, key)
			if err == nil {
				err = cl.stripe.checkLookup(int(o.key), v, found, b.vals)
			}
		case opUpdate:
			err = dir.Update(ctx, key, b.vals[o.val])
		case opInsert:
			err = dir.Insert(ctx, key, b.vals[o.val])
		case opDelete:
			err = dir.Delete(ctx, key)
		case opScan:
			kvs, serr := dir.Scan(ctx, key, sp.scanLimit)
			if err = serr; err == nil {
				err = checkScan(key, sp.scanLimit, kvs)
			}
		}
		t1 := b.now()
		if err == nil {
			cl.stripe.wrote(o)
		} else if cl.firstErr == nil {
			cl.firstErr = fmt.Errorf("client %d request %d: %s %s: %w", cl.id, seq, opNames[o.kind], key, err)
		}
		cl.samples = append(cl.samples, sample{end: t1, lat: uint32(min(t1-t0, 1<<32-1)), kind: o.kind, failed: err != nil})
		if traced && cl.mark.hit.Load() {
			cl.mark.hit.Store(false)
			cl.buf.add(span{kind: kindOp, name: uint8(o.kind), op: cl.mark.id, start: t0, mid: t0, end: t1, failed: err != nil})
		}
		cl.issued.Store(seq)
		if cl.id == 0 && seq == int64(sp.countOps) {
			b.takeCounts()
		}
	}
}

// takeCounts snapshots the deployment's counters and how many requests
// all clients have completed.
func (b *block) takeCounts() {
	b.counts = b.d.counters()
	for _, cl := range b.clients {
		b.counts.ops += cl.issued.Load()
	}
	b.countsTaken = true
}

// cpuTime is the process's user plus system time so far, in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
