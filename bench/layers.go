package main

import (
	"fmt"
	"sort"
	"strconv"

	"repdir/internal/transport"
)

// counters is a snapshot of every count the program and the bench's own
// wrappers keep; per-operation metrics are differences of two snapshots
// over the requests completed between them.
type counters struct {
	ops int64 // requests completed by all clients

	retries, dies                      int64 // core.Suite.Stats, summed over suites
	routerOps, suitesTouched           int64 // shard.Router.Stats: transactions, shards they touched
	crossShard, routerRetries          int64
	frames, msgs, wireBytes            int64 // transport.WireStats of the clients, both directions
	shed, expired                      int64 // transport.AdmissionStats of the servers
	grants, waits, lockDies            int64 // lock.Manager.Stats, summed over representatives
	appends                            int64 // tapLog
	syncs, syncNs, walBytes            int64 // simFile
	deletes, nbrRPCs, walkSteps, ghost int64 // core.Metrics
}

func (d *deployment) counters() counters {
	var c counters
	for _, s := range d.suites {
		st := s.Stats()
		c.retries += int64(st.Retries)
		c.dies += int64(st.Dies)
	}
	if d.router != nil {
		st := d.router.Stats()
		for n, count := range st.Fanout {
			shards, _ := strconv.Atoi(n)
			c.routerOps += int64(count)
			c.suitesTouched += int64(count) * int64(shards)
		}
		c.crossShard = int64(st.CrossShard)
		c.routerRetries = int64(st.Retries)
	}
	for _, cl := range d.clients {
		for _, w := range []transport.WireSnapshot{cl.WireStats().Sent(), cl.WireStats().Recv()} {
			c.frames += int64(w.Frames)
			c.wireBytes += int64(w.Bytes)
			c.msgs += int64(w.Msgs)
		}
	}
	for _, s := range d.servers {
		a := s.AdmissionStats()
		c.shed += int64(a.Shed)
		c.expired += int64(a.Expired)
	}
	for _, r := range d.reps {
		st := r.Locks().Stats()
		c.grants += int64(st.Grants)
		c.waits += int64(st.Waits)
		c.lockDies += int64(st.Dies)
	}
	for _, l := range d.logs {
		c.appends += l.appends.Load()
	}
	for _, f := range d.files {
		c.syncs += f.syncs.Load()
		c.syncNs += f.syncNs.Load()
		c.walBytes += f.bytes.Load()
	}
	c.deletes = d.deletes.deletes.Load()
	c.nbrRPCs = d.deletes.rpcs.Load()
	c.walkSteps = d.deletes.steps.Load()
	c.ghost = d.deletes.ghosts.Load()
	return c
}

// interval is a half-open stretch of time.
type interval struct{ start, end int64 }

// covered is the length of the union of ivs clipped to within; it sorts
// ivs by start.
func covered(within interval, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	at := within.start
	for _, iv := range ivs {
		s, e := max(iv.start, at), min(iv.end, within.end)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// uncovered is the length of within outside every one of ivs: the sum of
// the gaps they leave. It is added up on its own, not taken as within
// less covered, so that the two making up the whole is a check on both.
// It sorts ivs by start.
func uncovered(within interval, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	at := within.start
	for _, iv := range ivs {
		if at >= within.end {
			return total
		}
		if iv.start > at {
			total += min(iv.start, within.end) - at
		}
		at = max(at, iv.end)
	}
	return total + max(within.end-at, 0)
}

// rounds is the number of maximal groups of overlapping intervals: calls
// that overlap went out together, groups follow one another. It sorts
// ivs by start.
func rounds(ivs []interval) int {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	n := 0
	var end int64
	for i, iv := range ivs {
		if i == 0 || iv.start >= end {
			n++
			end = iv.end
		} else if iv.end > end {
			end = iv.end
		}
	}
	return n
}

// link finds every span's parent: a call's is the operation whose id
// its context carried; a serve span's is the call to the same member
// under the same transaction that contains it in time (from the moment
// the modelled round trip ended); a wal span's is the serve span that
// contains it likewise. -1 where there is none.
func link(spans []span) []int {
	type memberTxn struct {
		member uint8
		txn    uint64
	}
	parent := make([]int, len(spans))
	ops := make(map[uint64]int)
	calls := make(map[memberTxn][]int)
	serves := make(map[memberTxn][]int)
	for i, s := range spans {
		switch s.kind {
		case kindOp:
			ops[s.op] = i
		case kindCall:
			calls[memberTxn{s.member, s.txn}] = append(calls[memberTxn{s.member, s.txn}], i)
		case kindServe:
			serves[memberTxn{s.member, s.txn}] = append(serves[memberTxn{s.member, s.txn}], i)
		}
	}
	around := func(candidates []int, s span, from func(span) int64) int {
		for _, c := range candidates {
			if from(spans[c]) <= s.start && s.end <= spans[c].end {
				return c
			}
		}
		return -1
	}
	for i, s := range spans {
		parent[i] = -1
		switch s.kind {
		case kindCall:
			if p, ok := ops[s.op]; ok {
				parent[i] = p
			}
		case kindServe:
			parent[i] = around(calls[memberTxn{s.member, s.txn}], s, func(c span) int64 { return c.mid })
		case kindWAL:
			parent[i] = around(serves[memberTxn{s.member, s.txn}], s, func(c span) int64 { return c.start })
		}
	}
	return parent
}

// traceSums is what the spans of a set of operations add up to.
type traceSums struct {
	ops     int
	opNs    int64 // total time of the operations
	selfNs  int64 // of it, outside every member call
	coverNs int64 // of it, inside at least one
	rounds  int

	calls   [nMethods]int
	nCalls  int
	callNs  int64     // member calls, modelled round trip included
	delayNs int64     // of it, the modelled round trip as slept
	wireUs  []float64 // each call without it

	served  int      // serve spans found inside a call
	serveNs int64    // their time
	classNs [3]int64 // the same less the wal spans inside, by class
	classN  [3]int

	walUs    []float64 // each append
	walQueue int64     // waiting for the log
	walFile  int64     // inside File.Write and File.Sync
	walMin   int64     // smallest (append - queue - file) of one append
}

// Classes of serve spans.
const (
	classRead = iota
	classWrite
	classTwoPC
)

func classOf(m method) int {
	switch m {
	case mLookup, mNeighbor:
		return classRead
	case mInsert, mCoalesce:
		return classWrite
	default:
		return classTwoPC
	}
}

// summarize adds up the spans under the operations keep admits.
func summarize(spans []span, parent []int, keep func(op span) bool) traceSums {
	t := traceSums{walMin: 1 << 62}
	kept := make([]bool, len(spans))
	children := make(map[int][]interval)
	// Parents come before children in kind order, not in slice order, so
	// one pass per kind.
	for kind := kindOp; kind <= kindWAL; kind++ {
		for i, s := range spans {
			if s.kind != kind {
				continue
			}
			p := parent[i]
			if kind == kindOp {
				kept[i] = keep(s)
				continue
			}
			if p < 0 || !kept[p] {
				continue
			}
			kept[i] = true
			switch kind {
			case kindCall:
				children[p] = append(children[p], interval{s.start, s.end})
				t.calls[s.name]++
				t.nCalls++
				t.callNs += s.end - s.start
				t.delayNs += s.mid - s.start
				t.wireUs = append(t.wireUs, float64(s.end-s.mid)/1e3)
			case kindServe:
				c := classOf(method(s.name))
				t.served++
				t.serveNs += s.end - s.start
				t.classNs[c] += s.end - s.start
				t.classN[c]++
			case kindWAL:
				t.classNs[classOf(method(spans[p].name))] -= s.end - s.start
				t.walUs = append(t.walUs, float64(s.end-s.start)/1e3)
				t.walQueue += s.mid - s.start
				t.walFile += s.writeNs + s.syncNs
				t.walMin = min(t.walMin, s.end-s.mid-s.writeNs-s.syncNs)
			}
		}
	}
	for i, s := range spans {
		if s.kind != kindOp || !kept[i] {
			continue
		}
		t.ops++
		t.opNs += s.end - s.start
		t.coverNs += covered(interval{s.start, s.end}, children[i])
		t.selfNs += uncovered(interval{s.start, s.end}, children[i])
		t.rounds += rounds(children[i])
	}
	return t
}

// identities checks that the parts add up to the whole; each failure is
// one line.
func (t traceSums) identities(rtt int64) []string {
	var bad []string
	if t.selfNs+t.coverNs != t.opNs {
		bad = append(bad, fmt.Sprintf("core: self %d + covered %d != op time %d ns", t.selfNs, t.coverNs, t.opNs))
	}
	if nCalls := t.nCalls; nCalls > 0 {
		// A sleep may run long (the traced run reports by how much) but
		// never short: then the wrapper did not model the round trip.
		if t.delayNs < int64(nCalls)*rtt {
			bad = append(bad, fmt.Sprintf("transport: %d calls slept %d ns in all, stated %d ns each", nCalls, t.delayNs, rtt))
		}
		if t.served*100 < nCalls*99 {
			bad = append(bad, fmt.Sprintf("transport: %d of %d member calls have a serve span inside them", t.served, nCalls))
		}
	}
	if len(t.walUs) > 0 && t.walMin < 0 {
		bad = append(bad, fmt.Sprintf("wal: an append's file time exceeds the append by %d ns", -t.walMin))
	}
	return bad
}
