package main

import (
	"fmt"
	"math/rand"

	"repdir/internal/core"
)

// An op is one pre-generated request. Inserts and deletes carry no key:
// the client takes it from its own queues when it gets there (see
// stripe), which keeps every request valid however often the stream
// wraps.
type op struct {
	kind opKind
	val  uint16 // index into the value pool, for writes
	key  uint32
}

const (
	churnEvery  = 8    // one stripe key in churnEvery is inserted and deleted; the rest are only updated
	valuePool   = 4096 // distinct values written
	streamTotal = 1 << 18
)

// Key i belongs to client i % clients and is number i / clients in that
// client's stripe. A workload without inserts and deletes has no churn
// keys. Which stripe positions churn depends on the client, so that two
// clients' churn keys are never neighbours: a delete locks the range
// between the key's neighbours, and neighbouring churn keys would make
// the clients' deletes collide by construction.
func (sp spec) churns() bool        { return sp.mix[opInsert]+sp.mix[opDelete] > 0 }
func (sp spec) owner(i int) int     { return i % sp.clients }
func (sp spec) stripeLen(c int) int { return (sp.keys - c + sp.clients - 1) / sp.clients }
func (sp spec) isChurn(i int) bool  { return sp.churnAt(i%sp.clients, i/sp.clients) }
func (sp spec) churnAt(c, j int) bool {
	// Even residues only: neighbouring clients differ by two, and the
	// last client's position plus one is odd, so never the first one's.
	return sp.churns() && j%churnEvery == 2*c%churnEvery
}

// makeKeys and makeValues build the strings once per run, so that the
// timed loop formats nothing.
func makeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyName(i)
	}
	return keys
}

func makeValues() []string {
	vals := make([]string, valuePool)
	for i := range vals {
		vals[i] = fmt.Sprintf("value-%04d-of-the-pool", i)
	}
	return vals
}

// clientSeed derives a client's generator from (seed, round, client) and
// nothing else.
func clientSeed(seed int64, round, client int) int64 {
	return seed*1_000_003 + int64(round)*1_009 + int64(client)
}

// makeStream generates one client's requests. Reads draw from the whole
// key space, uniformly or with the workload's skew; updates draw from
// the client's own stable keys.
func makeStream(sp spec, seed int64, round, client int) []op {
	r := rand.New(rand.NewSource(clientSeed(seed, round, client)))
	var zipf *rand.Zipf
	if sp.zipf > 0 {
		zipf = rand.NewZipf(r, sp.zipf, 1, uint64(sp.keys-1))
	}
	anyKey := func() uint32 {
		if zipf == nil {
			return uint32(r.Intn(sp.keys))
		}
		// Ranks are scattered over the key space by a multiplier
		// coprime to it, so the hot keys are not all in one shard.
		return uint32(zipf.Uint64() * 1_000_003 % uint64(sp.keys))
	}
	stripe := sp.stripeLen(client)
	ownStable := func() uint32 {
		j := r.Intn(stripe)
		if sp.churnAt(client, j) {
			if j++; j >= stripe {
				j -= 2
			}
		}
		return uint32(j*sp.clients + client)
	}

	// Kinds are dealt from a deck that holds the mix in lowest terms and
	// is reshuffled when it runs out. A client sends few requests in a
	// one-second window when each takes milliseconds; drawing every kind
	// independently would let the windows' mixes, and with them their
	// throughput, differ by far more than the program does.
	var deck []opKind
	div := 100
	for _, share := range sp.mix {
		div = gcd(div, share)
	}
	for kind, share := range sp.mix {
		for n := 0; n < share/div; n++ {
			deck = append(deck, opKind(kind))
		}
	}

	stream := make([]op, streamTotal/sp.clients)
	for i := range stream {
		if at := i % len(deck); at == 0 {
			r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		kind := deck[i%len(deck)]
		o := op{kind: kind, val: uint16(r.Intn(valuePool))}
		switch kind {
		case opLookup, opScan:
			o.key = anyKey()
		case opUpdate:
			o.key = ownStable()
		}
		stream[i] = o
	}
	return stream
}

// stripe is what a client knows about the keys it owns: nobody else
// writes them, so it knows the answer to every read of them.
type stripe struct {
	sp     spec
	client int
	// held[j] is the value-pool index key j of the stripe holds, or one
	// of the two markers.
	held []int32
	// Churn keys wait in these queues: a delete takes the key longest
	// present, an insert the key longest absent. When a queue is empty
	// the request turns into the other kind, so the live count stays
	// within one queue's length of where it started.
	present, absent fifo
}

const (
	heldAbsent  int32 = -1
	heldPreload int32 = -2
)

func newStripe(sp spec, client int) *stripe {
	s := &stripe{sp: sp, client: client, held: make([]int32, sp.stripeLen(client))}
	// Each client starts its queue in a different part of the key space.
	first := len(s.held) * client / sp.clients
	for n := range s.held {
		j := (first + n) % len(s.held)
		s.held[j] = heldPreload
		if sp.churnAt(client, j) {
			s.present.push(uint32(j))
		}
	}
	return s
}

// resolve turns a generated request into the one to send: it picks the
// key of an insert or delete and may swap the two.
func (s *stripe) resolve(o op) op {
	switch o.kind {
	case opInsert:
		if s.absent.len() == 0 {
			o.kind = opDelete
		}
	case opDelete:
		if s.present.len() == 0 {
			o.kind = opInsert
		}
	default:
		return o
	}
	if o.kind == opInsert {
		o.key = s.absent.peek()
	} else {
		o.key = s.present.peek()
	}
	o.key = o.key*uint32(s.sp.clients) + uint32(s.client)
	return o
}

// wrote records a write the directory acknowledged.
func (s *stripe) wrote(o op) {
	j := int(o.key) / s.sp.clients
	switch o.kind {
	case opUpdate:
		s.held[j] = int32(o.val)
	case opInsert:
		s.held[j] = int32(o.val)
		s.present.push(s.absent.pop())
	case opDelete:
		s.held[j] = heldAbsent
		s.absent.push(s.present.pop())
	}
}

// absentKeys is how many of the stripe's keys are deleted right now.
func (s *stripe) absentKeys() int { return s.absent.len() }

// checkLookup judges the answer to a lookup of key i. A key of the
// client's own stripe must hold exactly what the client last wrote; a
// key nobody deletes must be found; another client's churn key may be
// either.
func (s *stripe) checkLookup(i int, value string, found bool, vals []string) error {
	if s.sp.owner(i) != s.client {
		if !found && !s.sp.isChurn(i) {
			return fmt.Errorf("lookup %s: not found, but nobody deletes it", keyName(i))
		}
		return nil
	}
	want := s.held[i/s.sp.clients]
	switch {
	case want == heldAbsent:
		if found {
			return fmt.Errorf("lookup %s: found %q after its delete", keyName(i), value)
		}
	case !found:
		return fmt.Errorf("lookup %s: not found, want a value", keyName(i))
	case want == heldPreload && value != preloadValue:
		return fmt.Errorf("lookup %s: got %q, want the preloaded %q", keyName(i), value, preloadValue)
	case want >= 0 && value != vals[want]:
		return fmt.Errorf("lookup %s: got %q, want the last write %q", keyName(i), value, vals[want])
	}
	return nil
}

// checkScan judges the answer to Scan(after, limit): at most limit
// entries, all after the start key, strictly ascending.
func checkScan(after string, limit int, kvs []core.KV) error {
	if len(kvs) > limit {
		return fmt.Errorf("scan after %s: %d entries, limit %d", after, len(kvs), limit)
	}
	prev := after
	for _, kv := range kvs {
		if kv.Key <= prev {
			return fmt.Errorf("scan after %s: %s follows %s", after, kv.Key, prev)
		}
		prev = kv.Key
	}
	return nil
}

// checkCount judges Count() at the end of a block against the keys the
// clients know to be live.
func checkCount(got, keys int, stripes []*stripe) error {
	want := keys
	for _, s := range stripes {
		want -= s.absentKeys()
	}
	if got != want {
		return fmt.Errorf("count: got %d, want %d live keys", got, want)
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// fifo is a queue of stripe indexes.
type fifo struct {
	q    []uint32
	head int
}

func (f *fifo) len() int      { return len(f.q) - f.head }
func (f *fifo) peek() uint32  { return f.q[f.head] }
func (f *fifo) push(v uint32) { f.q = append(f.q, v) }
func (f *fifo) pop() uint32 {
	v := f.q[f.head]
	f.head++
	if f.head > 1024 && f.head*2 > len(f.q) {
		f.q = append(f.q[:0], f.q[f.head:]...)
		f.head = 0
	}
	return v
}
