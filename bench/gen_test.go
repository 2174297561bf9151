package main

import (
	"reflect"
	"testing"
)

func TestStreamsDependOnSeedRoundAndClientOnly(t *testing.T) {
	sp := specs[0]
	a := makeStream(sp, 7, 1, 3)
	if !reflect.DeepEqual(a, makeStream(sp, 7, 1, 3)) {
		t.Fatal("the same (seed, round, client) gave two different streams")
	}
	for _, other := range [][]op{makeStream(sp, 8, 1, 3), makeStream(sp, 7, 2, 3), makeStream(sp, 7, 1, 4)} {
		if reflect.DeepEqual(a, other) {
			t.Fatal("changing the seed, the round or the client left the stream unchanged")
		}
	}
}

// Every workload's stream holds its mix exactly, reads range over the
// whole key space, and updates stay on the client's own stable keys.
func TestStreamsHoldTheMix(t *testing.T) {
	for _, sp := range specs {
		for client := 0; client < sp.clients; client += max(1, sp.clients-1) {
			stream := makeStream(sp, 1, 0, client)
			var n [nOpKinds]int
			for _, o := range stream[:len(stream)/100*100] {
				n[o.kind]++
				switch o.kind {
				case opUpdate:
					if sp.owner(int(o.key)) != client || sp.isChurn(int(o.key)) {
						t.Fatalf("%s client %d: update of key %d, which is not one of its stable keys", sp.name, client, o.key)
					}
				case opLookup, opScan:
					if int(o.key) >= sp.keys {
						t.Fatalf("%s: key %d out of range", sp.name, o.key)
					}
				}
			}
			for k, share := range sp.mix {
				if want := len(stream) / 100 * share; n[k] != want {
					t.Errorf("%s client %d: %d %s requests, want %d", sp.name, client, n[k], opNames[k], want)
				}
			}
		}
	}
}

// However long a client runs, an insert goes to an absent key of its own
// and a delete to a present one, so no request can fail for being out of
// turn, and the model knows how many keys are live.
func TestResolveKeepsRequestsValid(t *testing.T) {
	sp := specs[0]
	st := newStripe(sp, 5)
	stream := makeStream(sp, 3, 0, 5)
	present := make(map[uint32]bool)
	for i := 0; i < sp.keys; i++ {
		present[uint32(i)] = true
	}
	for n := 0; n < 3*len(stream); n++ {
		o := st.resolve(stream[n%len(stream)])
		switch o.kind {
		case opInsert:
			if present[o.key] || !sp.isChurn(int(o.key)) || sp.owner(int(o.key)) != 5 {
				t.Fatalf("request %d: insert of key %d", n, o.key)
			}
			present[o.key] = true
		case opDelete:
			if !present[o.key] || !sp.isChurn(int(o.key)) || sp.owner(int(o.key)) != 5 {
				t.Fatalf("request %d: delete of key %d", n, o.key)
			}
			delete(present, o.key)
		}
		st.wrote(o)
	}
	if got, want := st.absentKeys(), sp.keys-len(present); got != want {
		t.Errorf("the stripe thinks %d keys are absent, %d are", got, want)
	}
}

// Two clients' churn keys are never adjacent, for any client count in use.
func TestChurnKeysAreNotNeighbours(t *testing.T) {
	for _, sp := range specs {
		if !sp.churns() {
			continue
		}
		for i := 0; i+1 < 10_000; i++ {
			if sp.isChurn(i) && sp.isChurn(i+1) {
				t.Fatalf("%s: keys %d and %d both churn", sp.name, i, i+1)
			}
		}
	}
}
