package main

import (
	"testing"

	"repdir/internal/wal"
)

func TestCoveredIsUnionOfChildren(t *testing.T) {
	op := interval{100, 200}
	for _, c := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 30},
		{"overlapping count once", []interval{{110, 140}, {120, 150}}, 40},
		{"nested", []interval{{110, 190}, {120, 130}}, 80},
		{"unsorted", []interval{{150, 160}, {110, 120}}, 20},
		{"clipped to the parent", []interval{{50, 110}, {190, 300}}, 20},
		{"outside", []interval{{0, 50}, {250, 300}}, 0},
	} {
		if got := covered(op, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
		if got, want := uncovered(op, c.ivs), op.end-op.start-c.want; got != want {
			t.Errorf("%s: uncovered = %d, want %d", c.name, got, want)
		}
	}
}

func TestRoundsAreGroupsOfOverlappingCalls(t *testing.T) {
	for _, c := range []struct {
		name string
		ivs  []interval
		want int
	}{
		{"none", nil, 0},
		{"one", []interval{{0, 10}}, 1},
		{"two in parallel", []interval{{0, 10}, {1, 9}}, 1},
		{"two in sequence", []interval{{0, 10}, {10, 20}}, 2},
		{"chain of overlaps is one round", []interval{{0, 10}, {5, 15}, {12, 20}}, 1},
		{"lookup round, insert round, prepare, commit", []interval{{0, 10}, {1, 11}, {12, 20}, {12, 21}, {25, 30}, {26, 31}, {40, 50}, {40, 51}}, 4},
	} {
		if got := rounds(c.ivs); got != c.want {
			t.Errorf("%s: rounds = %d, want %d", c.name, got, c.want)
		}
	}
}

// traceOfOneUpdate is an update as the wrappers would record it: a lookup
// round and an insert round to members 0 and 1 in parallel, then a
// commit to member 0 alone with two appends inside; plus the spans of
// an operation that must not be counted.
func traceOfOneUpdate() []span {
	const txn = 77 << 18
	call := func(m method, member uint8, start, mid, end int64) span {
		return span{kind: kindCall, name: uint8(m), member: member, op: 1, txn: txn, start: start, mid: mid, end: end}
	}
	serve := func(m method, member uint8, start, end int64) span {
		return span{kind: kindServe, name: uint8(m), member: member, txn: txn, start: start, mid: start, end: end}
	}
	return []span{
		// Children are listed before their parents on purpose.
		{kind: kindWAL, name: uint8(wal.KindInsert), member: 0, txn: txn, start: 2120, mid: 2125, end: 2140, writeNs: 10},
		{kind: kindWAL, name: uint8(wal.KindCommit), member: 0, txn: txn, start: 2140, mid: 2140, end: 2190, writeNs: 5, syncNs: 40},
		serve(mLookup, 0, 1110, 1130), serve(mLookup, 1, 1115, 1150),
		serve(mInsert, 0, 1410, 1440), serve(mInsert, 1, 1410, 1420),
		serve(mCommit, 0, 2110, 2195),
		call(mLookup, 0, 1000, 1100, 1140), call(mLookup, 1, 1005, 1105, 1160),
		call(mInsert, 0, 1300, 1400, 1450), call(mInsert, 1, 1300, 1400, 1430),
		call(mCommit, 0, 2000, 2100, 2200),
		{kind: kindOp, name: uint8(opUpdate), op: 1, start: 900, mid: 900, end: 2300},

		{kind: kindOp, name: uint8(opLookup), op: 2, start: 5000, mid: 5000, end: 6000},
		{kind: kindCall, name: uint8(mLookup), member: 0, op: 2, txn: 78 << 18, start: 5000, mid: 5100, end: 5900},
		// A serve span with no call around it: a preload leftover.
		{kind: kindServe, name: uint8(mLookup), member: 2, txn: txn, start: 10, mid: 10, end: 20},
	}
}

func TestSummarizeSelfTimeRoundsAndJoins(t *testing.T) {
	spans := traceOfOneUpdate()
	parent := link(spans)
	sums := summarize(spans, parent, func(op span) bool { return op.op == 1 })

	if sums.ops != 1 || sums.opNs != 1400 {
		t.Fatalf("ops %d, op time %d; want 1 and 1400", sums.ops, sums.opNs)
	}
	// Calls cover [1000,1160] + [1300,1450] + [2000,2200] = 510.
	if sums.coverNs != 510 || sums.selfNs != 890 {
		t.Errorf("covered %d self %d, want 510 and 890", sums.coverNs, sums.selfNs)
	}
	if sums.rounds != 3 {
		t.Errorf("rounds %d, want 3", sums.rounds)
	}
	if sums.nCalls != 5 || sums.calls[mLookup] != 2 || sums.calls[mInsert] != 2 || sums.calls[mCommit] != 1 {
		t.Errorf("calls %v", sums.calls)
	}
	if sums.delayNs != 500 {
		t.Errorf("modelled round trips %d ns, want 500", sums.delayNs)
	}
	if sums.served != 5 {
		t.Errorf("%d serve spans joined to calls, want 5 (the preload leftover has none)", sums.served)
	}
	// Serve time 20+35 read, 30+10 write, 85 commit less 70 of appends.
	if sums.classNs != [3]int64{55, 40, 15} || sums.classN != [3]int{2, 2, 1} {
		t.Errorf("serve time by class %v over %v calls, want [55 40 15] over [2 2 1]", sums.classNs, sums.classN)
	}
	if len(sums.walUs) != 2 || sums.walQueue != 5 || sums.walFile != 55 || sums.walMin != 5 {
		t.Errorf("wal: %d appends, queue %d, file %d, least self %d; want 2, 5, 55, 5",
			len(sums.walUs), sums.walQueue, sums.walFile, sums.walMin)
	}
	if bad := sums.identities(100); bad != nil {
		t.Errorf("identities broken on a consistent trace: %v", bad)
	}

	// A stated round trip of 150 when 100 was slept, a serve span gone
	// missing, file time beyond the append: each must be reported. A sleep
	// that ran long is the host's doing and breaks nothing.
	if bad := sums.identities(150); len(bad) != 1 {
		t.Errorf("a round trip shorter than stated must break one identity, got %v", bad)
	}
	if bad := sums.identities(60); bad != nil {
		t.Errorf("a round trip longer than stated broke an identity: %v", bad)
	}
	spans[1].syncNs = 400
	spans[2].member = 9
	sums = summarize(spans, link(spans), func(op span) bool { return op.op == 1 })
	if bad := sums.identities(100); len(bad) != 2 {
		t.Errorf("want the transport join and the wal identity reported, got %v", bad)
	}
}
