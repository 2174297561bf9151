package main

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// transcript drives n generated requests, plus one of each kind that the
// directory must refuse, through a fresh deployment and returns every
// answer and error as text, with the suite's own counters at the end.
func transcript(t *testing.T, sp spec, traced bool, n int) ([]string, any) {
	t.Helper()
	keys, vals := makeKeys(sp.keys), makeValues()
	d, err := deploy(sp, keys, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.live.Store(true)
	ctx := context.WithValue(context.Background(), opMarkKey{}, &opMark{id: 1})
	st := newStripe(sp, 0)
	var out []string
	note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, o := range makeStream(sp, 42, 0, 0)[:n] {
		o = st.resolve(o)
		key := keys[o.key]
		var err error
		switch o.kind {
		case opLookup:
			v, found, lerr := d.dir.Lookup(ctx, key)
			note("lookup %s = %q %v %v", key, v, found, lerr)
			if err = lerr; err == nil {
				err = st.checkLookup(int(o.key), v, found, vals)
			}
		case opUpdate:
			err = d.dir.Update(ctx, key, vals[o.val])
		case opInsert:
			err = d.dir.Insert(ctx, key, vals[o.val])
		case opDelete:
			err = d.dir.Delete(ctx, key)
		case opScan:
			kvs, serr := d.dir.Scan(ctx, key, sp.scanLimit)
			note("scan %s = %v %v", key, kvs, serr)
			if err = serr; err == nil {
				err = checkScan(key, sp.scanLimit, kvs)
			}
		}
		if err != nil {
			t.Fatalf("%s %s: %v", opNames[o.kind], key, err)
		}
		st.wrote(o)
	}
	note("insert of a present key: %v", d.dir.Insert(ctx, keys[1], "x"))
	note("update of an absent key: %v", d.dir.Update(ctx, "nobody", "x"))
	note("delete of an absent key: %v", d.dir.Delete(ctx, "nobody"))
	count, err := d.dir.Count(ctx)
	note("count = %d %v", count, err)
	if err := checkCount(count, sp.keys, []*stripe{st}); err != nil {
		t.Error(err)
	}
	if traced && len(d.rec.spans()) == 0 {
		t.Error("the traced deployment recorded nothing")
	}
	return out, d.suites[0].Stats()
}

// The wrappers must be invisible to the program: the same requests
// through a plain and a traced deployment give the same answers, the
// same errors and the same counters in core.Suite. One client and a
// sequential quorum make the plain run itself repeatable.
func TestWrappersAreTransparent(t *testing.T) {
	for _, sp := range []spec{
		{name: "local", shards: 1, keys: 400, clients: 1,
			mix: [nOpKinds]int{opLookup: 30, opUpdate: 30, opInsert: 15, opDelete: 15, opScan: 10}, scanLimit: 5},
		{name: "tcp with a file log", shards: 1, tcp: true, fileLog: true, keys: 200, clients: 1,
			mix: [nOpKinds]int{opLookup: 40, opUpdate: 30, opInsert: 15, opDelete: 15}},
	} {
		t.Run(sp.name, func(t *testing.T) {
			plain, plainStats := transcript(t, sp, false, 600)
			traced, tracedStats := transcript(t, sp, true, 600)
			if !reflect.DeepEqual(plain, traced) {
				for i := range plain {
					if i >= len(traced) || plain[i] != traced[i] {
						t.Fatalf("answer %d differs:\nplain:  %s\ntraced: %s", i, plain[i], traced[i])
					}
				}
			}
			if plainStats != tracedStats {
				t.Errorf("Suite.Stats differ:\nplain:  %+v\ntraced: %+v", plainStats, tracedStats)
			}
		})
	}
}
