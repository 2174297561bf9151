package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repdir/internal/wal"
)

// runTraced is the separate traced run. It drives the same requests
// twice: through a plain deployment, which gives the process's own
// costs and the untraced throughput, and through a deployment with the
// span-recording wrappers in place, which gives everything else. The
// difference in throughput between the two is the tracer's overhead.
func runTraced(sp spec, seed int64, seconds int, dir string) (result, error) {
	keys, vals := makeKeys(sp.keys), makeValues()
	window, windows := shape(seconds)
	res := result{Correct: true}

	var host settler
	host.settle()
	plain, err := deploy(sp, keys, false)
	if err != nil {
		return res, err
	}
	pb := runBlock(plain, keys, vals, seed, 0, window, windows, false)
	plain.close()
	pw := windowsOf(pb)
	res.tally(pb, pw)
	res.checkDelayDominated(pb)
	plainOps := res.Attempted

	host.settle()
	traced, err := deploy(sp, keys, true)
	if err != nil {
		return res, err
	}
	tb := runBlock(traced, keys, vals, seed, 0, window, 2*windows, true)
	entries := 0
	for _, r := range traced.reps {
		entries += r.Len()
	}
	traced.close()
	tw := windowsOf(tb)
	res.tally(tb, tw)

	spans := traced.rec.spans()
	parent := link(spans)
	if err := writeTrace(filepath.Join(dir, "trace-"+sp.name+".jsonl"), traced, spans, parent); err != nil {
		return res, err
	}
	// Times come from the operations that ran wholly inside the measured
	// windows; counts from each client's first countOps operations,
	// which are the same operations on every run of one seed.
	timed := summarize(spans, parent, func(op span) bool { return op.start >= tb.from && op.end < tb.to })
	counted := summarize(spans, parent, func(op span) bool { return op.op&(1<<40-1) <= uint64(sp.countOps) })
	for _, bad := range timed.identities(int64(sp.rtt)) {
		fmt.Fprintf(os.Stderr, "bench: identity broken: %s\n", bad)
		res.Correct = false
	}
	if timed.ops == 0 || counted.ops == 0 {
		return res, fmt.Errorf("%s: the trace holds no complete operation", sp.name)
	}

	c := tb.counts
	perOp := func(now, base int64) float64 { return float64(now-base) / float64(c.ops) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	b0 := tb.base
	plainSecs := float64(pb.to-pb.from) / 1e9
	throughput := func(w windowStats) float64 { return w.throughput }

	values := map[string]float64{
		"op.write_p50_us":  medianOver(pw, func(w windowStats) float64 { return w.writeP50 }),
		"op.delete_p50_us": medianOver(pw, func(w windowStats) float64 { return w.p50[opDelete] }),
		"op.scan_p50_us":   medianOver(pw, func(w windowStats) float64 { return w.p50[opScan] }),

		"core.self_us_per_op":           float64(timed.selfNs) / 1e3 / float64(timed.ops),
		"core.rounds_per_op":            float64(counted.rounds) / float64(counted.ops),
		"core.retries_per_op":           perOp(c.retries, b0.retries),
		"core.dies_per_op":              perOp(c.dies, b0.dies),
		"core.neighbor_rpcs_per_delete": ratio(float64(c.nbrRPCs-b0.nbrRPCs), float64(c.deletes-b0.deletes)),
		"core.walk_steps_per_delete":    ratio(float64(c.walkSteps-b0.walkSteps), float64(c.deletes-b0.deletes)),
		"core.ghosts_per_delete":        ratio(float64(c.ghost-b0.ghost), float64(c.deletes-b0.deletes)),

		// A point operation touches one suite and goes through no router
		// transaction; the router counts only its own.
		"shard.suites_per_op":     1 + perOp(c.suitesTouched-c.routerOps, b0.suitesTouched-b0.routerOps),
		"shard.cross_shard_share": perOp(c.crossShard, b0.crossShard),
		"shard.retries_per_op":    perOp(c.routerRetries, b0.routerRetries),

		"transport.call_us_p50":       percentile(timed.wireUs, 0.50),
		"transport.call_us_p95":       percentile(timed.wireUs, 0.95),
		"transport.delay_us_per_call": float64(timed.delayNs) / 1e3 / float64(timed.nCalls),
		"transport.self_us_per_call":  float64(timed.callNs-timed.delayNs-timed.serveNs) / 1e3 / float64(timed.nCalls),
		"transport.frames_per_op":     perOp(c.frames, b0.frames),
		"transport.msgs_per_frame":    ratio(float64(c.msgs-b0.msgs), float64(c.frames-b0.frames)),
		"transport.wire_bytes_per_op": perOp(c.wireBytes, b0.wireBytes),
		"transport.shed_per_op":       perOp(c.shed, b0.shed),
		"transport.expired_per_op":    perOp(c.expired, b0.expired),

		"rep.read_us_per_call":  ratio(float64(timed.classNs[classRead])/1e3, float64(timed.classN[classRead])),
		"rep.write_us_per_call": ratio(float64(timed.classNs[classWrite])/1e3, float64(timed.classN[classWrite])),
		"rep.twopc_us_per_call": ratio(float64(timed.classNs[classTwoPC])/1e3, float64(timed.classN[classTwoPC])),
		"rep.busy_us_per_op": float64(timed.classNs[classRead]+timed.classNs[classWrite]+timed.classNs[classTwoPC]) /
			1e3 / float64(timed.ops),
		"rep.entries": float64(entries) / float64(len(traced.reps)),

		"lock.grants_per_op": perOp(c.grants, b0.grants),
		"lock.waits_per_op":  perOp(c.waits, b0.waits),
		"lock.dies_per_op":   perOp(c.lockDies, b0.lockDies),

		"wal.appends_per_op":      perOp(c.appends, b0.appends),
		"wal.append_us_p50":       percentile(timed.walUs, 0.50),
		"wal.queue_us_per_append": ratio(float64(timed.walQueue)/1e3, float64(len(timed.walUs))),
		"wal.syncs_per_op":        perOp(c.syncs, b0.syncs),
		"wal.sync_us_per_op":      perOp(c.syncNs, b0.syncNs) / 1e3,
		"wal.bytes_per_op":        perOp(c.walBytes, b0.walBytes),

		"proc.cpu_us_per_op":      float64(pb.cpu[1]-pb.cpu[0]) / 1e3 / float64(plainOps),
		"proc.busy_cores":         pb.busyCores(),
		"proc.alloc_bytes_per_op": float64(pb.mem[1].TotalAlloc-pb.mem[0].TotalAlloc) / float64(plainOps),
		"proc.gc_cycles_per_s":    float64(pb.mem[1].NumGC-pb.mem[0].NumGC) / plainSecs,
		"proc.live_heap_mb":       float64(pb.mem[0].HeapAlloc) / (1 << 20),

		"gen.share":            pb.genShare(),
		"trace.overhead_share": 1 - medianOver(tw, throughput)/medianOver(pw, throughput),
	}
	if slept, stated := values["transport.delay_us_per_call"], float64(sp.rtt)/1e3; slept > 1.5*stated {
		fmt.Fprintf(os.Stderr, "bench: warning: the host slept %.0f us for a stated round trip of %.0f us; latencies are not rounds x RTT\n", slept, stated)
	}
	if over := values["trace.overhead_share"]; over > 0.10 {
		fmt.Fprintf(os.Stderr, "bench: warning: the traced deployment was %.2f slower than the plain one; its times include the tracer\n", over)
	}
	for m := mLookup; m <= mAbort; m++ {
		values["core.calls_per_op."+methodNames[m]] = float64(counted.calls[m]) / float64(counted.ops)
	}
	// A latency of a kind of request the workload does not send, or of a
	// log it does not write, is reported as 0.
	for name, v := range values {
		if math.IsNaN(v) {
			values[name] = 0
		}
	}
	res.finish(perLayer, values)
	return res, nil
}

// writeTrace writes one JSON object per span: its id and its parent's,
// what recorded it, where, under which transaction and operation, and
// its times in microseconds since the deployment was built.
func writeTrace(path string, d *deployment, spans []span, parent []int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	us := func(b []byte, key string, ns int64) []byte {
		b = append(b, key...)
		return strconv.AppendFloat(b, float64(ns)/1e3, 'f', 3, 64)
	}
	var line []byte
	for i, s := range spans {
		var name string
		switch s.kind {
		case kindOp:
			name = opNames[s.name]
		case kindWAL:
			name = wal.Kind(s.name).String()
		default:
			name = methodNames[s.name]
		}
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(parent[i]), 10)
		line = append(line, `,"kind":"`...)
		line = append(line, kindNames[s.kind]...)
		line = append(line, `","name":"`...)
		line = append(line, name...)
		line = append(line, '"')
		if s.kind != kindOp {
			line = append(line, `,"member":"`...)
			line = append(line, d.members[s.member]...)
			line = append(line, `","txn":`...)
			line = strconv.AppendUint(line, s.txn, 10)
		}
		if s.kind == kindOp || s.kind == kindCall {
			line = append(line, `,"op":`...)
			line = strconv.AppendUint(line, s.op, 10)
		}
		line = us(line, `,"start_us":`, s.start)
		switch s.kind {
		case kindCall:
			line = us(line, `,"sent_us":`, s.mid)
		case kindWAL:
			line = us(line, `,"granted_us":`, s.mid)
			line = us(line, `,"write_us":`, s.writeNs)
			line = us(line, `,"sync_us":`, s.syncNs)
		}
		line = us(line, `,"end_us":`, s.end)
		if s.failed {
			line = append(line, `,"failed":true`...)
		}
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
