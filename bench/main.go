// Command bench is the repository's benchmark: it builds one workload's
// deployment, drives it with closed-loop clients, checks every answer,
// and prints the metrics BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload lan-point --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -agree A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// rounds is how many fresh deployments an untraced run spreads its
// windows over; each is one setup_s sample.
const runRounds = 3

// result is the line the run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed of the request streams")
	seconds := flag.Int("seconds", 15, "seconds measured, over all rounds")
	trace := flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics")
	traceDir := flag.String("tracedir", "bench/out", "where the traced run writes trace-<workload>.jsonl")
	out := flag.String("out", "", "append the result, with workload and seed, to this file (input of -agree)")
	agree := flag.Bool("agree", false, "compare two files written with -out: bench -agree A.jsonl B.jsonl")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fatal("usage: bench -agree A.jsonl B.jsonl")
		}
		ok, err := agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	sp, ok := specByName(*workload)
	if !ok {
		fatal("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	// As many processors as the workload states, whatever the host has,
	// so that numbers from different hosts differ by their speed and
	// not their width.
	runtime.GOMAXPROCS(sp.procs)

	var res result
	var err error
	if *trace == 0 {
		res, err = runPlain(sp, *seed, *seconds)
	} else {
		res, err = runTraced(sp, *seed, *seconds, *traceDir)
	}
	if err != nil {
		fatal("%v", err)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: sp.name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fatal("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// shape turns -seconds into windows: one-second windows, the same number
// in each of the run's rounds; below one second a round, the window
// shrinks instead. A block warms up for one window's length.
func shape(seconds int) (window time.Duration, windows int) {
	if windows = seconds / runRounds; windows > 0 {
		return time.Second, windows
	}
	return time.Duration(seconds) * time.Second / runRounds, 1
}

// tally folds one block into the run's result and reports what went
// wrong in it on standard error.
func (r *result) tally(b *block, ws []windowStats) {
	for _, w := range ws {
		r.Attempted += w.ok + w.failed
		r.Failed += w.failed
	}
	for _, cl := range b.clients {
		if cl.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", cl.firstErr)
		}
	}
	if b.countErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", b.countErr)
		r.Correct = false
	}
}

// busyCores is the processor time the measured interval used per second
// of it. A workload that models remote replicas must stay well under a
// core, or its latencies are no longer made of delay.
func (b *block) busyCores() float64 {
	return float64(b.cpu[1]-b.cpu[0]) / float64(b.to-b.from)
}

// genShare is the share of the measured interval the clients spent
// between one directory call and the next: generating nothing, but
// resolving requests, checking answers and keeping samples.
func (b *block) genShare() float64 {
	var out int64
	for _, cl := range b.clients {
		var prev int64
		for _, s := range cl.samples {
			if lo, hi := max(prev, b.from), min(s.end-int64(s.lat), b.to); hi > lo {
				out += hi - lo
			}
			prev = s.end
		}
	}
	return float64(out) / float64(int64(len(b.clients))*(b.to-b.from))
}

// checkDelayDominated fails the run if a block kept more than half a
// processor busy: the numbers must stay made of stated delay.
func (r *result) checkDelayDominated(b *block) {
	if busy := b.busyCores(); busy > 0.5 {
		fmt.Fprintf(os.Stderr, "bench: %s kept %.2f cores busy; it must stay under 0.5 to be delay-dominated\n", b.d.sp.name, busy)
		r.Correct = false
	}
}

// A settler holds a deployment back while the host does not keep time.
// Every workload's time is made of stated sleeps, and this host has
// minutes in which a stated millisecond takes two to four (NOISE.md):
// what is measured then is the host. Before each deployment the median
// of a hundred one-millisecond sleeps must be under a millisecond and a
// half; while it is not, the run waits, 90 s in all at most, so that a
// host that is always like that still gets its run.
type settler struct{ waited time.Duration }

func (s *settler) settle() (slept time.Duration) {
	const (
		limit = 1500 * time.Microsecond
		pause = 5 * time.Second
		most  = 90 * time.Second
	)
	for {
		took := make([]float64, 100)
		for i := range took {
			t0 := time.Now()
			time.Sleep(time.Millisecond)
			took[i] = float64(time.Since(t0))
		}
		slept = time.Duration(median(took))
		if slept < limit || s.waited >= most {
			return slept
		}
		fmt.Fprintf(os.Stderr, "bench: the host sleeps %v for a stated 1ms; waiting for it to settle\n", slept)
		time.Sleep(pause)
		s.waited += pause
	}
}

// runPlain is the untraced run: the end-to-end metrics as medians over
// the windows of three fresh deployments.
func runPlain(sp spec, seed int64, seconds int) (result, error) {
	keys, vals := makeKeys(sp.keys), makeValues()
	window, windows := shape(seconds)
	res := result{Correct: true}
	var all []windowStats
	var setups []float64
	var msgs, allocs int64
	var host settler
	for round := 0; round < runRounds; round++ {
		slept := host.settle()
		d, err := deploy(sp, keys, false)
		if err != nil {
			return res, err
		}
		b := runBlock(d, keys, vals, seed, round, window, windows, round == runRounds-1)
		d.close()
		ws := windowsOf(b)
		res.tally(b, ws)
		res.checkDelayDominated(b)
		all = append(all, ws...)
		setups = append(setups, d.setup.Seconds())
		msgs += b.msgs[1] - b.msgs[0]
		allocs += int64(b.mem[1].Mallocs - b.mem[0].Mallocs)
		fmt.Fprintf(os.Stderr, "bench: %s round %d: 1ms sleeps %v, setup %.2fs, %.2f cores busy, driver share %.4f\n",
			sp.name, round, slept, d.setup.Seconds(), b.busyCores(), b.genShare())
		for i, w := range ws {
			fmt.Fprintf(os.Stderr, "bench:   window %d: %.0f ops/s, lookup p50 %.1f us, p95 %.1f us\n",
				i, w.throughput, w.p50[opLookup], w.p95)
		}
	}
	values := map[string]float64{
		"throughput_ops_s": medianOver(all, func(w windowStats) float64 { return w.throughput }),
		"lookup_p50_us":    medianOver(all, func(w windowStats) float64 { return w.p50[opLookup] }),
		"p95_us":           medianOver(all, func(w windowStats) float64 { return w.p95 }),
		"msgs_per_op":      float64(msgs) / float64(res.Attempted),
		"allocs_per_op":    float64(allocs) / float64(res.Attempted),
		"setup_s":          median(setups),
	}
	res.finish(endToEnd, values)
	return res, nil
}

// finish fills in the metrics the manifest lists, in its units, and
// settles correctness: no failed request and every metric a number.
func (r *result) finish(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s has no value\n", def.name)
			r.Correct = false
			v = 0
		}
		r.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	if r.Failed > 0 || r.Attempted == 0 {
		r.Correct = false
	}
}
