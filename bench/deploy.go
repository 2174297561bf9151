package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/shard"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/wal"
)

// directory is what the driver calls: *core.Suite and *shard.Router
// both satisfy it.
type directory interface {
	Lookup(ctx context.Context, key string) (string, bool, error)
	Insert(ctx context.Context, key, value string) error
	Update(ctx context.Context, key, value string) error
	Delete(ctx context.Context, key string) error
	Scan(ctx context.Context, after string, limit int) ([]core.KV, error)
	Count(ctx context.Context) (int, error)
}

// deployment is one freshly built and preloaded directory with
// everything the traced run reads counters from.
type deployment struct {
	sp  spec
	dir directory

	suites  []*core.Suite
	router  *shard.Router // nil on a single suite
	reps    []*rep.Rep
	servers []*transport.Server
	clients []*transport.Client
	files   []*simFile
	logs    []*tapLog
	members []string // span.member indexes this

	live    atomic.Bool // preload is over: delays are modelled and spans recorded
	rec     *recorder   // nil on an untraced deployment
	deletes deleteStats
	setup   time.Duration
}

// deleteStats is the core.Metrics observer of a traced deployment.
type deleteStats struct {
	deletes, rpcs, steps, ghosts atomic.Int64
}

func (d *deleteStats) ObserveDelete(o core.DeleteObservation) {
	d.deletes.Add(1)
	d.rpcs.Add(int64(o.NeighborRPCs))
	d.steps.Add(int64(o.PredecessorWalkSteps + o.SuccessorWalkSteps))
	d.ghosts.Add(int64(o.GhostDeletions))
}

// keyName is the spelling of key i; keys sort in index order.
func keyName(i int) string { return fmt.Sprintf("k%07d", i) }

// preloadValue is what every key holds before the clients start.
const preloadValue = "v0"

// deploy builds the workload's deployment and preloads it; the time that
// takes is one setup_s sample. With traced set, the span-recording
// wrappers are put at the member, representative and log boundaries.
func deploy(sp spec, keys []string, traced bool) (_ *deployment, err error) {
	start := time.Now()
	d := &deployment{sp: sp}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if traced {
		d.rec = newRecorder(&d.live)
	}
	rtt := modelledDelay{d: sp.rtt, on: &d.live}
	fsync := modelledDelay{d: sp.fsync, on: &d.live}

	for s := 0; s < sp.shards; s++ {
		dirs := make([]rep.Directory, 3)
		for m := range dirs {
			name := fmt.Sprintf("s%d%c", s, 'A'+m)
			idx := uint8(len(d.members))
			d.members = append(d.members, name)

			var log wal.Log = &nullLog{}
			var file *simFile
			if sp.fileLog {
				file = &simFile{fsync: fsync, timed: traced}
				d.files = append(d.files, file)
				log = wal.NewFileLog(file) // SyncOnCommit is its default
			}
			if traced {
				tl := &tapLog{inner: log, file: file, rec: d.rec, buf: d.rec.buf(), member: idx}
				d.logs = append(d.logs, tl)
				log = tl
			}
			r := rep.New(name, rep.WithLog(log))
			d.reps = append(d.reps, r)

			var served rep.Directory = r
			if traced {
				served = &tapDir{inner: r, t: &serverTap{rec: d.rec, buf: d.rec.buf(), member: idx}}
			}
			var conn rep.Directory
			if sp.tcp {
				srv, err := transport.Serve(served, "127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				d.servers = append(d.servers, srv)
				cl, err := transport.Dial(srv.Addr())
				if err != nil {
					return nil, err
				}
				d.clients = append(d.clients, cl)
				conn = cl
			} else {
				conn = transport.NewLocal(served)
			}
			switch {
			case traced:
				conn = &tapDir{inner: conn, t: &clientTap{rec: d.rec, buf: d.rec.buf(), member: idx, rtt: rtt}}
			case sp.rtt > 0:
				conn = &tapDir{inner: conn, t: delayTap{rtt: rtt}}
			}
			dirs[m] = conn
		}
		opts := []core.Option{
			core.WithParallelQuorum(sp.parallel),
			core.WithIDSource(txn.NewIDSource(uint16(s + 1))),
		}
		if traced {
			opts = append(opts, core.WithMetrics(&d.deletes))
		}
		suite, err := core.NewSuite(quorum.NewUniform(dirs, 2, 2), opts...)
		if err != nil {
			return nil, err
		}
		d.suites = append(d.suites, suite)
	}

	d.dir = d.suites[0]
	if sp.shards > 1 {
		splits := make([]string, sp.shards-1)
		for i := range splits {
			splits[i] = keys[(i+1)*len(keys)/sp.shards]
		}
		m, err := shard.NewMap(splits...)
		if err != nil {
			return nil, err
		}
		d.router, err = shard.NewRouter(m, d.suites,
			shard.WithParallelStitch(sp.parallel), shard.WithIDSource(txn.NewIDSource(1000)))
		if err != nil {
			return nil, err
		}
		d.dir = d.router
	}

	if err := d.preload(keys); err != nil {
		return nil, err
	}
	d.setup = time.Since(start)
	return d, nil
}

// preload inserts every key, 128 to a transaction, through the suite that
// owns it, one loader to a suite. Over sockets four loaders share the
// suite, on disjoint runs of keys: that is what keeps two processors
// busy when every call is a message; in process they would only collide.
func (d *deployment) preload(keys []string) error {
	const batch = 128
	loaders := len(d.suites)
	if d.sp.tcp {
		loaders = 4
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		lo, hi := l*len(keys)/loaders, (l+1)*len(keys)/loaders
		suite := d.suites[l*len(d.suites)/loaders]
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for ; lo < hi && errs[l] == nil; lo += batch {
				chunk := keys[lo:min(lo+batch, hi)]
				errs[l] = suite.RunInTxn(ctx, func(tx *core.Tx) error {
					for _, k := range chunk {
						if err := tx.Insert(ctx, k, preloadValue); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// memberCalls is how many calls the representatives have served: the
// paper's messages, counted where they arrive.
func (d *deployment) memberCalls() int64 {
	var n uint64
	for _, r := range d.reps {
		c := r.Counters()
		n += c.Lookups + c.NeighborProbes + c.Inserts + c.Coalesces + c.Prepares + c.Commits + c.Aborts
	}
	return int64(n)
}

// close tears the deployment down and waits for its goroutines.
func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
	}
	for _, s := range d.suites {
		s.Close()
	}
	for _, c := range d.clients {
		c.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
}
