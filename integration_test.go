package repdir

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/wal"
)

// tcpSuite is a full networked deployment for integration tests: three
// representative servers with write-ahead logs, and a suite client
// connected over TCP.
type tcpSuite struct {
	t       *testing.T
	dir     string
	names   []string
	servers []*transport.Server
	logs    []*wal.FileLog
	clients []*transport.Client
	suite   *core.Suite
}

func newTCPSuite(t *testing.T, r, w int) *tcpSuite {
	t.Helper()
	ts := &tcpSuite{
		t:     t,
		dir:   t.TempDir(),
		names: []string{"alpha", "beta", "gamma"},
	}
	ts.servers = make([]*transport.Server, len(ts.names))
	ts.logs = make([]*wal.FileLog, len(ts.names))
	ts.clients = make([]*transport.Client, len(ts.names))
	dirs := make([]rep.Directory, len(ts.names))
	for i := range ts.names {
		ts.startServer(i, "127.0.0.1:0")
		c, err := transport.Dial(ts.servers[i].Addr())
		if err != nil {
			t.Fatal(err)
		}
		ts.clients[i] = c
		dirs[i] = c
	}
	suite, err := core.NewSuite(quorum.NewUniform(dirs, r, w))
	if err != nil {
		t.Fatal(err)
	}
	ts.suite = suite
	t.Cleanup(ts.close)
	return ts
}

// startServer (re)starts representative i, recovering from its WAL.
func (ts *tcpSuite) startServer(i int, addr string) {
	ts.t.Helper()
	walPath := filepath.Join(ts.dir, ts.names[i]+".wal")
	records, _, err := wal.ScanFileLog(walPath)
	if err != nil {
		records = nil
	}
	log, err := wal.OpenFileLog(walPath)
	if err != nil {
		ts.t.Fatal(err)
	}
	r, err := rep.Recover(ts.names[i], records, rep.WithLog(log))
	if err != nil {
		ts.t.Fatal(err)
	}
	srv, err := transport.Serve(r, addr)
	if err != nil {
		ts.t.Fatal(err)
	}
	ts.servers[i] = srv
	ts.logs[i] = log
}

// crash stops representative i's server and closes its log, returning
// the address it listened on.
func (ts *tcpSuite) crash(i int) string {
	ts.t.Helper()
	addr := ts.servers[i].Addr()
	ts.servers[i].Close()
	ts.logs[i].Close()
	return addr
}

func (ts *tcpSuite) close() {
	for i := range ts.servers {
		if ts.clients[i] != nil {
			ts.clients[i].Close()
		}
		if ts.servers[i] != nil {
			ts.servers[i].Close()
		}
		if ts.logs[i] != nil {
			ts.logs[i].Close()
		}
	}
}

func TestIntegrationTCPBasicOps(t *testing.T) {
	ctx := context.Background()
	ts := newTCPSuite(t, 2, 2)
	if err := ts.suite.Insert(ctx, "k1", "v1"); err != nil {
		t.Fatal(err)
	}
	if v, found, err := ts.suite.Lookup(ctx, "k1"); err != nil || !found || v != "v1" {
		t.Fatalf("lookup = %q %v %v", v, found, err)
	}
	if err := ts.suite.Update(ctx, "k1", "v2"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Delete(ctx, "k1"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := ts.suite.Lookup(ctx, "k1"); found {
		t.Fatal("k1 should be deleted")
	}
	if err := ts.suite.Insert(ctx, "k1", "v3"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Insert(ctx, "k1", "v4"); !errors.Is(err, core.ErrKeyExists) {
		t.Fatalf("double insert over TCP = %v", err)
	}
}

func TestIntegrationCrashRecoveryOverTCP(t *testing.T) {
	ctx := context.Background()
	ts := newTCPSuite(t, 2, 2)
	for i := 0; i < 10; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("key-%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Crash alpha; the suite keeps operating on beta+gamma.
	addr := ts.crash(0)
	if err := ts.suite.Delete(ctx, "key-03"); err != nil {
		t.Fatalf("delete during outage: %v", err)
	}
	if err := ts.suite.Insert(ctx, "key-new", "v"); err != nil {
		t.Fatalf("insert during outage: %v", err)
	}
	// Restart alpha from its WAL on the same address; the client redials
	// transparently.
	ts.startServer(0, addr)
	for trial := 0; trial < 12; trial++ {
		if _, found, err := ts.suite.Lookup(ctx, "key-03"); err != nil || found {
			t.Fatalf("key-03 should stay deleted after recovery: %v %v", found, err)
		}
		if _, found, err := ts.suite.Lookup(ctx, "key-new"); err != nil || !found {
			t.Fatalf("key-new should survive: %v %v", found, err)
		}
	}
	// The recovered replica catches up organically: delete key-00 with
	// alpha possibly in quorums, then verify convergence.
	if err := ts.suite.Delete(ctx, "key-00"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := ts.suite.Lookup(ctx, "key-00"); found {
		t.Fatal("key-00 should be deleted")
	}
}

func TestIntegrationConcurrentNetworkClients(t *testing.T) {
	if testing.Short() {
		t.Skip("network load test")
	}
	ctx := context.Background()
	ts := newTCPSuite(t, 2, 2)

	// Each worker gets its own TCP connections and its own suite client,
	// but all share the servers. Distinct node tags keep wait-die
	// timestamps globally consistent.
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			dirs := make([]rep.Directory, len(ts.servers))
			for i, srv := range ts.servers {
				c, err := transport.Dial(srv.Addr())
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				dirs[i] = c
			}
			suite, err := core.NewSuite(quorum.NewUniform(dirs, 2, 2))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 15; i++ {
				key := fmt.Sprintf("w%d-k%d", wkr, i)
				if err := suite.Insert(ctx, key, "v"); err != nil {
					errs <- fmt.Errorf("insert %s: %w", key, err)
					return
				}
				if i%2 == 0 {
					if err := suite.Delete(ctx, key); err != nil {
						errs <- fmt.Errorf("delete %s: %w", key, err)
						return
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Audit final contents through the main client.
	for wkr := 0; wkr < workers; wkr++ {
		for i := 0; i < 15; i++ {
			key := fmt.Sprintf("w%d-k%d", wkr, i)
			_, found, err := ts.suite.Lookup(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if want := i%2 != 0; found != want {
				t.Errorf("%s: found=%v want %v", key, found, want)
			}
		}
	}
}

// TestIntegrationInDoubtResolutionOverTCP simulates a coordinator dying
// between two-phase-commit phases: a transaction is prepared at two
// networked representatives and committed at only one; the second
// representative crashes and recovers IN DOUBT, blocking its key, until
// cooperative termination (txn.Resolve over TCP) finishes the commit.
func TestIntegrationInDoubtResolutionOverTCP(t *testing.T) {
	ctx := context.Background()
	ts := newTCPSuite(t, 2, 2)

	// Drive the transaction manually against two representatives,
	// playing the crashing coordinator.
	const id = 424242
	key := keyspace.New("in-doubt-key")
	for _, i := range []int{0, 1} {
		if err := ts.clients[i].Insert(ctx, id, key, 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := ts.clients[i].Prepare(rep.MarkWriters(ctx, 2), id); err != nil {
			t.Fatal(err)
		}
	}
	// Commit reaches only replica 0; the "coordinator" dies here.
	if err := ts.clients[0].Commit(ctx, id); err != nil {
		t.Fatal(err)
	}
	// Replica 1 crashes and recovers from its WAL: in doubt.
	addr := ts.crash(1)
	ts.startServer(1, addr)
	// The first call after a server bounce may fail on the stale
	// connection; the client redials on the next call.
	st, err := ts.clients[1].Status(ctx, id)
	if err != nil {
		st, err = ts.clients[1].Status(ctx, id)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.Fate() != rep.StatusInDoubt {
		t.Fatalf("recovered replica status = %v, want in-doubt", st)
	}

	// Resolve over the network using all replicas as the candidate set.
	dirs := make([]rep.Directory, len(ts.clients))
	for i, c := range ts.clients {
		dirs[i] = c
	}
	res, err := txn.Resolve(ctx, id, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("resolution must commit: replica 0 holds the commit")
	}
	// Both replicas now agree, and the suite can read the key.
	if v, found, err := ts.suite.Lookup(ctx, "in-doubt-key"); err != nil || !found || v != "v" {
		t.Fatalf("lookup after resolution = %q %v %v", v, found, err)
	}
}

func TestIntegrationTransactionOverTCP(t *testing.T) {
	ctx := context.Background()
	ts := newTCPSuite(t, 2, 2)
	err := ts.suite.RunInTxn(ctx, func(tx *core.Tx) error {
		if err := tx.Insert(ctx, "from", "100"); err != nil {
			return err
		}
		return tx.Insert(ctx, "to", "0")
	})
	if err != nil {
		t.Fatal(err)
	}
	// Transfer atomically.
	err = ts.suite.RunInTxn(ctx, func(tx *core.Tx) error {
		if err := tx.Update(ctx, "from", "60"); err != nil {
			return err
		}
		return tx.Update(ctx, "to", "40")
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := ts.suite.Lookup(ctx, "from"); v != "60" {
		t.Errorf("from = %q", v)
	}
	if v, _, _ := ts.suite.Lookup(ctx, "to"); v != "40" {
		t.Errorf("to = %q", v)
	}
	// A failing transaction leaves both untouched.
	boom := errors.New("boom")
	err = ts.suite.RunInTxn(ctx, func(tx *core.Tx) error {
		if err := tx.Update(ctx, "from", "0"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("txn error = %v", err)
	}
	if v, _, _ := ts.suite.Lookup(ctx, "from"); v != "60" {
		t.Errorf("aborted txn leaked: from = %q", v)
	}
}
