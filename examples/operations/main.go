// Operations: the runbook walkthrough. A durable 3-2-2 deployment
// (write-ahead logs, compacted by checkpoints) is driven through the
// incidents an operator actually faces:
//
//  1. a replica crashes and recovers its committed state from disk;
//  2. the recovered replica is brought fully current with a repair pass;
//  3. a client "coordinator" dies between two-phase-commit phases,
//     leaving a replica in doubt, and cooperative termination finishes
//     the transaction.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/txn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// node bundles one representative's disk paths and live handles.
type node struct {
	name       string
	walPath    string
	durability *rep.Durability
	server     *transport.Server
	client     *transport.Client
}

// start (re)opens the durable representative and serves it.
func (n *node) start(addr string) error {
	r, d, err := rep.OpenDurable(n.name, n.walPath)
	if err != nil {
		return err
	}
	n.durability = d
	n.server, err = transport.Serve(r, addr)
	return err
}

// crash stops the server and closes the log; volatile state is lost.
func (n *node) crash() string {
	addr := n.server.Addr()
	n.server.Close()
	n.durability.Close()
	return addr
}

func run() error {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "repdir-operations-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Boot three durable representatives.
	nodes := make([]*node, 3)
	dirs := make([]rep.Directory, 3)
	for i, name := range []string{"r1", "r2", "r3"} {
		nodes[i] = &node{name: name, walPath: filepath.Join(dir, name+".wal")}
		if err := nodes[i].start("127.0.0.1:0"); err != nil {
			return err
		}
		defer nodes[i].server.Close()
		defer nodes[i].durability.Close()
		c, err := transport.Dial(nodes[i].server.Addr())
		if err != nil {
			return err
		}
		defer c.Close()
		nodes[i].client = c
		dirs[i] = c
	}
	suite, err := core.NewSuite(quorum.NewUniform(dirs, 2, 2), core.WithParallelQuorum(true))
	if err != nil {
		return err
	}
	// A write returns at its commit point, before its commit round has
	// landed: Close waits for those rounds before the connections go.
	defer suite.Close()

	fmt.Println("== normal operation: writes, a checkpoint, more writes ==")
	for i := 0; i < 6; i++ {
		if err := suite.Insert(ctx, fmt.Sprintf("cfg/%02d", i), "v1"); err != nil {
			return err
		}
	}
	// Checkpoint a member no commit is still on its way to.
	if err := suite.Drain(ctx); err != nil {
		return err
	}
	if err := nodes[0].durability.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint r1: %w", err)
	}
	fmt.Println("checkpointed r1 (log compacted to its state)")
	for i := 6; i < 10; i++ {
		if err := suite.Insert(ctx, fmt.Sprintf("cfg/%02d", i), "v1"); err != nil {
			return err
		}
	}

	fmt.Println("\n== incident 1: r1 crashes; the suite runs on; r1 recovers from disk ==")
	// Crash it between writes: one whose commit round it missed would come
	// back in doubt, its keys locked until resolved (incident 3).
	if err := suite.Drain(ctx); err != nil {
		return err
	}
	addr := nodes[0].crash()
	if err := suite.Update(ctx, "cfg/03", "v2-during-outage"); err != nil {
		return fmt.Errorf("update during outage: %w", err)
	}
	if err := nodes[0].start(addr); err != nil {
		return err
	}
	fmt.Println("r1 recovered (compacted log replayed); suite kept serving meanwhile")

	fmt.Println("\n== incident 2: repair brings r1 current again ==")
	stats, err := core.RepairReplica(ctx, suite, nodes[0].client, core.RepairOptions{})
	if err != nil {
		// The first call after a bounce may hit the stale connection.
		stats, err = core.RepairReplica(ctx, suite, nodes[0].client, core.RepairOptions{})
	}
	if err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	fmt.Printf("repair: %d scanned, %d copied, %d freshened, %d gap segments\n",
		stats.Scanned, stats.Copied, stats.Freshened, stats.Gaps)

	fmt.Println("\n== incident 3: a coordinator dies between 2PC phases ==")
	// Play a crashing coordinator by hand: prepare at r2 and r3, each
	// prepare naming the transaction's two writers, commit only at r2,
	// then vanish.
	const orphan = lock.TxnID(77 << 18)
	for _, i := range []int{1, 2} {
		if err := nodes[i].client.Insert(ctx, orphan, keyspace.New("cfg/orphan"), 1, "paid"); err != nil {
			return err
		}
		if err := nodes[i].client.Prepare(rep.MarkWriters(ctx, 2), orphan); err != nil {
			return err
		}
	}
	if err := nodes[1].client.Commit(ctx, orphan); err != nil {
		return err
	}
	// r3 crashes and recovers: the transaction comes back IN DOUBT,
	// its key locked.
	addr = nodes[2].crash()
	if err := nodes[2].start(addr); err != nil {
		return err
	}
	st, err := nodes[2].client.Status(ctx, orphan)
	if err != nil {
		st, err = nodes[2].client.Status(ctx, orphan)
	}
	if err != nil {
		return err
	}
	fmt.Printf("r3 reports transaction %d: %s\n", orphan, st)

	resolution, err := txn.Resolve(ctx, orphan, dirs)
	if err != nil {
		return fmt.Errorf("resolve: %w", err)
	}
	outcome := "aborted"
	if resolution.Committed {
		outcome = "committed"
	}
	fmt.Printf("cooperative termination: %s (finished at %v)\n", outcome, resolution.Finished)
	if v, found, err := suite.Lookup(ctx, "cfg/orphan"); err != nil || !found || v != "paid" {
		return fmt.Errorf("orphan entry after resolution: %q %v %v", v, found, err)
	}
	fmt.Println("cfg/orphan readable everywhere — atomicity preserved across the coordinator crash")

	fmt.Println("\n== final state (reverse scan of the last 5 entries) ==")
	entries, err := suite.ScanReverse(ctx, "", 5)
	if err != nil {
		return err
	}
	for _, kv := range entries {
		fmt.Printf("  %s = %s\n", kv.Key, kv.Value)
	}
	return nil
}
