// Membership: a replicated cluster-membership registry built from the
// paper's set abstraction ("Trivial modifications of this algorithm may
// be used to implement sets or similar abstractions", section 1) — the
// classic control-plane job for a replicated directory.
//
// Nodes join and leave atomically (a rolling replacement swaps two
// members in one transaction), membership queries survive a registry
// replica failure, and the full roster is listed with a consistent
// ordered scan.
package main

import (
	"context"
	"fmt"
	"log"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// A 5-replica registry: reads need 3 votes, writes need 3.
	locals := make([]*transport.Local, 5)
	dirs := make([]rep.Directory, 5)
	for i := range dirs {
		locals[i] = transport.NewLocal(rep.New(fmt.Sprintf("registry-%d", i)))
		dirs[i] = locals[i]
	}
	suite, err := core.NewSuite(quorum.NewUniform(dirs, 3, 3))
	if err != nil {
		return err
	}
	members := core.NewSet(suite)

	fmt.Println("== nodes joining ==")
	for _, node := range []string{"node-a", "node-b", "node-c", "node-d"} {
		if err := members.Add(ctx, node); err != nil {
			return fmt.Errorf("join %s: %w", node, err)
		}
		fmt.Println("joined:", node)
	}

	roster, err := suite.Scan(ctx, "", 0)
	if err != nil {
		return err
	}
	fmt.Printf("roster (%d): ", len(roster))
	for _, kv := range roster {
		fmt.Printf("%s ", kv.Key)
	}
	fmt.Println()

	fmt.Println("\n== rolling replacement: node-b out, node-e in, atomically ==")
	err = suite.RunInTxn(ctx, func(tx *core.Tx) error {
		if err := tx.Delete(ctx, "node-b"); err != nil {
			return err
		}
		return tx.Insert(ctx, "node-e", "")
	})
	if err != nil {
		return err
	}
	for _, probe := range []struct {
		node string
		want bool
	}{{"node-b", false}, {"node-e", true}} {
		in, err := members.Contains(ctx, probe.node)
		if err != nil {
			return err
		}
		fmt.Printf("member(%s) = %v\n", probe.node, in)
		if in != probe.want {
			return fmt.Errorf("membership of %s = %v, want %v", probe.node, in, probe.want)
		}
	}

	fmt.Println("\n== two registry replicas fail; membership keeps answering ==")
	locals[0].Partition()
	locals[4].Partition()
	for _, node := range []string{"node-a", "node-b", "node-e"} {
		in, err := members.Contains(ctx, node)
		if err != nil {
			return fmt.Errorf("query during outage: %w", err)
		}
		fmt.Printf("member(%s) = %v\n", node, in)
	}
	if err := members.Add(ctx, "node-f"); err != nil {
		return fmt.Errorf("join during outage: %w", err)
	}
	fmt.Println("node-f joined with two replicas down (3 of 5 votes still form quorums)")

	locals[0].Heal()
	locals[4].Heal()
	roster, err = suite.Scan(ctx, "", 0)
	if err != nil {
		return err
	}
	fmt.Printf("\nfinal roster (%d): ", len(roster))
	for _, kv := range roster {
		fmt.Printf("%s ", kv.Key)
	}
	fmt.Println()
	st := suite.Stats()
	fmt.Printf("suite stats: %d commits, %d retries, %d wait-die aborts, %d replica losses\n",
		st.Commits, st.Retries, st.Dies, st.ReplicaLosses)
	return nil
}
