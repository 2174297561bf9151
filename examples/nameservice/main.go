// Nameservice: a replicated host -> address naming directory — the kind
// of system directory the paper's introduction motivates — running over
// TCP with write-ahead-logged representatives.
//
// The example starts three representative servers, registers a fleet of
// hosts, then crashes one replica mid-run: reads and writes keep
// succeeding against the surviving quorum. The crashed replica is then
// recovered from its write-ahead log and rejoins; stale answers it may
// hold are outvoted by version numbers.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

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
	dir, err := os.MkdirTemp("", "repdir-nameservice-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Start three representative servers, each with its own WAL.
	names := []string{"ns-east", "ns-west", "ns-central"}
	servers := make([]*transport.Server, len(names))
	logs := make([]*rep.Durability, len(names))
	for i, n := range names {
		r, l, err := rep.OpenDurable(n, filepath.Join(dir, n+".wal"))
		if err != nil {
			return err
		}
		logs[i] = l
		servers[i], err = transport.Serve(r, "127.0.0.1:0")
		if err != nil {
			return err
		}
		fmt.Printf("started %s on %s\n", n, servers[i].Addr())
	}
	defer func() {
		for i := range servers {
			if servers[i] != nil {
				servers[i].Close()
			}
			logs[i].Close()
		}
	}()

	// Connect a suite client: 3 replicas, read quorum 2, write quorum 2.
	clients := make([]rep.Directory, len(servers))
	for i, s := range servers {
		c, err := transport.Dial(s.Addr())
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}
	suite, err := core.NewSuite(quorum.NewUniform(clients, 2, 2))
	if err != nil {
		return err
	}

	// Register a fleet.
	fmt.Println("\n== registering hosts ==")
	hosts := map[string]string{
		"db-1.example.com":    "10.0.0.11",
		"db-2.example.com":    "10.0.0.12",
		"web-1.example.com":   "10.0.1.21",
		"web-2.example.com":   "10.0.1.22",
		"cache-1.example.com": "10.0.2.31",
	}
	for h, addr := range hosts {
		if err := suite.Insert(ctx, h, addr); err != nil {
			return fmt.Errorf("register %s: %w", h, err)
		}
	}
	fmt.Printf("registered %d hosts\n", len(hosts))

	// Crash one replica.
	fmt.Println("\n== crashing ns-east ==")
	servers[0].Close()
	servers[0] = nil

	// The service keeps working on the surviving quorum.
	if addr, found, err := suite.Lookup(ctx, "db-1.example.com"); err != nil || !found {
		return fmt.Errorf("lookup during outage: found=%v err=%w", found, err)
	} else {
		fmt.Println("lookup db-1.example.com ->", addr)
	}
	if err := suite.Update(ctx, "web-1.example.com", "10.0.1.99"); err != nil {
		return fmt.Errorf("update during outage: %w", err)
	}
	if err := suite.Delete(ctx, "cache-1.example.com"); err != nil {
		return fmt.Errorf("delete during outage: %w", err)
	}
	if err := suite.Insert(ctx, "cache-2.example.com", "10.0.2.32"); err != nil {
		return fmt.Errorf("insert during outage: %w", err)
	}
	fmt.Println("update/delete/insert all succeeded with one replica down")

	// Recover the crashed replica from its write-ahead log and rebind.
	fmt.Println("\n== recovering ns-east from its write-ahead log ==")
	logs[0].Close()
	r0, l0, err := rep.OpenDurable("ns-east", filepath.Join(dir, "ns-east.wal"))
	if err != nil {
		return err
	}
	logs[0] = l0
	servers[0], err = transport.Serve(r0, "127.0.0.1:0")
	if err != nil {
		return err
	}
	c0, err := transport.Dial(servers[0].Addr())
	if err != nil {
		return err
	}
	defer c0.Close()
	fmt.Printf("ns-east recovered with %d entries (its state predates the outage)\n", r0.Len())

	// Rebuild the suite including the recovered (stale) replica.
	clients[0] = c0
	suite, err = core.NewSuite(quorum.NewUniform(clients, 2, 2))
	if err != nil {
		return err
	}
	checks := []struct {
		host  string
		want  string
		found bool
	}{
		{"web-1.example.com", "10.0.1.99", true}, // updated during outage
		{"cache-1.example.com", "", false},       // deleted during outage
		{"cache-2.example.com", "10.0.2.32", true},
		{"db-2.example.com", "10.0.0.12", true},
	}
	for _, c := range checks {
		for trial := 0; trial < 6; trial++ { // exercise varied quorums
			addr, found, err := suite.Lookup(ctx, c.host)
			if err != nil {
				return err
			}
			if found != c.found || (found && addr != c.want) {
				return fmt.Errorf("stale replica influenced %s: got (%q,%v), want (%q,%v)",
					c.host, addr, found, c.want, c.found)
			}
		}
	}
	fmt.Println("all lookups correct with the stale replica back in rotation:")
	fmt.Println("  version numbers on entries and gaps outvote its stale state")
	return nil
}
