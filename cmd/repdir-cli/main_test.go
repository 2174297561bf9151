package main

import (
	"strconv"
	"strings"
	"testing"

	"repdir/internal/rep"
	"repdir/internal/transport"
)

// startSuite boots three in-process representative servers and returns
// their address list.
func startSuite(t *testing.T) string {
	t.Helper()
	return strings.Join(startSuiteAddrs(t), ",")
}

func startSuiteAddrs(t *testing.T) []string {
	t.Helper()
	var addrs []string
	for _, name := range []string{"A", "B", "C"} {
		srv, err := transport.Serve(rep.New(name), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return addrs
}

func TestCLIFullFlow(t *testing.T) {
	replicas := startSuite(t)
	base := []string{"-replicas", replicas, "-r", "2", "-w", "2"}
	steps := [][]string{
		append(base, "insert", "host1", "10.0.0.1"),
		append(base, "lookup", "host1"),
		append(base, "update", "host1", "10.0.0.2"),
		append(base, "insert", "host2", "10.0.0.3"),
		append(base, "scan"),
		append(base, "scan", "host1", "1"),
		append(base, "delete", "host1"),
		append(base, "lookup", "host1"),
		append(base, "resolve", "123456"), // nothing in doubt: aborts cleanly
		append(base, "bench", "3"),
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args[len(args)-2:], err)
		}
	}
}

func TestCLIUsageErrors(t *testing.T) {
	replicas := startSuite(t)
	base := []string{"-replicas", replicas}
	bad := [][]string{
		{},
		append(base, "frobnicate"),
		append(base, "lookup"),
		append(base, "insert", "k"),
		append(base, "update", "k"),
		append(base, "delete"),
		append(base, "bench", "zero"),
		append(base, "bench", "-1"),
		append(base, "resolve"),
		append(base, "resolve", "not-a-number"),
		append(base, "scan", "x", "-3"),
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCLIRepair(t *testing.T) {
	addrs := startSuiteAddrs(t)
	replicas := strings.Join(addrs, ",")
	base := []string{"-replicas", replicas}
	for i := 0; i < 3; i++ {
		if err := run(append(base, "insert", "k"+strconv.Itoa(i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(append(base, "repair", addrs[0])); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := run(append(base, "repair")); err == nil {
		t.Error("repair without address should fail")
	}
	if err := run(append(base, "repair", "127.0.0.1:1")); err == nil {
		t.Error("repair of unreachable replica should fail")
	}
}

func TestCLILoad(t *testing.T) {
	replicas := startSuite(t)
	base := []string{"-replicas", replicas}
	if err := run(append(base, "load", "3", "300ms")); err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, bad := range [][]string{
		append(base, "load", "0", "1s"),
		append(base, "load", "2"),
		append(base, "load", "2", "nope"),
	} {
		if err := run(bad); err == nil {
			t.Errorf("run(%v) should fail", bad[len(bad)-2:])
		}
	}
}

// TestCLIReconfig drives the membership verbs end to end over live
// servers: init the record, add a fourth member and a witness, show,
// reweight, remove — and verify data operations keep working through
// every epoch (the client adopts the record instead of being fenced).
func TestCLIReconfig(t *testing.T) {
	addrs := startSuiteAddrs(t)
	base := []string{"-replicas", strings.Join(addrs, ","), "-r", "2", "-w", "2"}

	srvD, err := transport.Serve(rep.New("D"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvD.Close() })
	srvW, err := transport.Serve(rep.New("W", rep.AsWitness()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvW.Close() })

	steps := [][]string{
		append(base, "insert", "host1", "10.0.0.1"),
		append(base, "reconfig", "show"), // no record yet: informational, not an error
		append(base, "reconfig", "init"),
		append(base, "lookup", "host1"), // epoch-1 cluster still serves adopted clients
		append(base, "reconfig", "add", srvD.Addr(), "1", "2", "3"),
		append(base, "insert", "host2", "10.0.0.2"),
		append(base, "reconfig", "add", srvW.Addr(), "1", "2", "4", "witness"),
		append(base, "reconfig", "show"),
		append(base, "lookup", "host2"),
		append(base, "reconfig", "reweight", "A", "2", "3", "4"),
		append(base, "reconfig", "remove", "D", "2", "4"),
		append(base, "reconfig", "finish"), // nothing pending: idempotent
		append(base, "scan"),
		append(base, "delete", "host1"),
	}
	for i, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("step %d run(%v): %v", i, args[len(base):], err)
		}
	}

	for _, bad := range [][]string{
		append(base, "reconfig"),
		append(base, "reconfig", "frobnicate"),
		append(base, "reconfig", "add", "127.0.0.1:1", "1", "2", "2"),
		append(base, "reconfig", "add", srvD.Addr(), "zero", "2", "2"),
		append(base, "reconfig", "remove", "nobody", "2", "2"),
		append(base, "reconfig", "reweight", "A", "2", "0", "2"),
	} {
		if err := run(bad); err == nil {
			t.Errorf("run(%v) should fail", bad[len(base):])
		}
	}
}

func TestCLIErrorsWhenNoServer(t *testing.T) {
	err := run([]string{"-replicas", "127.0.0.1:1", "lookup", "x"})
	if err == nil {
		t.Error("unreachable replicas should fail")
	}
}

func TestCLISemanticErrorsSurface(t *testing.T) {
	replicas := startSuite(t)
	base := []string{"-replicas", replicas}
	if err := run(append(base, "insert", "dup", "v")); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "insert", "dup", "v")); err == nil {
		t.Error("duplicate insert should surface ErrKeyExists")
	}
	if err := run(append(base, "update", "ghost-key", "v")); err == nil {
		t.Error("update of missing key should surface ErrKeyNotFound")
	}
	if err := run(append(base, "delete", "ghost-key")); err == nil {
		t.Error("delete of missing key should surface ErrKeyNotFound")
	}
}

// TestCLIReleasesBeforeExit: a scan returns before the round that
// releases its read locks has been answered, and a point write before its
// commit round has, so a CLI that hung up its connections as soon as it
// had printed would leave locks held at the servers, and a write's
// members in doubt. Each invocation must be over, locks released and
// writes committed, when run returns — sharded or not, with -parallel at
// its default.
func TestCLIReleasesBeforeExit(t *testing.T) {
	var reps []*rep.Rep
	var groups []string
	for g := 0; g < 2; g++ {
		var addrs []string
		for _, name := range []string{"A", "B", "C"} {
			r := rep.New(name + strconv.Itoa(g))
			srv, err := transport.Serve(r, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			reps = append(reps, r)
			addrs = append(addrs, srv.Addr())
		}
		groups = append(groups, strings.Join(addrs, ","))
	}
	for _, base := range [][]string{
		{"-replicas", groups[0]},
		{"-replicas", strings.Join(groups, ";"), "-splits", "m"},
	} {
		key := "k" + strconv.Itoa(len(base))
		for _, args := range [][]string{
			append(base, "insert", key, "v"),
			append(base, "update", key, "v2"),
			append(base, "scan"),
			append(base, "scan", "", "1"),
			append(base, "delete", key),
		} {
			if err := run(args); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
			for _, r := range reps {
				if n := r.Locks().ActiveTransactions(); n != 0 {
					t.Errorf("after %v: %s still holds locks for %d transactions", args[len(base):], r.Name(), n)
				}
				if ids := r.InDoubt(); len(ids) != 0 {
					t.Errorf("after %v: %s is in doubt about %v", args[len(base):], r.Name(), ids)
				}
			}
		}
	}
}
