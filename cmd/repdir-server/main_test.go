package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/wal"
)

func TestBuildRepVolatile(t *testing.T) {
	r, d, err := buildRep("vol", "", wal.SyncOnCommit, rep.RecoverStrict, false)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Error("volatile rep should have no durability manager")
	}
	if r.Len() != 2 {
		t.Errorf("fresh rep should hold sentinels only, got %d", r.Len())
	}
}

func TestBuildRepRecoversFromWAL(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "rep.wal")

	// First life: write one committed entry and checkpoint.
	r1, d1, err := buildRep("persist", walPath, wal.SyncOnCommit, rep.RecoverStrict, false)
	if err != nil {
		t.Fatal(err)
	}
	id := lock.TxnID(1)
	if err := r1.Insert(ctx, id, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r1.Commit(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := d1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	// Second life: the entry survives in the compacted log.
	r2, d2, err := buildRep("persist", walPath, wal.SyncOnCommit, rep.RecoverStrict, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	res, err := r2.Lookup(ctx, 2, keyspace.New("k"))
	if err != nil || !res.Found || res.Value != "v" {
		t.Fatalf("recovered lookup = %+v, %v", res, err)
	}
	r2.Commit(ctx, 2)
}

func TestBuildRepWitnessDurable(t *testing.T) {
	ctx := context.Background()
	walPath := filepath.Join(t.TempDir(), "w.wal")

	r1, d1, err := buildRep("W", walPath, wal.SyncOnCommit, rep.RecoverStrict, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Witness() {
		t.Fatal("witness build should produce a witness rep")
	}
	id := lock.TxnID(1)
	if err := r1.Insert(ctx, id, keyspace.New("k"), 1, "secret"); err != nil {
		t.Fatal(err)
	}
	if err := r1.Commit(ctx, id); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	// Second life: still a witness, version recovered, value blanked —
	// the WAL itself must never have carried the value.
	r2, d2, err := buildRep("W", walPath, wal.SyncOnCommit, rep.RecoverStrict, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !r2.Witness() {
		t.Error("recovered rep should still be a witness")
	}
	res, err := r2.Lookup(ctx, 2, keyspace.New("k"))
	if err != nil || !res.Found {
		t.Fatalf("recovered witness lookup = %+v, %v", res, err)
	}
	if res.Value != "" {
		t.Errorf("witness stored a value across recovery: %q", res.Value)
	}
	if res.Version != 1 {
		t.Errorf("witness version = %d, want 1", res.Version)
	}
	r2.Commit(ctx, 2)
}

// salvagedMetrics opens, under -recovery salvage, a log whose last
// record was torn mid-append, and renders what -obs.addr would serve.
func salvagedMetrics(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	walPath := filepath.Join(t.TempDir(), "A.wal")
	r1, d1, err := buildRep("A", walPath, wal.SyncOnCommit, rep.RecoverStrict, false)
	if err != nil {
		t.Fatal(err)
	}
	for id, k := range []string{"a", "b"} {
		if err := r1.Insert(ctx, lock.TxnID(id+1), keyspace.New(k), 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := r1.Commit(ctx, lock.TxnID(id+1)); err != nil {
			t.Fatal(err)
		}
	}
	d1.Close()
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	policy, err := rep.ParseRecoveryPolicy("salvage")
	if err != nil {
		t.Fatal(err)
	}
	r2, d2, err := buildRep("A", walPath, wal.SyncOnCommit, policy, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	if d2.Recovery().Salvage == nil {
		t.Fatal("the torn tail was not salvaged")
	}
	var out strings.Builder
	if err := metricsRegistry([]*rep.Rep{r2}, []*rep.Durability{d2}, nil, []string{"A"}).WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestSalvageCountsOnMetrics: a log whose last record was torn
// mid-append, opened under -recovery salvage with -obs.addr set, shows
// the salvage on the metrics endpoint's storage counters.
func TestSalvageCountsOnMetrics(t *testing.T) {
	out := salvagedMetrics(t)
	if !strings.Contains(out, "\nrepdir_storage_salvages_total 1\n") {
		t.Errorf("metrics lack repdir_storage_salvages_total 1:\n%s", out)
	}
}

// TestMetricsFamilies pins the families the server exports: each one is
// fed by something the server runs.
func TestMetricsFamilies(t *testing.T) {
	var got []string
	for _, line := range strings.Split(salvagedMetrics(t), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			got = append(got, f[2])
		}
	}
	slices.Sort(got)
	want := []string{
		"repdir_admission_total",
		"repdir_rep_ops_total",
		"repdir_storage_quarantined_bytes_total",
		"repdir_storage_rebuilds_total",
		"repdir_storage_salvaged_records_total",
		"repdir_storage_salvages_total",
		"repdir_wire_batch_size",
		"repdir_wire_bytes_total",
		"repdir_wire_frame_bytes",
		"repdir_wire_frames_total",
		"repdir_wire_messages_total",
	}
	if !slices.Equal(got, want) {
		t.Errorf("metric families = %v, want %v", got, want)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-checkpoint", "5m"}); err == nil {
		t.Error("-checkpoint without -wal should fail")
	}
	if err := run([]string{"-name", "A", "-addr", "127.0.0.1:0", "-witness", "Z"}); err == nil {
		t.Error("-witness naming a rep not in -name should fail")
	}
	if err := run([]string{"-recovery", "optimistic"}); err == nil {
		t.Error("unknown -recovery policy should fail")
	}
}

func TestBuildRepRejectsBadPath(t *testing.T) {
	if _, _, err := buildRep("x", t.TempDir(), wal.SyncOnCommit, rep.RecoverStrict, false); err == nil {
		t.Error("opening a directory as a WAL should fail")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]wal.SyncPolicy{
		"commit": wal.SyncOnCommit,
		"never":  wal.SyncNever,
		"always": wal.SyncAlways,
	} {
		got, err := parseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("parseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseSyncPolicy("sometimes"); err == nil {
		t.Error("unknown policy should error")
	}
}
