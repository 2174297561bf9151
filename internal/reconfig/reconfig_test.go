package reconfig

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

func newTestManager(t *testing.T, names []string, r, w int) (*Manager, []*rep.Rep) {
	t.Helper()
	reps := make([]*rep.Rep, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		dirs[i] = transport.NewLocal(reps[i])
	}
	cfg := quorum.NewUniform(dirs, r, w)
	m, err := NewManager(cfg,
		WithSelectorSeed(7),
		WithSuiteOptions(func(c quorum.Config) []core.Option {
			return []core.Option{core.WithSelector(quorum.NewRandomSelector(c, 11))}
		}))
	if err != nil {
		t.Fatal(err)
	}
	return m, reps
}

func TestInitCreatesRecordAndFences(t *testing.T) {
	ctx := context.Background()
	m, reps := newTestManager(t, []string{"A", "B", "C"}, 2, 2)
	rec, err := m.Init(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 1 || rec.Phase != PhaseStable || len(rec.Current.Members) != 3 {
		t.Fatalf("init record = %+v", rec)
	}
	// Fencing reached a blocking set (here: everyone is reachable).
	for _, r := range reps {
		if r.Fence() != 1 {
			t.Errorf("%s fence = %d, want 1", r.Name(), r.Fence())
		}
	}
	// Idempotent.
	rec2, err := m.Init(ctx)
	if err != nil || rec2.Epoch != 1 {
		t.Fatalf("second init = %+v, %v", rec2, err)
	}
	// Delegated operations work at the new epoch.
	if _, err := m.InsertV(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, found, _, err := m.LookupV(ctx, "k"); err != nil || !found || v != "v" {
		t.Fatalf("lookup = %q %v %v", v, found, err)
	}
}

func TestGrowSeededOnlineAndFencesOldEpoch(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, []string{"A", "B", "C"}, 2, 2)
	if _, err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := m.InsertV(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.DeleteV(ctx, "k3"); err != nil {
		t.Fatal(err)
	}
	// The suite a bypassing client might still hold.
	oldSuite := m.Suite()

	newcomerRep := rep.New("D")
	rec, err := m.Reconfigure(ctx, Change{
		Add: []Addition{{Dir: transport.NewLocal(newcomerRep), Votes: 1}},
		R:   3,
		W:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Phase != PhaseStable || rec.Epoch != 3 || len(rec.Current.Members) != 4 {
		t.Fatalf("grown record = %+v", rec)
	}
	// The newcomer physically holds the entries (plus sentinels and the
	// config record) before serving: 2 sentinels + config + 7 keys.
	if got := newcomerRep.Len(); got != 2+1+7 {
		t.Errorf("newcomer holds %d entries, want %d", got, 10)
	}
	// The grown suite answers correctly, including the deletion.
	for i := 0; i < 8; i++ {
		v, found, _, err := m.LookupV(ctx, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 && found {
			t.Error("k3 should stay deleted across the transition")
		}
		if i != 3 && (!found || v != "v") {
			t.Errorf("k%d = %q %v after grow", i, v, found)
		}
	}
	// The enforced no-mixing invariant: the old suite's writes are
	// rejected loudly, not silently misdirected to stale quorums.
	err = oldSuite.Insert(ctx, "unsafe", "v")
	if !errors.Is(err, rep.ErrStaleEpoch) {
		t.Fatalf("old-epoch insert = %v, want ErrStaleEpoch", err)
	}
	if oldSuite.Stats().StaleEpochRejections == 0 {
		t.Error("stale rejection not counted in suite stats")
	}
	// Writes through the manager continue.
	if _, err := m.InsertV(ctx, "post", "v"); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveAndReweight(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, []string{"A", "B", "C", "D"}, 3, 2)
	if _, err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.InsertV(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Remove D and double A's weight: 3 members, votes 2+1+1, R=2 W=3.
	rec, err := m.Reconfigure(ctx, Change{
		Remove:   []string{"D"},
		Reweight: map[string]int{"A": 2},
		R:        2, W: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Current.Members) != 3 || rec.Current.R != 2 || rec.Current.W != 3 {
		t.Fatalf("record = %+v", rec)
	}
	for i := 0; i < 5; i++ {
		if _, found, _, err := m.LookupV(ctx, fmt.Sprintf("k%d", i)); err != nil || !found {
			t.Fatalf("k%d lost across remove/reweight: %v %v", i, found, err)
		}
	}
	// Removing a non-member is a semantic rejection, not retryable.
	_, err = m.Reconfigure(ctx, Change{Remove: []string{"Z"}})
	if !errors.Is(err, quorum.ErrNotMember) || IsRetryable(err) {
		t.Fatalf("remove non-member = %v (retryable=%v)", err, IsRetryable(err))
	}
}

func TestWitnessJoinsAndValuesChase(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, []string{"A", "B", "C"}, 2, 2)
	if _, err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := m.InsertV(ctx, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	wrep := rep.New("W", rep.AsWitness())
	rec, err := m.Reconfigure(ctx, Change{
		Add: []Addition{{Dir: transport.NewLocal(wrep), Votes: 1, Witness: true}},
		R:   2, W: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 3 {
		t.Fatalf("epoch = %d", rec.Epoch)
	}
	// The witness holds versions but no values.
	if !wrep.Witness() {
		t.Fatal("W is not a witness rep")
	}
	for _, e := range wrep.Dump() {
		if e.Value != "" {
			t.Fatalf("witness stored value %q for %s", e.Value, e.Key)
		}
	}
	// Every value read returns real data even when the witness serves in
	// the read quorum (R=2 of 4 votes means W is often selected; the
	// chase must fill the value in).
	for round := 0; round < 10; round++ {
		for i := 0; i < 6; i++ {
			v, found, _, err := m.LookupV(ctx, fmt.Sprintf("k%d", i))
			if err != nil || !found || v != fmt.Sprintf("v%d", i) {
				t.Fatalf("round %d: k%d = %q %v %v", round, i, v, found, err)
			}
		}
	}
	// Updates and deletes keep working with the witness voting.
	if _, err := m.UpdateV(ctx, "k0", "v0x"); err != nil {
		t.Fatal(err)
	}
	if v, _, _, _ := m.LookupV(ctx, "k0"); v != "v0x" {
		t.Fatalf("k0 = %q after update", v)
	}
	if _, err := m.DeleteV(ctx, "k1"); err != nil {
		t.Fatal(err)
	}
	if _, found, _, _ := m.LookupV(ctx, "k1"); found {
		t.Error("k1 survived delete with witness")
	}
	// Scans never leak the config record or witness blanks.
	kvs, err := m.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		if kv.Key == "" || kv.Key[0] == 0 {
			t.Fatalf("scan leaked system key %q", kv.Key)
		}
		if kv.Value == "" {
			t.Fatalf("scan returned blank value for %s", kv.Key)
		}
	}
}

func TestConcurrentReconfigureConflicts(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, []string{"A", "B", "C"}, 2, 2)
	if _, err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	// A second manager over the same members, same seed config.
	m2, err := NewManager(m.Suite().Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	// m reconfigures; m2's view is now stale.
	if _, err := m.Reconfigure(ctx, Change{Reweight: map[string]int{"A": 2}, R: 3, W: 2}); err != nil {
		t.Fatal(err)
	}
	// m2 still works for reads/writes: its first fenced op refreshes.
	if _, err := m2.InsertV(ctx, "from-m2", "v"); err != nil {
		t.Fatal(err)
	}
	if m2.Epoch() != m.Epoch() {
		t.Fatalf("m2 epoch %d != m epoch %d after refresh", m2.Epoch(), m.Epoch())
	}
}

func TestCrashMidTransitionResumes(t *testing.T) {
	ctx := context.Background()
	m, reps := newTestManager(t, []string{"A", "B", "C"}, 2, 2)
	if _, err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertV(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	// Simulate a reconfigurer that crashed right after committing the
	// joint record: write it by hand, then let a fresh manager resume.
	rec := m.Record()
	target, err := Change{Reweight: map[string]int{"B": 2}, R: 2, W: 3}.apply(rec.Current)
	if err != nil {
		t.Fatal(err)
	}
	jrec := Record{Epoch: rec.Epoch + 1, Phase: PhaseJoint, Current: target, Old: &rec.Current}
	js, err := m.jointSuiteAt(rec.Current, target, rec.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.casWriteRecord(ctx, js, rec.Epoch, jrec); err != nil {
		t.Fatal(err)
	}

	// A new manager (fresh process) finds the joint record and completes
	// the transition.
	dirs := make([]rep.Directory, len(reps))
	for i, r := range reps {
		dirs[i] = transport.NewLocal(r)
	}
	m2, err := NewManager(quorum.NewUniform(dirs, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	final, err := m2.CompleteTransition(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.Phase != PhaseStable || final.Epoch != rec.Epoch+2 {
		t.Fatalf("resumed record = %+v", final)
	}
	if v, found, _, err := m2.LookupV(ctx, "k"); err != nil || !found || v != "v" {
		t.Fatalf("k = %q %v %v after resumed transition", v, found, err)
	}
}
