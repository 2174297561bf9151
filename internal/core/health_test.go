package core

import (
	"context"
	"fmt"
	"testing"

	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// TestHealthStateMachine walks one member through the full circuit:
// Up -> Suspect -> Down -> (paced skips) -> Probation -> Down on a
// failed probe, and Probation -> Up on a successful one.
func TestHealthStateMachine(t *testing.T) {
	cfg := HealthConfig{ProbeAfter: 2}
	h := NewHealthTracker([]string{"A", "B"}, cfg)

	if got := h.State("A"); got != HealthUp {
		t.Fatalf("initial state = %v, want up", got)
	}

	// One failure: suspect. Not yet excluded from quorums.
	h.ReportFailure("A")
	if got := h.State("A"); got != HealthSuspect {
		t.Fatalf("after 1 failure = %v, want suspect", got)
	}
	if ex := h.RoundExclusions(); ex != nil {
		t.Fatalf("suspect member excluded: %v", ex)
	}

	// A success closes the window entirely.
	h.ReportSuccess("A")
	if got := h.State("A"); got != HealthUp {
		t.Fatalf("after success = %v, want up", got)
	}

	// downAfter consecutive failures open the circuit; the ones before
	// leave the member suspect.
	for i := 1; i < downAfter; i++ {
		h.ReportFailure("A")
		if got := h.State("A"); got != HealthSuspect {
			t.Fatalf("after %d failures = %v, want suspect", i, got)
		}
	}
	h.ReportFailure("A")
	if got := h.State("A"); got != HealthDown {
		t.Fatalf("after %d failures = %v, want down", downAfter, got)
	}

	// While down, the member is excluded for ProbeAfter rounds...
	for i := 0; i < cfg.ProbeAfter; i++ {
		ex := h.RoundExclusions()
		if !ex["A"] {
			t.Fatalf("round %d: down member not excluded: %v", i, ex)
		}
		if ex["B"] {
			t.Fatalf("round %d: healthy member excluded", i)
		}
	}
	// ...then offered back as a probe.
	if ex := h.RoundExclusions(); ex != nil {
		t.Fatalf("probe round still excludes: %v", ex)
	}
	if got := h.State("A"); got != HealthProbation {
		t.Fatalf("after pacing = %v, want probation", got)
	}

	// A failed probe re-opens the circuit immediately.
	h.ReportFailure("A")
	if got := h.State("A"); got != HealthDown {
		t.Fatalf("after failed probe = %v, want down", got)
	}

	// Pace again; this time the probe succeeds and the member recovers.
	for i := 0; i < cfg.ProbeAfter; i++ {
		h.RoundExclusions()
	}
	h.RoundExclusions() // probation offer
	h.ReportSuccess("A")
	if got := h.State("A"); got != HealthUp {
		t.Fatalf("after successful probe = %v, want up", got)
	}

	// The walk was up→suspect→up→suspect→down→probation→down→
	// probation→up: eight transitions, ending in a recovery.
	st := h.Stats()
	if st.Transitions != 8 || st.Trips != 2 || st.Recoveries != 1 || st.Probes != 2 {
		t.Errorf("stats = %+v, want 8 transitions, 2 trips, 1 recovery, 2 probes", st)
	}
	if st.FastFails != uint64(2*cfg.ProbeAfter) {
		t.Errorf("fast fails = %d, want %d", st.FastFails, 2*cfg.ProbeAfter)
	}
}

// TestHealthUnknownMember checks that the tracker never pessimizes
// members it was not built with (zero-vote hint replicas, repair-only
// targets).
func TestHealthUnknownMember(t *testing.T) {
	h := NewHealthTracker([]string{"A"}, HealthConfig{})
	h.ReportFailure("ghost")
	h.ReportFailure("ghost")
	h.ReportFailure("ghost")
	if got := h.State("ghost"); got != HealthUp {
		t.Errorf("unknown member state = %v, want up", got)
	}
	h.ReportSuccess("ghost")
	if st := h.Stats(); st.Transitions != 0 {
		t.Errorf("unknown member caused %d transitions", st.Transitions)
	}
	if snap := h.Snapshot(); len(snap) != 1 || snap["A"] != HealthUp {
		t.Errorf("snapshot = %v", snap)
	}
}

// healthTestSuite builds a 3-replica 2/2 suite with a health tracker
// attached, returning direct handles for crash control.
func healthTestSuite(t *testing.T, cfg HealthConfig) (*Suite, *HealthTracker, *testSuite) {
	t.Helper()
	names := []string{"A", "B", "C"}
	reps := make([]*rep.Rep, len(names))
	locals := make([]*transport.Local, len(names))
	dirs := make([]rep.Directory, len(names))
	for i, n := range names {
		reps[i] = rep.New(n)
		locals[i] = transport.NewLocal(reps[i])
		dirs[i] = locals[i]
	}
	qc := quorum.NewUniform(dirs, 2, 2)
	h := NewHealthTracker(names, cfg)
	s, err := NewSuite(qc, WithSelector(quorum.NewRandomSelector(qc, 7)), WithHealth(h))
	if err != nil {
		t.Fatal(err)
	}
	return s, h, &testSuite{suite: s, reps: reps, locals: locals}
}

// TestSuiteHealthBreaker drives a suite with one crashed member: the
// tracker must open the member's circuit from fan-out outcomes alone,
// fast-fail it for the paced rounds, and re-admit it after restart.
func TestSuiteHealthBreaker(t *testing.T) {
	ctx := context.Background()
	cfg := HealthConfig{ProbeAfter: 2}
	s, h, ts := healthTestSuite(t, cfg)

	// Healthy warm-up.
	for i := 0; i < 4; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("warm-%d", i), "v"); err != nil {
			t.Fatalf("warm insert: %v", err)
		}
	}

	ts.locals[2].Crash()
	// Operate until the circuit opens. The random selector routes some
	// quorums around C, so this takes a variable but bounded number of
	// operations.
	opened := -1
	for i := 0; i < 64; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("deg-%d", i), "v"); err != nil {
			t.Fatalf("degraded insert %d: %v", i, err)
		}
		if h.State("C") == HealthDown {
			opened = i
			break
		}
	}
	if opened < 0 {
		t.Fatalf("circuit never opened; state=%v stats=%+v", h.State("C"), h.Stats())
	}
	if h.Stats().Trips == 0 {
		t.Fatal("no trip counted")
	}

	// With the circuit open, operations keep succeeding and the skipped
	// member-rounds are counted as fast-fails.
	before := h.Stats().FastFails
	for i := 0; i < 8; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("open-%d", i), "v"); err != nil {
			t.Fatalf("open-circuit insert %d: %v", i, err)
		}
	}
	if after := h.Stats().FastFails; after <= before {
		t.Errorf("fast fails did not grow while circuit open: %d -> %d", before, after)
	}

	// Restart; paced probes must re-admit the member.
	ts.locals[2].Restart()
	for i := 0; i < 64 && h.State("C") != HealthUp; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("rec-%d", i), "v"); err != nil {
			t.Fatalf("recovery insert %d: %v", i, err)
		}
	}
	if got := h.State("C"); got != HealthUp {
		t.Fatalf("member never recovered: state=%v stats=%+v", got, h.Stats())
	}
	st := h.Stats()
	if st.Recoveries == 0 || st.Probes == 0 {
		t.Errorf("stats = %+v, want probes and a recovery", st)
	}
}

// TestSuiteHealthFallback checks the safety valve: when open circuits
// would leave no assemblable quorum, the exclusions are waived for the
// round instead of failing an operation the members might serve. Here
// the waived members really are down, so the operation still fails —
// but only after genuinely retrying them, and the waiver is counted.
func TestSuiteHealthFallback(t *testing.T) {
	ctx := context.Background()
	cfg := HealthConfig{ProbeAfter: 100}
	s, h, ts := healthTestSuite(t, cfg)

	if err := s.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	ts.locals[1].Crash()
	ts.locals[2].Crash()

	// First ops fail (no write quorum among live members) and drive both
	// crashed members to Down.
	for i := 0; i < 8 && (h.State("B") != HealthDown || h.State("C") != HealthDown); i++ {
		_ = s.Insert(ctx, fmt.Sprintf("x-%d", i), "v")
	}
	if h.State("B") != HealthDown || h.State("C") != HealthDown {
		t.Fatalf("members not down: B=%v C=%v", h.State("B"), h.State("C"))
	}

	// Now any operation's quorum round would exclude both — leaving one
	// member, below quorum — so the exclusions must be waived (counted)
	// and the round must genuinely retry the dead members before the
	// operation gives up. (It still fails: the waived members really are
	// down, and once both are also transaction-excluded no quorum exists
	// with or without the breaker.)
	before := h.Stats()
	err := s.Insert(ctx, "y", "v")
	if err == nil {
		t.Fatal("insert succeeded with two members down")
	}
	after := h.Stats()
	if after.Fallbacks <= before.Fallbacks {
		t.Errorf("fallbacks did not grow: %d -> %d", before.Fallbacks, after.Fallbacks)
	}

	// Both members return: the very next rounds rediscover them.
	ts.locals[1].Restart()
	ts.locals[2].Restart()
	var ok bool
	for i := 0; i < 64; i++ {
		if err := s.Insert(ctx, fmt.Sprintf("z-%d", i), "v"); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("suite never recovered after restart")
	}
}
