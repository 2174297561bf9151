package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repdir/internal/availability"
)

// TestRunSmall322MatchesPaperShape runs a reduced Figure 15 workload and
// checks the statistics land in the paper's neighborhood: E ~= 1.2-1.4,
// D ~= 0.6-1.0, I ~= 0.4-0.6 with max 2 for a 3-2-2 suite.
func TestRunSmall322MatchesPaperShape(t *testing.T) {
	res, err := Run(Config{
		Replicas:       3,
		R:              2,
		W:              2,
		InitialEntries: 100,
		Operations:     4000,
		Seed:           17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deletes < 500 {
		t.Fatalf("only %d deletes; workload mix broken", res.Deletes)
	}
	if e := res.EntriesCoalesced.Avg; e < 1.0 || e > 1.6 {
		t.Errorf("entries coalesced avg = %.3f, want ~1.2-1.4", e)
	}
	if d := res.GhostDeletions.Avg; d < 0.4 || d > 1.2 {
		t.Errorf("ghost deletions avg = %.3f, want ~0.6-1.0", d)
	}
	if i := res.Insertions.Avg; i < 0.25 || i > 0.75 {
		t.Errorf("insertions avg = %.3f, want ~0.4-0.6", i)
	}
	// Structural bound: for 3-2-2 at most the predecessor and successor
	// can each be missing from one write-quorum member, so insertions
	// per delete never exceed 2.
	if res.Insertions.Max > 2 {
		t.Errorf("insertions max = %.0f, structural bound is 2", res.Insertions.Max)
	}
	// Size stays near target.
	if res.FinalSize < 50 || res.FinalSize > 150 {
		t.Errorf("final size = %d, want within [50,150]", res.FinalSize)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := Config{Replicas: 3, R: 2, W: 2, InitialEntries: 50, Operations: 500, Seed: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Deletes != b.Deletes || a.EntriesCoalesced != b.EntriesCoalesced ||
		a.Insertions != b.Insertions || a.GhostDeletions != b.GhostDeletions {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestRunUnanimousWriteHasNoGhostWork(t *testing.T) {
	// 3-1-3 (write-all): every replica always current, so deletes never
	// find ghosts and never copy bounds.
	res, err := Run(Config{
		Replicas: 3, R: 1, W: 3,
		InitialEntries: 50, Operations: 1000, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insertions.Avg != 0 || res.Insertions.Max != 0 {
		t.Errorf("write-all should never insert bounds, got avg %.3f", res.Insertions.Avg)
	}
	if res.GhostDeletions.Avg != 0 {
		t.Errorf("write-all should never delete ghosts, got avg %.3f", res.GhostDeletions.Avg)
	}
	// Every delete removes exactly the victim on every member.
	if res.EntriesCoalesced.Avg != 1 || res.EntriesCoalesced.Max != 1 {
		t.Errorf("write-all entries coalesced should be exactly 1, got avg %.3f max %.0f",
			res.EntriesCoalesced.Avg, res.EntriesCoalesced.Max)
	}
}

func TestStickyQuorumAblationEliminatesGhostWork(t *testing.T) {
	random, sticky, err := RunStickyQuorumAblation(41, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if sticky.Insertions.Avg != 0 {
		t.Errorf("sticky quorums should copy no bounds, got %.3f", sticky.Insertions.Avg)
	}
	if sticky.GhostDeletions.Avg != 0 {
		t.Errorf("sticky quorums should delete no ghosts, got %.3f", sticky.GhostDeletions.Avg)
	}
	if random.GhostDeletions.Avg <= sticky.GhostDeletions.Avg {
		t.Errorf("random quorums must do more ghost work: %.3f vs %.3f",
			random.GhostDeletions.Avg, sticky.GhostDeletions.Avg)
	}
	if random.Insertions.Avg < 0.2 {
		t.Errorf("random quorums should show the paper's insertion overhead, got %.3f",
			random.Insertions.Avg)
	}
}

func TestBatchingAblationReducesRPCs(t *testing.T) {
	single, batched, err := RunBatchingAblation(43, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// Statistics must be identical apart from message counts: batching
	// changes how neighbors travel, not what the algorithm does.
	if single.EntriesCoalesced != batched.EntriesCoalesced ||
		single.GhostDeletions != batched.GhostDeletions ||
		single.Insertions != batched.Insertions {
		t.Errorf("batching changed the algorithm's behavior:\nfanout1: %+v\nfanout3: %+v",
			single, batched)
	}
	if batched.NeighborRPCs.Avg >= single.NeighborRPCs.Avg {
		t.Errorf("batching should reduce neighbor RPCs: %.2f vs %.2f",
			batched.NeighborRPCs.Avg, single.NeighborRPCs.Avg)
	}
	// Paper's claim: with 3 neighbors each way per message the searches
	// usually finish in "one remote procedure call to each member of the
	// quorum" — 2 messages for most deletes.
	if batched.NeighborRPCs.Avg > 2.15 {
		t.Errorf("fanout-3 RPCs per delete = %.2f, want close to 2", batched.NeighborRPCs.Avg)
	}
}

// TestModelMatchesSimulation compares the section 5 analytic model with
// short simulation runs across the Figure 14 sweep. The model is
// first-order (it ignores holder/quorum correlation), so tolerances are
// generous for I and tighter for E and D.
func TestModelMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison")
	}
	comps, err := RunModelComparison(77, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) == 0 {
		t.Fatal("no comparisons produced")
	}
	for _, c := range comps {
		name := c.Measured.Config.String()
		check := func(stat string, model, measured, tol float64) {
			if math.Abs(model-measured) > tol {
				t.Errorf("%s %s: model %.3f vs measured %.3f (tol %.2f)",
					name, stat, model, measured, tol)
			}
		}
		check("E", c.Prediction.EntriesCoalesced, c.Measured.EntriesCoalesced.Avg, 0.30)
		check("D", c.Prediction.GhostDeletions, c.Measured.GhostDeletions.Avg, 0.45)
		check("I", c.Prediction.Insertions, c.Measured.Insertions.Avg, 0.50)
		// Walk steps: upper estimate; measured must sit between the
		// trivial floor (1) and the prediction plus slack.
		avgSteps := (c.Measured.PredWalkSteps.Avg + c.Measured.SuccWalkSteps.Avg) / 2
		if avgSteps < 1 || avgSteps > c.Prediction.WalkSteps+0.35 {
			t.Errorf("%s walk steps: measured %.3f vs model <= %.3f",
				name, avgSteps, c.Prediction.WalkSteps)
		}
	}
	// The comparison table renders every configuration.
	out := FormatModelComparison(comps)
	if !contains(out, "3-2-2") || !contains(out, "E model") {
		t.Errorf("model table malformed:\n%s", out)
	}
}

func TestSkewAblationDirection(t *testing.T) {
	uniform, skewed, err := RunSkewAblation(47, 4000, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	// Skewed churn re-coalesces hot regions constantly, so ghosts die
	// young and bounds are densely replicated: every overhead statistic
	// drops relative to uniform selection.
	if !(skewed.GhostDeletions.Avg < uniform.GhostDeletions.Avg) {
		t.Errorf("skew should reduce ghost deletions: %.3f vs %.3f",
			skewed.GhostDeletions.Avg, uniform.GhostDeletions.Avg)
	}
	if !(skewed.EntriesCoalesced.Avg < uniform.EntriesCoalesced.Avg) {
		t.Errorf("skew should reduce entries coalesced: %.3f vs %.3f",
			skewed.EntriesCoalesced.Avg, uniform.EntriesCoalesced.Avg)
	}
	// Both workloads perform comparable delete counts.
	if skewed.Deletes < uniform.Deletes/2 {
		t.Errorf("skewed workload did too few deletes: %d vs %d",
			skewed.Deletes, uniform.Deletes)
	}
}

func TestFigure14SweepStructure(t *testing.T) {
	cfgs := Figure14Configs(1)
	if len(cfgs) != 9 {
		t.Fatalf("sweep has %d configs", len(cfgs))
	}
	for _, c := range cfgs {
		if c.R+c.W <= c.Replicas {
			t.Errorf("config %s violates quorum intersection", c)
		}
		if c.InitialEntries != 100 || c.Operations != 10000 {
			t.Errorf("config %s deviates from the Figure 14 workload", c)
		}
	}
}

func TestFigure16LocalityClaims(t *testing.T) {
	stats, err := RunFigure16(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("expected stats for 2 client types, got %d", len(stats))
	}
	for _, s := range stats {
		// Claim 1: all inquiries can be done locally.
		if f := s.LocalReadFraction(); f != 1.0 {
			t.Errorf("type %s local read fraction = %.3f, want 1.0", s.ClientType, f)
		}
		// Claim 2: exactly one remote representative receives each
		// modification, spread evenly across the two remotes.
		var remoteA, remoteB int
		switch s.ClientType {
		case "A":
			remoteA, remoteB = s.WriteRPCs["B1"], s.WriteRPCs["B2"]
		case "B":
			remoteA, remoteB = s.WriteRPCs["A1"], s.WriteRPCs["A2"]
		}
		if remoteA == 0 || remoteB == 0 {
			t.Errorf("type %s remote writes not spread: %d/%d", s.ClientType, remoteA, remoteB)
		}
		imbalance := math.Abs(float64(remoteA-remoteB)) / float64(remoteA+remoteB)
		if imbalance > 0.2 {
			t.Errorf("type %s remote write imbalance %.2f: %d vs %d",
				s.ClientType, imbalance, remoteA, remoteB)
		}
	}
}

func TestConcurrencyComparisonShowsSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// The speedup is wall-clock over simulated latencies, so a CPU-starved
	// run (other packages' tests hogging cores) can compress it; retry
	// before declaring the advantage gone.
	var res ConcurrencyResult
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		res, err = RunConcurrencyComparison(4, 10, 500*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.Speedup() >= 1.5 {
			break
		}
	}
	if res.Speedup() < 1.5 {
		t.Errorf("range locking should beat whole-file locking under disjoint load: %s", res)
	}
	// Disjoint ranges never conflict: the directory side must show no
	// lock contention at all, while the file side must show plenty.
	if res.RangeLockStats.Waits != 0 || res.RangeLockStats.Dies != 0 {
		t.Errorf("range locking contended on disjoint keys: %+v", res.RangeLockStats)
	}
	if res.FileLockStats.Waits+res.FileLockStats.Dies == 0 {
		t.Error("file locking should contend under concurrent clients")
	}
}

// TestEmpiricalAvailabilityMatchesAnalytic drives real suites with
// randomly crashed replicas and compares measured success fractions
// against the exact quorum probabilities. Reads need R live votes; an
// update needs both its read quorum and its write quorum, i.e.
// max(R, W) live votes.
func TestEmpiricalAvailabilityMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	shapes := []struct{ n, r, w int }{
		{3, 2, 2},
		{3, 1, 3},
		{5, 3, 3},
	}
	const p = 0.9
	const trials = 2500
	for _, s := range shapes {
		res, err := RunAvailabilityEmpirical(s.n, s.r, s.w, p, trials, 7)
		if err != nil {
			t.Fatal(err)
		}
		votes := make([]int, s.n)
		for i := range votes {
			votes[i] = 1
		}
		wantRead := availability.QuorumProbability(votes, s.r, p)
		need := s.w
		if s.r > need {
			need = s.r
		}
		wantWrite := availability.QuorumProbability(votes, need, p)
		if math.Abs(res.MeasuredRead-wantRead) > 0.03 {
			t.Errorf("%d-%d-%d read availability: measured %.3f vs analytic %.3f",
				s.n, s.r, s.w, res.MeasuredRead, wantRead)
		}
		if math.Abs(res.MeasuredWrite-wantWrite) > 0.03 {
			t.Errorf("%d-%d-%d write availability: measured %.3f vs analytic %.3f",
				s.n, s.r, s.w, res.MeasuredWrite, wantWrite)
		}
	}
}

func TestScalabilityGrowsWithClients(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	points, err := RunScalability([]int{1, 4}, 15, 300*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Disjoint ranges should scale well past half-linear.
	if points[1].Throughput < 2*points[0].Throughput {
		t.Errorf("4 clients should at least double 1-client throughput: %.0f vs %.0f",
			points[1].Throughput, points[0].Throughput)
	}
	if points[1].WaitDieAborts != 0 {
		t.Errorf("disjoint updates should not abort: %d", points[1].WaitDieAborts)
	}
	out := FormatScalability(points, 300*time.Microsecond)
	if !contains(out, "clients") || !contains(out, "ops/sec") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestFormatResultsRendersAllRows(t *testing.T) {
	res, err := Run(Config{Replicas: 3, R: 2, W: 2, InitialEntries: 30, Operations: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResults("test table", []Result{res})
	for _, want := range []string{
		"Entries in ranges coalesced",
		"Deletions while coalescing",
		"Insertions while coalescing",
		"3-2-2",
	} {
		if !contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestKeySet(t *testing.T) {
	s := newKeySet()
	rng := rand.New(rand.NewSource(1))
	s.add("a")
	s.add("b")
	s.add("a") // duplicate ignored
	if s.size() != 2 {
		t.Fatalf("size = %d", s.size())
	}
	if !s.contains("a") || s.contains("z") {
		t.Error("contains wrong")
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		seen[s.random(rng)] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Error("random should eventually return every member")
	}
	s.remove("a")
	s.remove("zz") // absent: no-op
	if s.size() != 1 || s.contains("a") {
		t.Error("remove wrong")
	}
}
