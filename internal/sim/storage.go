package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repdir/internal/core"
	"repdir/internal/fault"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// StorageConfig parameterizes the storage-fault experiment.
type StorageConfig struct {
	// Dir is the scratch directory for log files (default: a fresh
	// temporary directory, removed afterwards).
	Dir string
	// Commits sizes the logged workload behind the corruption-point
	// curve (default 400).
	Commits int
	// CrashCommits sizes the exhaustive crash-point pass, which tries
	// every byte boundary and so must stay small (default 6).
	CrashCommits int
	// Entries is the directory size for the rebuild-throughput
	// measurement (default 500).
	Entries int
	// PageSize is the rebuild repair page (default 64).
	PageSize int
	// Seed fixes the workload. Zero is a valid, replayable seed (not
	// coerced).
	Seed int64
}

func (c StorageConfig) withDefaults() StorageConfig {
	if c.Commits <= 0 {
		c.Commits = 400
	}
	if c.CrashCommits <= 0 {
		c.CrashCommits = 6
	}
	if c.Entries <= 0 {
		c.Entries = 500
	}
	if c.PageSize <= 0 {
		c.PageSize = 64
	}
	return c
}

// CorruptionPoint is one sample of the recovery-time curve: a single
// bit flipped at Percent of the log's length, recovered under the
// salvage policy.
type CorruptionPoint struct {
	// Percent locates the flip as a fraction of the log.
	Percent int
	// Offset is the flipped byte.
	Offset int64
	// Salvaged is the number of records the salvage scan recovered.
	Salvaged int
	// Quarantined is the size of the tail moved to the sidecar.
	Quarantined int64
	// NeedsRepair reports whether the open flagged missing writes.
	NeedsRepair bool
	// Elapsed is the wall-clock time of the salvage open.
	Elapsed time.Duration
}

// RebuildMeasure is the rebuild-from-peers throughput measurement.
type RebuildMeasure struct {
	// Entries is the directory size rebuilt.
	Entries int
	// Stats is the reconcile outcome.
	Stats core.RepairStats
	// Elapsed is the wall-clock rebuild time.
	Elapsed time.Duration
	// PerSecond is installed entries per second.
	PerSecond float64
}

// StorageResult reports the three measured phases.
type StorageResult struct {
	Config StorageConfig

	// Crash is the exhaustive crash-point pass and its wall time.
	Crash     fault.CrashReport
	CrashTime time.Duration

	// WALBytes is the length of the corruption-curve workload's log.
	WALBytes int64
	// Records is the number of records in that log.
	Records int
	// Points is the recovery-time-vs-corruption-point curve.
	Points []CorruptionPoint

	// Rebuild is the rebuild-from-peers throughput measurement.
	Rebuild RebuildMeasure
}

// RunStorage measures the storage-fault machinery. Three phases: the
// exhaustive crash-point harness (power loss at every byte boundary,
// one flipped bit at every byte), a recovery-time curve that flips one
// bit at increasing fractions of a larger log and times the salvage
// open, and a rebuild-from-peers throughput measurement for the case
// where the log is beyond salvage.
func RunStorage(cfg StorageConfig) (StorageResult, error) {
	cfg = cfg.withDefaults()
	res := StorageResult{Config: cfg}

	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "repdir-storage")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// Phase 1: every crash point of a small workload.
	start := time.Now()
	crash, err := fault.RunCrashPoints(fault.CrashConfig{Dir: dir, Commits: cfg.CrashCommits})
	if err != nil {
		return res, fmt.Errorf("sim: crash points: %w", err)
	}
	res.Crash = crash
	res.CrashTime = time.Since(start)

	// Phase 2: recovery time vs corruption point over a larger log.
	data, err := logStorageWorkload(filepath.Join(dir, "curve.wal"), cfg.Commits)
	if err != nil {
		return res, err
	}
	res.WALBytes = int64(len(data))
	res.Records, err = salvageCurvePoint(dir, data, -1, &res) // clean baseline count
	if err != nil {
		return res, err
	}
	for _, pct := range []int{10, 25, 50, 75, 90} {
		off := int64(len(data)) * int64(pct) / 100
		if _, err := salvageCurvePoint(dir, data, off, &res); err != nil {
			return res, fmt.Errorf("sim: corruption at %d%%: %w", pct, err)
		}
		res.Points[len(res.Points)-1].Percent = pct
	}

	// Phase 3: rebuild-from-peers throughput.
	if err := measureRebuild(cfg, &res); err != nil {
		return res, err
	}
	return res, nil
}

// logStorageWorkload commits one insert per transaction against a
// fresh durable representative and returns the finished log bytes.
func logStorageWorkload(walPath string, commits int) ([]byte, error) {
	ctx := context.Background()
	r, d, err := rep.OpenDurable("curve", walPath)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= commits; i++ {
		txn := lock.TxnID(i)
		k := keyspace.New(fmt.Sprintf("key-%06d", i))
		if err := r.Insert(ctx, txn, k, version.V(i), fmt.Sprintf("v%d", i)); err != nil {
			return nil, fmt.Errorf("sim: curve insert: %w", err)
		}
		if err := r.Prepare(rep.MarkWriters(ctx, 1), txn); err != nil {
			return nil, err
		}
		if err := r.Commit(ctx, txn); err != nil {
			return nil, err
		}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return os.ReadFile(walPath)
}

// salvageCurvePoint recovers the log with one bit flipped at off (or
// undamaged when off < 0), appending a curve point for damaged opens.
// It returns the number of records recovered.
func salvageCurvePoint(dir string, data []byte, off int64, res *StorageResult) (int, error) {
	scratch := filepath.Join(dir, "point.wal")
	for _, leftover := range []string{scratch + ".quarantine", scratch + ".corrupt"} {
		if err := os.Remove(leftover); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	damaged := data
	if off >= 0 {
		damaged = make([]byte, len(data))
		copy(damaged, data)
		damaged[off] ^= 1 << (off % 8)
	}
	if err := os.WriteFile(scratch, damaged, 0o644); err != nil {
		return 0, err
	}
	start := time.Now()
	_, d, err := rep.OpenDurable("curve", scratch, rep.WithRecovery(rep.RecoverSalvage))
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	rec := d.Recovery()
	d.Close()
	if off >= 0 {
		p := CorruptionPoint{Offset: off, Salvaged: rec.WALRecords, NeedsRepair: rec.NeedsRepair, Elapsed: elapsed}
		if rec.Salvage != nil {
			p.Quarantined = rec.Salvage.QuarantinedBytes
		}
		res.Points = append(res.Points, p)
	}
	return rec.WALRecords, nil
}

// measureRebuild seeds a 3-2-2 suite, destroys one member's whole log
// as a storage-loss victim, and times the rebuild from its peers.
func measureRebuild(cfg StorageConfig, res *StorageResult) error {
	ctx := context.Background()
	in := fault.NewInjector([]string{"rep0", "rep1", "rep2"}, fault.Plan{}, cfg.Seed)
	qc := quorum.NewUniform(in.Directories(), 2, 2)
	suite, err := core.NewSuite(qc, core.WithSelector(quorum.NewRandomSelector(qc, cfg.Seed)))
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Entries; i++ {
		if err := suite.Insert(ctx, fmt.Sprintf("key-%06d", i), "v1"); err != nil {
			return fmt.Errorf("sim: rebuild seed: %w", err)
		}
	}

	// rep2 loses its storage: each loss destroys part of its log's tail,
	// so it restarts empty and recovering.
	victim := in.Members()[2]
	for victim.LoseStorage() > 0 {
	}
	if err := victim.Heal(); err != nil {
		return err
	}

	start := time.Now()
	stats, err := core.RepairReplica(ctx, suite, victim, core.RepairOptions{PageSize: cfg.PageSize})
	if err != nil {
		return fmt.Errorf("sim: rebuild: %w", err)
	}
	victim.RebuildDone()
	elapsed := time.Since(start)
	installed := stats.Copied + stats.Freshened
	res.Rebuild = RebuildMeasure{
		Entries: cfg.Entries,
		Stats:   stats,
		Elapsed: elapsed,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.Rebuild.PerSecond = float64(installed) / secs
	}
	return nil
}

// FormatStorage renders the experiment as a text report.
func FormatStorage(r StorageResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "Storage faults — crash points, salvage recovery curve, rebuild from peers\n\n")
	fmt.Fprintf(&b, "  crash-point harness (%d commits, %d-byte fresh and %d-byte compacted log): %d truncations, %d bit flips, %d strict refusals, %d salvaged opens in %v\n",
		r.Crash.Commits, r.Crash.FreshBytes, r.Crash.WALBytes, r.Crash.TruncationPoints, r.Crash.BitFlipPoints,
		r.Crash.StrictRefusals, r.Crash.SalvagedOpens, r.CrashTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "\n  salvage recovery vs corruption point (%d commits, %d-byte log, one flipped bit):\n",
		cfg.Commits, r.WALBytes)
	fmt.Fprintf(&b, "  %8s %10s %10s %12s %8s %10s\n",
		"flip at", "offset", "salvaged", "quarantined", "repair", "open time")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %7d%% %10d %10d %12d %8v %10v\n",
			p.Percent, p.Offset, p.Salvaged, p.Quarantined, p.NeedsRepair,
			p.Elapsed.Round(10*time.Microsecond))
	}
	m := r.Rebuild
	fmt.Fprintf(&b, "\n  rebuild from peers (3-2-2 suite, %d entries, page size %d): %d installed (%d gap versions) in %v — %.0f entries/s\n",
		m.Entries, cfg.PageSize, m.Stats.Copied+m.Stats.Freshened, m.Stats.Gaps,
		m.Elapsed.Round(time.Millisecond), m.PerSecond)
	return b.String()
}
