package fault

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repdir/internal/btree"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// CrashConfig configures RunCrashPoints.
type CrashConfig struct {
	// Dir is the scratch directory for log files. Required.
	Dir string
	// Commits is the number of acknowledged transactions in the logged
	// workload (default 6). One of them is a deletion, so the harness
	// also proves gap versions survive recovery.
	Commits int
	// FlipStride is the spacing of the bit-flip pass: one single-bit
	// flip is tried every FlipStride bytes of the log (default 1, every
	// byte).
	FlipStride int
}

// CrashReport summarizes a RunCrashPoints pass.
type CrashReport struct {
	// WALBytes is the length of the workload's finished log.
	WALBytes int64
	// Commits is the number of acknowledged transactions.
	Commits int
	// TruncationPoints counts simulated power losses (one per byte
	// boundary of the log, 0..WALBytes inclusive).
	TruncationPoints int
	// BitFlipPoints counts simulated silent corruptions.
	BitFlipPoints int
	// StrictRefusals counts bit-flip points where the strict policy
	// (correctly) refused to open.
	StrictRefusals int
	// SalvagedOpens counts bit-flip points where the salvage policy
	// opened with NeedsRepair set.
	SalvagedOpens int
}

// RunCrashPoints is the crash-point harness: it logs a small workload
// through a durable representative, recording the write-ahead log's
// byte offset and the expected directory state at every acknowledged
// commit, then simulates power loss at every byte boundary of the log —
// truncating there and recovering — and silent corruption at every
// FlipStride'th byte — flipping one bit and recovering.
//
// The invariant checked at every point: recovery never panics, never
// fails on a pure truncation (a torn tail is the normal crash
// signature), and never produces a state other than the one at some
// acknowledged commit no later than the damage point. A truncation at
// byte n must recover exactly the state of the last commit acknowledged
// at or before offset n; a bit flip may cost the acknowledged suffix
// after the flip (strict mode refuses instead; salvage mode must open)
// but must never invent state outside the acknowledged sequence.
func RunCrashPoints(cfg CrashConfig) (CrashReport, error) {
	if cfg.Dir == "" {
		return CrashReport{}, fmt.Errorf("fault: CrashConfig.Dir is required")
	}
	commits := cfg.Commits
	if commits <= 0 {
		commits = 6
	}
	stride := cfg.FlipStride
	if stride <= 0 {
		stride = 1
	}
	report := CrashReport{Commits: commits}

	// Phase 1: the logged workload. Record (log offset, state) at every
	// acknowledged commit; offsets[i] acknowledges states[i+1], and
	// states[0] is the empty directory.
	const name = "crash"
	walPath := filepath.Join(cfg.Dir, "crash.wal")
	data, offsets, states, err := logWorkload(name, walPath, commits)
	if err != nil {
		return report, err
	}
	report.WALBytes = int64(len(data))

	acked := make(map[string]bool, len(states))
	for _, s := range states {
		acked[s] = true
	}

	scratch := filepath.Join(cfg.Dir, "cut.wal")
	reopen := func(policy rep.RecoveryPolicy, damaged []byte) (*rep.Rep, *rep.Durability, error) {
		for _, leftover := range []string{scratch + ".quarantine", scratch + ".corrupt"} {
			if err := os.Remove(leftover); err != nil && !os.IsNotExist(err) {
				return nil, nil, err
			}
		}
		if err := os.WriteFile(scratch, damaged, 0o644); err != nil {
			return nil, nil, err
		}
		return rep.OpenDurable(name, scratch, "", rep.WithRecovery(policy))
	}

	// Phase 2: power loss at every byte boundary. Recovery must succeed
	// under the strict policy (a truncated tail is only ever torn) and
	// land exactly on the last commit acknowledged within the prefix.
	for cut := 0; cut <= len(data); cut++ {
		report.TruncationPoints++
		want := states[0]
		for i, off := range offsets {
			if off <= int64(cut) {
				want = states[i+1]
			}
		}
		r, d, err := reopen(rep.RecoverStrict, data[:cut])
		if err != nil {
			return report, fmt.Errorf("fault: truncation at byte %d/%d: recovery refused: %w", cut, len(data), err)
		}
		got := fingerprint(r.Dump())
		d.Close()
		if got != want {
			return report, fmt.Errorf("fault: truncation at byte %d/%d: recovered state is not the acknowledged prefix\n got: %s\nwant: %s",
				cut, len(data), got, want)
		}
	}

	// Phase 3: one flipped bit every stride bytes. Strict recovery may
	// refuse (mid-log damage) or succeed after dropping a torn-looking
	// tail; salvage recovery must always open. Either way the recovered
	// state must be some acknowledged state — damage may lose the
	// acknowledged suffix, never invent history.
	for pos := 0; pos < len(data); pos += stride {
		report.BitFlipPoints++
		flipped := make([]byte, len(data))
		copy(flipped, data)
		flipped[pos] ^= 1 << (pos % 8)

		r, d, err := reopen(rep.RecoverStrict, flipped)
		if err != nil {
			report.StrictRefusals++
		} else {
			got := fingerprint(r.Dump())
			d.Close()
			if !acked[got] {
				return report, fmt.Errorf("fault: bit flip at byte %d: strict recovery invented state: %s", pos, got)
			}
		}

		r, d, err = reopen(rep.RecoverSalvage, flipped)
		if err != nil {
			return report, fmt.Errorf("fault: bit flip at byte %d: salvage recovery refused: %w", pos, err)
		}
		got := fingerprint(r.Dump())
		if d.Recovery().NeedsRepair {
			report.SalvagedOpens++
		}
		d.Close()
		if !acked[got] {
			return report, fmt.Errorf("fault: bit flip at byte %d: salvage recovery invented state: %s", pos, got)
		}
	}
	return report, nil
}

// logWorkload runs the acknowledged workload against a fresh durable
// representative at walPath, returning the finished log bytes, the log
// offset at each commit acknowledgement, and the expected state
// fingerprints (states[0] empty, states[i+1] after commit i).
func logWorkload(name, walPath string, commits int) (data []byte, offsets []int64, states []string, err error) {
	ctx := context.Background()
	r, d, err := rep.OpenDurable(name, walPath, "")
	if err != nil {
		return nil, nil, nil, err
	}
	defer d.Close()
	states = append(states, fingerprint(r.Dump()))

	key := func(i int) keyspace.Key { return keyspace.New(fmt.Sprintf("k%02d", i)) }
	for i := 1; i <= commits; i++ {
		txn := lock.TxnID(i)
		ver := version.V(i)
		if i == 4 {
			// One deletion mid-workload: k01 goes away, and the gap
			// version left on k00 is part of every later expected state.
			if _, err := r.Coalesce(ctx, txn, key(0), key(2), ver); err != nil {
				return nil, nil, nil, fmt.Errorf("fault: workload coalesce: %w", err)
			}
		} else {
			if err := r.Insert(ctx, txn, key(i-1), ver, fmt.Sprintf("v%d", i)); err != nil {
				return nil, nil, nil, fmt.Errorf("fault: workload insert: %w", err)
			}
		}
		if err := r.Prepare(rep.MarkWriters(ctx, 1), txn); err != nil {
			return nil, nil, nil, fmt.Errorf("fault: workload prepare: %w", err)
		}
		if err := r.Commit(ctx, txn); err != nil {
			return nil, nil, nil, fmt.Errorf("fault: workload commit: %w", err)
		}
		fi, err := os.Stat(walPath)
		if err != nil {
			return nil, nil, nil, err
		}
		offsets = append(offsets, fi.Size())
		states = append(states, fingerprint(r.Dump()))
	}
	data, err = os.ReadFile(walPath)
	if err != nil {
		return nil, nil, nil, err
	}
	return data, offsets, states, nil
}

// fingerprint canonically serializes a directory dump for equality
// checks across recoveries.
func fingerprint(entries []btree.Entry) string {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s@%d=%q/%d;", e.Key, e.Version, e.Value, e.GapAfter)
	}
	return b.String()
}
