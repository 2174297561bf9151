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
	// workload (default 6). A checkpoint follows the third (or the last,
	// when there are fewer), and the fourth is a deletion, so the
	// harness also proves gap versions survive recovery.
	Commits int
}

// CrashReport summarizes a RunCrashPoints pass.
type CrashReport struct {
	// FreshBytes is the length of the workload's log just before the
	// checkpoint: the empty section it was created with, then the
	// records of the commits so far.
	FreshBytes int64
	// WALBytes is the length of the workload's finished log, which the
	// checkpoint compacted.
	WALBytes int64
	// SectionBytes is the length of the sections the two logs open
	// with: the empty one and the checkpoint's.
	SectionBytes int64
	// Commits is the number of acknowledged transactions.
	Commits int
	// TruncationPoints counts simulated power losses (one per byte
	// boundary of each log, 0 through its length).
	TruncationPoints int
	// SectionRefusals counts truncation points inside a section, the
	// empty log included, where the strict policy (correctly) refused
	// to open.
	SectionRefusals int
	// BitFlipPoints counts simulated silent corruptions.
	BitFlipPoints int
	// StrictRefusals counts bit-flip points where the strict policy
	// (correctly) refused to open.
	StrictRefusals int
	// SalvagedOpens counts bit-flip points where the salvage policy
	// opened with NeedsRepair set.
	SalvagedOpens int
}

// checkpointAfter is the commit the workload checkpoints after.
const checkpointAfter = 3

// crashImage is a log as the workload left it at one moment: its bytes
// and where each acknowledged state ends in them. offsets[0] is the end
// of the section the log opens with, and states[0] the state it holds.
type crashImage struct {
	data    []byte
	offsets []int64
	states  []string
}

// RunCrashPoints is the crash-point harness: it logs a small workload
// through a durable representative, checkpointing it after its third
// commit, and records the write-ahead log's byte offset and the
// expected directory state at every acknowledged commit. Then, over
// two logs — the fresh one as it stood just before the checkpoint, and
// the finished one the checkpoint compacted — it simulates power loss
// at every byte boundary, truncating there and recovering, and silent
// corruption at every byte, flipping one bit and recovering.
//
// Each log opens with a section that was fsynced whole before it became
// the log: the empty one OpenDurable created it with, or the
// checkpoint's. Damage inside it is never a torn append, so a
// truncation or a flipped bit there must be refused by the strict
// policy, and a flipped bit by the salvage policy too, never opened as
// the store it cut short. After the section, the invariant checked at
// every point: recovery never panics, never fails on a pure truncation
// (a torn tail is the normal crash signature), and never produces a
// state other than one acknowledged in that log, no later than the
// damage point. A truncation at byte n must recover exactly the state
// acknowledged last at or before offset n; a bit flip may cost the
// acknowledged suffix after the flip (strict mode refuses instead;
// salvage mode must open) but must never invent state outside the
// acknowledged sequence.
func RunCrashPoints(cfg CrashConfig) (CrashReport, error) {
	if cfg.Dir == "" {
		return CrashReport{}, fmt.Errorf("fault: CrashConfig.Dir is required")
	}
	commits := cfg.Commits
	if commits <= 0 {
		commits = 6
	}
	report := CrashReport{Commits: commits}

	const name = "crash"
	fresh, compacted, err := logWorkload(name, filepath.Join(cfg.Dir, "crash.wal"), commits)
	if err != nil {
		return report, err
	}
	report.FreshBytes = int64(len(fresh.data))
	report.WALBytes = int64(len(compacted.data))

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
		return rep.OpenDurable(name, scratch, rep.WithRecovery(policy))
	}

	for _, img := range []struct {
		what string
		crashImage
	}{{"fresh log", fresh}, {"compacted log", compacted}} {
		data, section := img.data, img.offsets[0]
		report.SectionBytes += section
		acked := make(map[string]bool, len(img.states))
		for _, s := range img.states {
			acked[s] = true
		}

		// Power loss at every byte boundary. Inside the section the
		// strict policy must refuse; after it, recovery must succeed
		// under the strict policy (a truncated tail is only ever torn)
		// and land exactly on the state acknowledged last within the
		// prefix.
		for cut := 0; cut <= len(data); cut++ {
			report.TruncationPoints++
			r, d, err := reopen(rep.RecoverStrict, data[:cut])
			if int64(cut) < section {
				if err == nil {
					d.Close()
					return report, fmt.Errorf("fault: %s: truncation at byte %d, inside the %d-byte section it opens with: strict recovery opened",
						img.what, cut, section)
				}
				report.SectionRefusals++
				continue
			}
			if err != nil {
				return report, fmt.Errorf("fault: %s: truncation at byte %d/%d: recovery refused: %w", img.what, cut, len(data), err)
			}
			var want string
			for i, off := range img.offsets {
				if off <= int64(cut) {
					want = img.states[i]
				}
			}
			got := fingerprint(r.Dump())
			d.Close()
			if got != want {
				return report, fmt.Errorf("fault: %s: truncation at byte %d/%d: recovered state is not the acknowledged prefix\n got: %s\nwant: %s",
					img.what, cut, len(data), got, want)
			}
		}

		// One flipped bit at every byte. Inside the section both
		// policies must refuse. After it, strict recovery may refuse
		// (mid-log damage) or succeed after dropping a torn-looking
		// tail; salvage recovery must always open. Either way the
		// recovered state must be one acknowledged in this log —
		// damage may lose the acknowledged suffix, never invent
		// history.
		for pos := range data {
			report.BitFlipPoints++
			flipped := make([]byte, len(data))
			copy(flipped, data)
			flipped[pos] ^= 1 << (pos % 8)
			inSection := int64(pos) < section

			r, d, err := reopen(rep.RecoverStrict, flipped)
			if err != nil {
				report.StrictRefusals++
			} else {
				got := fingerprint(r.Dump())
				d.Close()
				if inSection {
					return report, fmt.Errorf("fault: %s: bit flip at byte %d, inside its section: strict recovery opened", img.what, pos)
				}
				if !acked[got] {
					return report, fmt.Errorf("fault: %s: bit flip at byte %d: strict recovery invented state: %s", img.what, pos, got)
				}
			}

			r, d, err = reopen(rep.RecoverSalvage, flipped)
			if inSection {
				if err == nil {
					d.Close()
					return report, fmt.Errorf("fault: %s: bit flip at byte %d, inside its section: salvage recovery opened", img.what, pos)
				}
				continue
			}
			if err != nil {
				return report, fmt.Errorf("fault: %s: bit flip at byte %d: salvage recovery refused: %w", img.what, pos, err)
			}
			got := fingerprint(r.Dump())
			if d.Recovery().NeedsRepair {
				report.SalvagedOpens++
			}
			d.Close()
			if !acked[got] {
				return report, fmt.Errorf("fault: %s: bit flip at byte %d: salvage recovery invented state: %s", img.what, pos, got)
			}
		}
	}
	return report, nil
}

// logWorkload runs the acknowledged workload against a fresh durable
// representative at walPath, checkpointing after commit
// checkpointAfter, and returns two images of its log: the fresh one
// just before the checkpoint, acknowledged states from the empty one
// on, and the finished one, from the checkpoint's on.
func logWorkload(name, walPath string, commits int) (fresh, compacted crashImage, err error) {
	ctx := context.Background()
	r, d, err := rep.OpenDurable(name, walPath)
	if err != nil {
		return fresh, compacted, err
	}
	defer d.Close()
	mark := func(img *crashImage) error {
		fi, err := os.Stat(walPath)
		if err != nil {
			return err
		}
		img.offsets = append(img.offsets, fi.Size())
		img.states = append(img.states, fingerprint(r.Dump()))
		return nil
	}
	if err := mark(&fresh); err != nil {
		return fresh, compacted, err
	}

	key := func(i int) keyspace.Key { return keyspace.New(fmt.Sprintf("k%02d", i)) }
	checkpointAt := min(checkpointAfter, commits)
	for i := 1; i <= commits; i++ {
		txn := lock.TxnID(i)
		ver := version.V(i)
		if i == 4 {
			// One deletion mid-workload: k01 goes away, and the gap
			// version left on k00 is part of every later expected state.
			if _, err := r.Coalesce(ctx, txn, key(0), key(2), ver); err != nil {
				return fresh, compacted, fmt.Errorf("fault: workload coalesce: %w", err)
			}
		} else {
			if err := r.Insert(ctx, txn, key(i-1), ver, fmt.Sprintf("v%d", i)); err != nil {
				return fresh, compacted, fmt.Errorf("fault: workload insert: %w", err)
			}
		}
		if err := r.Prepare(rep.MarkWriters(ctx, 1), txn); err != nil {
			return fresh, compacted, fmt.Errorf("fault: workload prepare: %w", err)
		}
		if err := r.Commit(ctx, txn); err != nil {
			return fresh, compacted, fmt.Errorf("fault: workload commit: %w", err)
		}
		img := &compacted
		if i <= checkpointAt {
			img = &fresh
		}
		if err := mark(img); err != nil {
			return fresh, compacted, err
		}
		if i == checkpointAt {
			if fresh.data, err = os.ReadFile(walPath); err != nil {
				return fresh, compacted, err
			}
			if err := d.Checkpoint(); err != nil {
				return fresh, compacted, fmt.Errorf("fault: workload checkpoint: %w", err)
			}
			if err := mark(&compacted); err != nil {
				return fresh, compacted, err
			}
		}
	}
	compacted.data, err = os.ReadFile(walPath)
	return fresh, compacted, err
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
