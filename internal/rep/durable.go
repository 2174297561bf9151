package rep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/wal"
)

// ErrBusy is returned by Checkpoint when transactions are in flight; the
// caller should retry once the representative quiesces.
var ErrBusy = errors.New("rep: transactions in flight")

// checkpointRecords captures the representative's state, while no
// transaction is in flight, as the checkpoint section a compacted log
// opens with (see section), and returns the LSN of the last record it
// reflects. A transaction stays in r.txns until its commit record is
// written and its effects are final, and epoch records are appended
// under r.mu, so with r.mu held and r.txns empty nothing is appending:
// every record at or below the returned LSN is reflected in the
// section, and none above it exists.
func (r *Rep) checkpointRecords() ([]wal.Record, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.txns) != 0 {
		return nil, 0, fmt.Errorf("%w: %d active", ErrBusy, len(r.txns))
	}
	return r.section(), r.log.NextLSN() - 1, nil
}

// section writes the representative's state as a checkpoint section:
// records the replay path already reads, all under transaction 0, which
// is reserved (ErrReservedTxn):
//
//   - for each entry in key order, a KindInsert of it and a KindCoalesce
//     from its predecessor carrying that gap's version, then a coalesce
//     from the last entry to HIGH;
//   - a bare KindCommit or KindAbort of each decided transaction, under
//     its own ID: a sibling still in doubt about one asks this member's
//     Status, and StatusUnknown for a transaction committed here could
//     resolve it to abort;
//   - a KindEpoch of the fence;
//   - a KindCommit of transaction 0 whose Value names the representative.
//
// Callers hold r.mu, or have the representative to themselves.
func (r *Rep) section() []wal.Record {
	entries := r.store.Entries()
	recs := make([]wal.Record, 0, 2*len(entries)+len(r.outcomes)+2)
	for i, e := range entries[1:] {
		if !e.Key.IsSentinel() {
			recs = append(recs, wal.Record{Kind: wal.KindInsert, Key: e.Key, Version: e.Version, Value: e.Value})
		}
		pred := entries[i]
		recs = append(recs, wal.Record{Kind: wal.KindCoalesce, Key: pred.Key, Hi: e.Key, Version: pred.GapAfter})
	}
	// In ID order, so that one state always compacts to one byte string.
	ids := make([]lock.TxnID, 0, len(r.outcomes))
	for id := range r.outcomes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		kind := wal.KindAbort
		if r.outcomes[id] {
			kind = wal.KindCommit
		}
		recs = append(recs, wal.Record{Kind: kind, Txn: uint64(id)})
	}
	return append(recs,
		wal.Record{Kind: wal.KindEpoch, Epoch: r.fence},
		wal.Record{Kind: wal.KindCommit, Value: r.name})
}

// checkpointOwner reads the checkpoint section a log opens with: owner
// is the name its closing commit gives. Every log this build writes
// opens with one, on disk whole before it became the log — the empty
// section OpenDurable creates a log with, or a checkpoint — so a
// section with no closing commit, or a log with no whole record at all,
// has lost acknowledged state rather than torn an append: whole is
// false then.
//
// A log from a build before checkpoint sections opens with a record of
// a transaction instead, and holds the representative's whole history
// only if it starts at LSN 1: it is read as it is. One that starts
// later was cut by a snapshot checkpoint, and the history before it is
// in a snapshot file this build does not read, so it is refused with
// wal.ErrOldFormat.
func checkpointOwner(walPath string, records []wal.Record) (owner string, whole bool, err error) {
	if len(records) == 0 {
		return "", false, nil
	}
	if first := records[0]; first.Txn != 0 || first.Kind != wal.KindInsert && first.Kind != wal.KindCoalesce {
		if first.LSN != 1 {
			return "", false, fmt.Errorf("rep: %w: %q starts at LSN %d with no checkpoint section; the history before it was in a snapshot file",
				wal.ErrOldFormat, walPath, first.LSN)
		}
		return "", true, nil
	}
	for _, rec := range records {
		if rec.Kind == wal.KindCommit && rec.Txn == 0 {
			return rec.Value, true, nil
		}
	}
	return "", false, nil
}

// RecoveryPolicy selects how OpenDurable responds to storage damage
// beyond an ordinary torn tail (which every policy quarantines and
// rides through, since a crash mid-append is normal operation).
type RecoveryPolicy int

const (
	// RecoverStrict (the default) refuses to open over mid-log
	// corruption or a damaged checkpoint section: acknowledged writes
	// may be missing, and an operator must choose to degrade.
	RecoverStrict RecoveryPolicy = iota
	// RecoverSalvage opens with the longest valid log prefix,
	// quarantining the damaged tail and flagging NeedsRepair so an
	// anti-entropy pass can re-fetch what was lost.
	RecoverSalvage
	// RecoverRebuild goes further: when salvage cannot produce usable
	// state, the damaged log is archived and the replica opens empty,
	// in recovering mode (reads bounce with ErrRecovering), expecting a
	// rebuild from a quorum of peers.
	RecoverRebuild
)

// String names the policy as accepted by ParseRecoveryPolicy.
func (p RecoveryPolicy) String() string {
	switch p {
	case RecoverStrict:
		return "strict"
	case RecoverSalvage:
		return "salvage"
	case RecoverRebuild:
		return "rebuild"
	default:
		return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
	}
}

// ParseRecoveryPolicy parses a policy name (for command-line flags).
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) {
	switch strings.ToLower(s) {
	case "strict":
		return RecoverStrict, nil
	case "salvage":
		return RecoverSalvage, nil
	case "rebuild":
		return RecoverRebuild, nil
	default:
		return RecoverStrict, fmt.Errorf("rep: unknown recovery policy %q (want strict, salvage, or rebuild)", s)
	}
}

// RecoveryReport describes what OpenDurable found and did.
type RecoveryReport struct {
	// Policy is the recovery policy that governed the open.
	Policy RecoveryPolicy
	// Salvage carries the WAL corruption report when the log scan
	// stopped before a clean EOF (torn tail or worse); nil otherwise.
	Salvage *wal.CorruptionReport
	// WALRecords is the number of log records recovered.
	WALRecords int
	// Rebuilt is true when the replica opened empty, its damaged log
	// archived, awaiting a rebuild from peers.
	Rebuilt bool
	// NeedsRepair is true when acknowledged writes may be missing: the
	// replica should be reconciled against its peers before it is
	// trusted. Always true when Rebuilt.
	NeedsRepair bool
}

// DurableOption configures OpenDurable.
type DurableOption func(*durableConfig)

type durableConfig struct {
	policy   wal.SyncPolicy
	recovery RecoveryPolicy
	obs      *obs.Observer
	repOpts  []Option
}

// WithSyncPolicy selects when the write-ahead log fsyncs (default
// wal.SyncOnCommit: prepare and abort records are forced to disk, so a
// transaction every writer prepared survives machine crashes, to be
// resolved to commit). Simulations and benchmarks can pass wal.SyncNever
// to trade durability for speed.
func WithSyncPolicy(p wal.SyncPolicy) DurableOption {
	return func(c *durableConfig) { c.policy = p }
}

// WithRecovery selects the recovery policy (default RecoverStrict).
func WithRecovery(p RecoveryPolicy) DurableOption {
	return func(c *durableConfig) { c.recovery = p }
}

// WithDurableObserver wires recovery events (salvages, quarantined
// bytes, rebuilds) into an observer's storage counters. A nil observer
// is fine.
func WithDurableObserver(o *obs.Observer) DurableOption {
	return func(c *durableConfig) { c.obs = o }
}

// WithRepOptions forwards representative options (e.g. AsWitness) to
// the Rep that OpenDurable constructs after recovery. A durable witness
// logs blanked values, so its WAL carries versions alone.
func WithRepOptions(opts ...Option) DurableOption {
	return func(c *durableConfig) { c.repOpts = append(c.repOpts, opts...) }
}

// OpenDurable opens (or creates) a durable representative: the
// write-ahead log at walPath is scanned, replayed through Recover —
// starting with the checkpoint section it opens with — and reopened for
// appending with monotone LSNs. A missing log is created holding the
// section of an empty representative, fsynced before it is put in
// place (wal.CreateFileLog), so every log this build writes opens with
// a section that was on disk whole.
//
// A log in a format this build no longer reads is refused with
// wal.ErrOldFormat under every policy, the file untouched: it is not
// damage, and salvaging it would open the representative empty. So is
// a log whose checkpoint names another representative, and a log from
// an earlier build that a snapshot checkpoint cut (see checkpointOwner).
//
// Storage damage is handled per the recovery policy. A torn log tail —
// the ordinary signature of a crash mid-append — is quarantined and
// truncated under every policy. Mid-log corruption or a damaged length
// prefix is an error under RecoverStrict, a degraded-but-open state
// under RecoverSalvage, and under RecoverRebuild causes the replica to
// archive the log and open empty in recovering mode (reads return
// ErrRecovering) so a rebuild from peers can repopulate it. Damage
// inside the checkpoint section, torn-looking or not, and a log with no
// whole record, are refused by both RecoverStrict and RecoverSalvage:
// what is left is not a state the representative was ever in. The
// Recovery method of the returned Durability reports what happened.
func OpenDurable(name, walPath string, opts ...DurableOption) (*Rep, *Durability, error) {
	var cfg durableConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	report := RecoveryReport{Policy: cfg.recovery}

	records, salvage, err := wal.ScanFileLog(walPath)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, nil, err
	}
	if !fresh {
		owner, whole, err := checkpointOwner(walPath, records)
		if err != nil {
			return nil, nil, err
		}
		if owner != "" && owner != name {
			return nil, nil, fmt.Errorf("rep: log %q belongs to %q, not %q", walPath, owner, name)
		}
		report.Salvage = salvage
		rebuild := false
		switch {
		case !whole:
			if cfg.recovery != RecoverRebuild {
				return nil, nil, fmt.Errorf("rep: open %s: checkpoint section of %q damaged after %d records (policy %s)",
					name, walPath, len(records), cfg.recovery)
			}
			rebuild = true // archiveCorrupt moves the log whole
		case salvage == nil:
		case !salvage.Cause.Torn() && cfg.recovery == RecoverRebuild:
			rebuild = true
		case !salvage.Cause.Torn() && cfg.recovery != RecoverSalvage:
			// Bytes the log had acknowledged are unreadable. Refuse
			// with the file untouched: strict means only an operator's
			// explicit policy choice may discard acknowledged bytes, so
			// the refusal must leave the damage in place for the
			// salvage open to act on.
			return nil, nil, fmt.Errorf("rep: open %s: %w", name, salvage)
		default:
			// What follows unreadable bytes is lost even if intact.
			report.NeedsRepair = !salvage.Cause.Torn()
			if err := wal.Quarantine(walPath, salvage); err != nil {
				return nil, nil, err
			}
			cfg.obs.SalvageObserved(salvage.Records, salvage.QuarantinedBytes)
		}
		if rebuild {
			if err := archiveCorrupt(walPath); err != nil {
				return nil, nil, err
			}
			fresh = true
			report.Rebuilt = true
			report.NeedsRepair = true
			cfg.obs.RebuildStarted()
		}
	}
	if fresh {
		records = New(name).section()
		if err := wal.CreateFileLog(walPath, records); err != nil {
			return nil, nil, err
		}
	} else {
		report.WALRecords = len(records)
	}

	log, err := wal.OpenFileLog(walPath)
	if err != nil {
		return nil, nil, err
	}
	log.SetSyncPolicy(cfg.policy)
	log.StartAt(records[len(records)-1].LSN + 1)
	r, err := Recover(name, records, append(cfg.repOpts, WithLog(log))...)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	if report.Rebuilt {
		// Everything this replica once knew is gone: gap versions are
		// version.Lowest again, so its answers would lose every quorum
		// version comparison they should win. Reads bounce until a
		// repair pass from its peers (core.RepairReplica) reconciles it
		// and clears this.
		r.SetRecovering(true)
	}
	return r, &Durability{rep: r, log: log, walPath: walPath, recovery: report}, nil
}

// archiveCorrupt moves an unusable log aside (a ".corrupt" suffix)
// rather than deleting it, preserving the evidence for forensics while
// freeing the live path for a fresh log.
func archiveCorrupt(walPath string) error {
	if err := os.Rename(walPath, walPath+".corrupt"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("rep: archive %q: %w", walPath, err)
	}
	return wal.SyncDir(filepath.Dir(walPath))
}

// Durability manages a representative's on-disk state: a write-ahead log
// that periodic checkpoints compact, bounding recovery time and log
// growth.
type Durability struct {
	mu       sync.Mutex
	rep      *Rep
	log      *wal.FileLog
	walPath  string
	recovery RecoveryReport
}

// Recovery reports what OpenDurable found and did.
func (d *Durability) Recovery() RecoveryReport { return d.recovery }

// Checkpoint replaces the write-ahead log with a compacted one that
// opens with the representative's state as a checkpoint section (see
// checkpointRecords) — unless a record was appended while the compacted
// log was being written: that record is in the old log alone, so the
// log is kept whole and the next checkpoint compacts it
// (wal.FileLog.Compact). It fails with ErrBusy while transactions are
// in flight, and with wal.ErrClosed once the log is closed.
func (d *Durability) Checkpoint() error {
	d.mu.Lock() // one compaction at a time
	defer d.mu.Unlock()
	records, lastLSN, err := d.rep.checkpointRecords()
	if err != nil {
		return err
	}
	return d.log.Compact(d.walPath, lastLSN, records)
}

// Close flushes and closes the log; closing it again does nothing.
func (d *Durability) Close() error { return d.log.Close() }
