package rep

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repdir/internal/btree"
	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/wal"
)

// ErrBusy is returned by Checkpoint when transactions are in flight; the
// caller should retry once the representative quiesces.
var ErrBusy = errors.New("rep: transactions in flight")

// ErrSnapshotCorrupt is wrapped by ReadSnapshot when a snapshot file
// exists but is truncated or fails its checksum. OpenDurable treats it
// as recoverable whenever the write-ahead log alone can rebuild state.
var ErrSnapshotCorrupt = errors.New("rep: snapshot corrupt")

// Snapshot is the snapshot payload: the full entry dump (sentinels and
// gap versions included) plus the LSN of the last write-ahead-log record
// the snapshot covers, and what the truncated log held beside the
// entries.
type Snapshot struct {
	Name    string
	LastLSN uint64
	Entries []btree.Entry
	// Epoch is the configuration-epoch fence at checkpoint time; log
	// truncation would otherwise discard the KindEpoch records that
	// made the fence durable.
	Epoch uint64
	// Outcomes are the decided transactions, true = committed: a sibling
	// still in doubt about one asks this member's Status, and an answer
	// of StatusUnknown for a transaction committed here could resolve it
	// to abort.
	Outcomes map[lock.TxnID]bool
}

// Snapshot container format: a 12-byte header — magic, payload length,
// CRC32C over header and payload — then the gob payload. A file without
// the header is corrupt, whatever it holds.
var snapMagic = [4]byte{0xF7, 'S', 'N', '2'}

const snapHeaderLen = 12

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot atomically writes a checksummed snapshot file: temp
// file, fsync, rename, then fsync of the parent directory so the
// rename itself survives power loss on journaled filesystems.
func WriteSnapshot(path string, snap Snapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("rep: snapshot encode: %w", err)
	}
	head := make([]byte, snapHeaderLen)
	copy(head, snapMagic[:])
	binary.BigEndian.PutUint32(head[4:8], uint32(payload.Len()))
	crc := crc32.Update(0, snapCRC, head[:8])
	crc = crc32.Update(crc, snapCRC, payload.Bytes())
	binary.BigEndian.PutUint32(head[8:12], crc)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("rep: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(head); err != nil {
		tmp.Close()
		return fmt.Errorf("rep: snapshot write: %w", err)
	}
	if _, err := tmp.Write(payload.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("rep: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("rep: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("rep: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rep: snapshot rename: %w", err)
	}
	return wal.SyncDir(dir)
}

// ReadSnapshot loads a snapshot file, verifying its checksum. A missing
// file is not an error; it returns ok = false. A file that exists but
// is truncated or damaged returns an error wrapping ErrSnapshotCorrupt,
// which OpenDurable downgrades to a WAL-only recovery when possible.
func ReadSnapshot(path string) (snap Snapshot, ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return snap, false, nil
		}
		return snap, false, fmt.Errorf("rep: open snapshot %q: %w", path, err)
	}
	if len(data) < snapHeaderLen || !bytes.Equal(data[:4], snapMagic[:]) {
		return snap, false, fmt.Errorf("%w: %q: no snapshot header in its %d bytes", ErrSnapshotCorrupt, path, len(data))
	}
	payload := data[snapHeaderLen:]
	if n := binary.BigEndian.Uint32(data[4:8]); int64(n) != int64(len(payload)) {
		return snap, false, fmt.Errorf("%w: %q: header claims %d payload bytes, file holds %d",
			ErrSnapshotCorrupt, path, n, len(payload))
	}
	crc := crc32.Update(0, snapCRC, data[:8])
	if crc32.Update(crc, snapCRC, payload) != binary.BigEndian.Uint32(data[8:12]) {
		return snap, false, fmt.Errorf("%w: %q: checksum mismatch", ErrSnapshotCorrupt, path)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return Snapshot{}, false, fmt.Errorf("%w: %q: %v", ErrSnapshotCorrupt, path, err)
	}
	return snap, true, nil
}

// seed replaces the representative's store with a snapshot's entries and
// its decided transactions with the snapshot's. Used only during
// recovery, before the representative is shared.
func (r *Rep) seed(snap Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	store := btree.New()
	for _, e := range snap.Entries {
		store.Put(e)
	}
	r.store = store
	maps.Copy(r.outcomes, snap.Outcomes)
	r.fence = max(r.fence, snap.Epoch)
}

// checkpointState atomically captures what a snapshot holds while no
// transactions are in flight. A transaction stays in r.txns until its
// commit record is written and its effects are final, and epoch records
// are appended under r.mu, so with r.mu held and r.txns empty nothing is
// appending: every record at or below the snapshot's LSN is reflected in
// it, and none above it exists.
func (r *Rep) checkpointState() (Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.txns) != 0 {
		return Snapshot{}, fmt.Errorf("%w: %d active", ErrBusy, len(r.txns))
	}
	snap := Snapshot{Name: r.name, Entries: r.store.Entries(), Epoch: r.fence, Outcomes: maps.Clone(r.outcomes)}
	if r.log != nil {
		snap.LastLSN = r.log.NextLSN() - 1
	}
	return snap, nil
}

// RecoveryPolicy selects how OpenDurable responds to storage damage
// beyond an ordinary torn tail (which every policy quarantines and
// rides through, since a crash mid-append is normal operation).
type RecoveryPolicy int

const (
	// RecoverStrict (the default) refuses to open over mid-log
	// corruption or an unrecoverable snapshot: acknowledged writes may
	// be missing, and an operator must choose to degrade.
	RecoverStrict RecoveryPolicy = iota
	// RecoverSalvage opens with the longest valid log prefix,
	// quarantining the damaged tail and flagging NeedsRepair so an
	// anti-entropy pass can re-fetch what was lost.
	RecoverSalvage
	// RecoverRebuild goes further: when salvage cannot produce usable
	// state, the damaged files are archived and the replica opens
	// empty, in recovering mode (reads bounce with ErrRecovering),
	// expecting a rebuild from a quorum of peers.
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
	// SnapshotLoaded is true when a snapshot seeded the store.
	SnapshotLoaded bool
	// SnapshotCorrupt is true when a snapshot existed but failed its
	// checksum or decode and was abandoned.
	SnapshotCorrupt bool
	// Salvage carries the WAL corruption report when the log scan
	// stopped before a clean EOF (torn tail or worse); nil otherwise.
	Salvage *wal.CorruptionReport
	// WALRecords is the number of log records recovered.
	WALRecords int
	// Rebuilt is true when the replica opened empty, its damaged files
	// archived, awaiting a rebuild from peers.
	Rebuilt bool
	// NeedsRepair is true when acknowledged writes may be missing: the
	// replica should be reconciled against its peers before it is
	// trusted. Always true when Rebuilt.
	NeedsRepair bool
	// Warnings are human-readable notes about degraded recovery steps.
	Warnings []string
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
// bytes, snapshot fallbacks, rebuilds) into an observer's storage
// counters. A nil observer is fine.
func WithDurableObserver(o *obs.Observer) DurableOption {
	return func(c *durableConfig) { c.obs = o }
}

// WithRepOptions forwards representative options (e.g. AsWitness) to
// the Rep that OpenDurable constructs after recovery. A durable witness
// logs blanked values, so its WAL carries versions alone.
func WithRepOptions(opts ...Option) DurableOption {
	return func(c *durableConfig) { c.repOpts = append(c.repOpts, opts...) }
}

// OpenDurable opens (or creates) a durable representative: snapshot
// loaded if present, write-ahead log replayed on top, log reopened for
// appending with monotone LSNs.
//
// A log in a format this build no longer reads is refused with
// wal.ErrOldFormat under every policy, the file untouched: it is not
// damage, and salvaging it would open the representative empty.
//
// Storage damage is handled per the recovery policy. A torn log tail —
// the ordinary signature of a crash mid-append — is quarantined and
// truncated under every policy. Mid-log corruption, a corrupt
// snapshot the WAL cannot cover for, or a damaged length prefix are
// errors under RecoverStrict, a degraded-but-open state under
// RecoverSalvage, and under RecoverRebuild cause the replica to
// archive the damaged files and open empty in recovering mode (reads
// return ErrRecovering) so a rebuild from peers can repopulate it.
// The Recovery method of the returned Durability reports what
// happened.
func OpenDurable(name, walPath, snapPath string, opts ...DurableOption) (*Rep, *Durability, error) {
	var cfg durableConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	report := RecoveryReport{Policy: cfg.recovery}

	var seed Snapshot
	if snapPath != "" {
		snap, ok, err := ReadSnapshot(snapPath)
		switch {
		case err == nil && ok:
			if snap.Name != name {
				return nil, nil, fmt.Errorf("rep: snapshot %q belongs to %q, not %q", snapPath, snap.Name, name)
			}
			seed = snap
			report.SnapshotLoaded = true
		case err == nil:
			// No snapshot; WAL-only recovery is the normal fresh path.
		case errors.Is(err, ErrSnapshotCorrupt):
			report.SnapshotCorrupt = true
			report.Warnings = append(report.Warnings,
				fmt.Sprintf("snapshot abandoned: %v", err))
			cfg.obs.SnapshotFallback()
		default:
			return nil, nil, err
		}
	}

	records, salvage, err := wal.ScanFileLog(walPath)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		records, salvage = nil, nil
	}
	rebuild := false
	if salvage != nil {
		report.Salvage = salvage
		quarantine := salvage.Cause.Torn()
		if !salvage.Cause.Torn() {
			// Bytes the log had acknowledged are unreadable; what
			// follows them is lost even if intact.
			switch cfg.recovery {
			case RecoverSalvage:
				quarantine = true
				report.NeedsRepair = true
			case RecoverRebuild:
				rebuild = true // archiveCorrupt moves the log whole
			default:
				// Refuse with the file untouched: strict means only an
				// operator's explicit policy choice may discard
				// acknowledged bytes, so the refusal must leave the
				// damage in place for the salvage open to act on.
				return nil, nil, fmt.Errorf("rep: open %s: %w", name, salvage)
			}
		}
		if quarantine {
			if err := wal.Quarantine(walPath, salvage); err != nil {
				return nil, nil, err
			}
			cfg.obs.SalvageObserved(salvage.Records, salvage.QuarantinedBytes)
			if report.NeedsRepair {
				report.Warnings = append(report.Warnings,
					fmt.Sprintf("log salvaged: %v; acknowledged writes may be missing", salvage))
			}
		}
	}

	if report.SnapshotCorrupt {
		// WAL-only recovery covers for the snapshot only if the log
		// still reaches back to the beginning of history — a checkpoint
		// truncation would have moved records only the snapshot held.
		if len(records) > 0 && records[0].LSN == 1 {
			report.Warnings = append(report.Warnings, "recovering from WAL alone")
		} else if cfg.recovery == RecoverRebuild {
			rebuild = true
		} else {
			return nil, nil, fmt.Errorf("rep: open %s: snapshot corrupt and WAL does not cover it (policy %s)",
				name, cfg.recovery)
		}
	}

	if rebuild {
		if err := archiveCorrupt(walPath, snapPath); err != nil {
			return nil, nil, err
		}
		seed, records = Snapshot{}, nil
		report.SnapshotLoaded = false
		report.Rebuilt = true
		report.NeedsRepair = true
		report.Warnings = append(report.Warnings, "local state unusable; opening empty for rebuild from peers")
		cfg.obs.RebuildStarted()
	}
	report.WALRecords = len(records)

	maxLSN := seed.LastLSN
	for _, rec := range records {
		if rec.LSN > maxLSN {
			maxLSN = rec.LSN
		}
	}
	log, err := wal.OpenFileLog(walPath)
	if err != nil {
		return nil, nil, err
	}
	log.SetSyncPolicy(cfg.policy)
	log.StartAt(maxLSN + 1)

	r := New(name, append(cfg.repOpts, WithLog(log))...)
	if report.SnapshotLoaded {
		// A checkpoint truncated the log past the records that decided
		// these transactions and made this fence durable; the snapshot
		// is their only witness.
		r.seed(seed)
	}
	a, err := wal.Analyze(wal.FilterAfter(records, seed.LastLSN))
	if err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("rep: recover %s: %w", name, err)
	}
	if err := r.installAnalysis(a); err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("rep: recover %s: %w", name, err)
	}
	if report.Rebuilt {
		// Everything this replica once knew is gone: gap versions are
		// version.Lowest again, so its answers would lose every quorum
		// version comparison they should win. Reads bounce until a
		// repair pass from its peers (core.RepairReplica) reconciles it
		// and clears this.
		r.SetRecovering(true)
	}
	return r, &Durability{rep: r, log: log, walPath: walPath, snapPath: snapPath, recovery: report}, nil
}

// archiveCorrupt moves unusable storage aside (".corrupt" suffixes)
// rather than deleting it, preserving the evidence for forensics while
// freeing the live paths for a fresh log.
func archiveCorrupt(walPath, snapPath string) error {
	if err := os.Rename(walPath, walPath+".corrupt"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("rep: archive %q: %w", walPath, err)
	}
	if snapPath != "" {
		if err := os.Rename(snapPath, snapPath+".corrupt"); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("rep: archive %q: %w", snapPath, err)
		}
	}
	return wal.SyncDir(filepath.Dir(walPath))
}

// Durability manages a representative's on-disk state: a write-ahead log
// plus periodic snapshots that bound recovery time and log growth.
//
// Crash safety relies on LSNs: the snapshot records the last log sequence
// number it covers, and recovery replays only newer committed records. A
// crash between snapshot and log truncation is therefore harmless — the
// stale prefix is skipped by LSN, not by file position.
type Durability struct {
	mu       sync.Mutex
	rep      *Rep
	log      *wal.FileLog
	walPath  string
	snapPath string
	recovery RecoveryReport
	closed   bool
}

// Recovery reports what OpenDurable found and did.
func (d *Durability) Recovery() RecoveryReport { return d.recovery }

// Checkpoint writes a snapshot of the current committed state and then
// truncates the write-ahead log, unless a record was appended while the
// snapshot was being written: that record is in the log alone, so the
// log is kept whole and the next checkpoint compacts it. It fails with
// ErrBusy while transactions are in flight.
func (d *Durability) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("rep: durability closed")
	}
	if d.snapPath == "" {
		return errors.New("rep: no snapshot path configured")
	}
	snap, err := d.rep.checkpointState()
	if err != nil {
		return err
	}
	if err := WriteSnapshot(d.snapPath, snap); err != nil {
		return err
	}
	// A crash here leaves the full log alongside the snapshot; recovery
	// skips the covered prefix by LSN. Truncation is pure compaction.
	return d.log.TruncateAt(snap.LastLSN)
}

// Close flushes and closes the log.
func (d *Durability) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}
