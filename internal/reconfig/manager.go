package reconfig

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// Errors reported by the manager.
var (
	// ErrNoRecord: the suite has no configuration record yet; call Init.
	ErrNoRecord = errors.New("reconfig: no configuration record")
	// ErrConflict: a concurrent reconfiguration advanced the epoch
	// between this manager's read and its write. The caller should
	// refresh and re-evaluate whether its change is still wanted.
	ErrConflict = errors.New("reconfig: concurrent configuration change")
	// ErrUnresolved: a configuration record names a member this manager
	// has no directory for and no resolver to dial it with.
	ErrUnresolved = errors.New("reconfig: cannot resolve member")
	// ErrFenceIncomplete: not enough old-configuration members could be
	// fenced to block stale-epoch quorums. The new record is durable;
	// retrying the reconfiguration resumes the fence.
	ErrFenceIncomplete = errors.New("reconfig: could not fence a blocking set of old members")
)

// refreshHops bounds how many epoch-refresh rounds one delegated
// operation will chase. Each written record is readable under the
// quorums of the epoch it replaced, so a client k epochs behind needs
// at most k hops; lagging this many epochs behind means something is
// structurally wrong.
const refreshHops = 16

// Manager owns a suite client whose configuration is the replicated
// record: it delegates directory operations to the current suite,
// transparently refreshing the configuration and retrying when a
// representative fences the suite's epoch as stale, and it drives
// reconfigurations. Safe for concurrent use.
type Manager struct {
	resolver  Resolver
	suiteOpts func(quorum.Config) []core.Option
	selSeed   int64
	onChange  func(Record, *core.Suite)

	mu    sync.Mutex
	suite *core.Suite
	rec   Record // zero Epoch until Init or Refresh finds a record
	dirs  map[string]rep.Directory
}

// Option configures a Manager.
type Option func(*Manager)

// WithResolver supplies the dialer for members this manager has never
// seen locally (records replicate between processes by name and
// address).
func WithResolver(r Resolver) Option { return func(m *Manager) { m.resolver = r } }

// WithSuiteOptions supplies the core.Option set for every suite the
// manager builds (selector, parallelism). It is called once
// per configuration change with the new configuration. For joint
// configurations the manager appends its own JointSelector after these
// options, since only it enforces the two-sided thresholds.
func WithSuiteOptions(f func(quorum.Config) []core.Option) Option {
	return func(m *Manager) { m.suiteOpts = f }
}

// WithSelectorSeed seeds the joint selectors the manager builds
// (deterministic simulations); the epoch is folded in so distinct
// transitions shuffle differently.
func WithSelectorSeed(seed int64) Option { return func(m *Manager) { m.selSeed = seed } }

// WithOnChange installs a hook fired after the manager switches to a
// new configuration, with the record and the freshly built suite.
// Harnesses use it to rewire routers and stats collection.
func WithOnChange(f func(Record, *core.Suite)) Option {
	return func(m *Manager) { m.onChange = f }
}

// NewManager builds a manager over a seed configuration. The seed is
// the bootstrap connection set: the record, once it exists, is
// authoritative. Call Init to create the record on a fresh suite, or
// Refresh to adopt an existing one.
func NewManager(cfg quorum.Config, opts ...Option) (*Manager, error) {
	m := &Manager{dirs: make(map[string]rep.Directory)}
	for _, opt := range opts {
		opt(m)
	}
	for _, mem := range cfg.Members {
		m.dirs[mem.Dir.Name()] = mem.Dir
	}
	s, err := core.NewSuite(cfg, m.optionsFor(cfg)...)
	if err != nil {
		return nil, err
	}
	m.suite = s
	if cfg.Epoch != 0 {
		m.rec = Record{Epoch: cfg.Epoch, Phase: PhaseStable, Current: sideOf(cfg)}
	}
	return m, nil
}

// optionsFor renders the configured suite options for cfg.
func (m *Manager) optionsFor(cfg quorum.Config) []core.Option {
	if m.suiteOpts == nil {
		return nil
	}
	return m.suiteOpts(cfg)
}

// Suite returns the current suite client. The suite is immutable; a
// configuration change swaps in a new one, so callers should re-fetch
// rather than cache across operations (or use the delegated operations,
// which do this plus stale-epoch refresh).
func (m *Manager) Suite() *core.Suite {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suite
}

// Record returns the configuration record the manager currently holds
// (zero Epoch when none is known yet).
func (m *Manager) Record() Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rec
}

// Epoch returns the manager's current configuration epoch.
func (m *Manager) Epoch() uint64 { return m.Record().Epoch }

// resolveDir finds the live directory for a member spec: the local
// cache first, then the resolver.
func (m *Manager) resolveDir(spec MemberSpec) (rep.Directory, error) {
	m.mu.Lock()
	d, ok := m.dirs[spec.Name]
	m.mu.Unlock()
	if ok {
		return d, nil
	}
	if m.resolver == nil {
		return nil, fmt.Errorf("%w: %s (no resolver)", ErrUnresolved, spec.Name)
	}
	d, err := m.resolver.Resolve(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnresolved, spec.Name, err)
	}
	m.mu.Lock()
	m.dirs[spec.Name] = d
	m.mu.Unlock()
	return d, nil
}

// sideConfig renders a record side as a live quorum.Config at the given
// epoch.
func (m *Manager) sideConfig(s Side, epoch uint64) (quorum.Config, error) {
	cfg := quorum.Config{Epoch: epoch, R: s.R, W: s.W, Members: make([]quorum.Member, len(s.Members))}
	for i, spec := range s.Members {
		d, err := m.resolveDir(spec)
		if err != nil {
			return quorum.Config{}, err
		}
		cfg.Members[i] = quorum.Member{Dir: d, Votes: spec.Votes, Witness: spec.Witness}
	}
	return cfg, nil
}

// buildSuite constructs the suite for a record: the stable
// configuration directly, or the degenerate joint configuration with a
// JointSelector enforcing both sides' thresholds.
func (m *Manager) buildSuite(rec Record) (*core.Suite, error) {
	if rec.Phase == PhaseStable {
		cfg, err := m.sideConfig(rec.Current, rec.Epoch)
		if err != nil {
			return nil, err
		}
		return core.NewSuite(cfg, m.optionsFor(cfg)...)
	}
	oldCfg, err := m.sideConfig(*rec.Old, rec.Epoch)
	if err != nil {
		return nil, err
	}
	newCfg, err := m.sideConfig(rec.Current, rec.Epoch)
	if err != nil {
		return nil, err
	}
	joint := quorum.Joint{Old: oldCfg, New: newCfg}
	if err := joint.Validate(); err != nil {
		return nil, err
	}
	cfg := joint.Config(rec.Epoch)
	opts := append(m.optionsFor(cfg),
		core.WithSelector(quorum.NewJointSelector(joint, m.selSeed+int64(rec.Epoch))))
	return core.NewSuite(cfg, opts...)
}

// install swaps the manager to a new record and suite and fires the
// OnChange hook. The previous suite is closed: its release rounds in
// flight land first.
// Epochs only move forward: a concurrent Refresh racing a transition
// must not reinstate a superseded record.
func (m *Manager) install(rec Record, s *core.Suite) {
	m.mu.Lock()
	if m.rec.Epoch != 0 && rec.Epoch <= m.rec.Epoch {
		m.mu.Unlock()
		s.Close()
		return
	}
	prev := m.suite
	m.suite = s
	m.rec = rec
	m.mu.Unlock()
	if prev != nil && prev != s {
		prev.Close()
	}
	if m.onChange != nil {
		m.onChange(rec, s)
	}
}

// readRecord quorum-reads the configuration record through the given
// suite under the epoch bypass, so it works even when the suite's epoch
// has just been fenced stale — which is exactly when it is needed.
func readRecord(ctx context.Context, s *core.Suite) (Record, error) {
	raw, found, err := s.SysLookup(rep.WithEpoch(ctx, rep.EpochBypass), ConfigKey)
	if err != nil {
		return Record{}, fmt.Errorf("reconfig: read record: %w", err)
	}
	if !found {
		return Record{}, ErrNoRecord
	}
	return DecodeRecord(raw)
}

// Refresh re-reads the configuration record and, if it names a newer
// epoch than the manager holds, rebuilds and installs the suite. It
// returns the record in force afterwards. A manager several epochs
// behind converges hop by hop: each record was written under quorums
// intersecting the previous configuration's, so every read from the
// superseded suite reveals at least the next epoch.
func (m *Manager) Refresh(ctx context.Context) (Record, error) {
	for hop := 0; hop < refreshHops; hop++ {
		m.mu.Lock()
		s, cur := m.suite, m.rec
		m.mu.Unlock()
		rec, err := readRecord(ctx, s)
		if err != nil {
			return Record{}, err
		}
		if rec.Epoch <= cur.Epoch {
			return cur, nil
		}
		ns, err := m.buildSuite(rec)
		if err != nil {
			return Record{}, err
		}
		m.install(rec, ns)
	}
	return Record{}, fmt.Errorf("reconfig: configuration still advancing after %d refresh hops", refreshHops)
}

// do runs fn against the current suite, refreshing the configuration
// and retrying when a representative fences the epoch as stale.
func (m *Manager) do(ctx context.Context, fn func(s *core.Suite) error) error {
	for hop := 0; hop < refreshHops; hop++ {
		s := m.Suite()
		before := m.Epoch()
		err := fn(s)
		if err == nil || !errors.Is(err, rep.ErrStaleEpoch) {
			return err
		}
		rec, rerr := m.Refresh(ctx)
		if rerr != nil {
			return errors.Join(err, rerr)
		}
		if rec.Epoch <= before {
			// The record did not advance: the fence came from somewhere
			// the record read cannot see (e.g. a fresher epoch mid-write).
			// Surface the stale error rather than spinning.
			return err
		}
	}
	return fmt.Errorf("reconfig: configuration still advancing after %d retries", refreshHops)
}

// Delegated directory operations: each runs against the current suite
// and transparently refreshes across configuration changes. These are
// the operations "clients must not mix configurations" is enforced
// against — a caller that bypasses the manager and holds a stale suite
// fails loudly with rep.ErrStaleEpoch instead.

// LookupV returns the value stored under key, whether it exists, and
// the winning version (core.Suite.LookupV).
func (m *Manager) LookupV(ctx context.Context, key string) (v string, found bool, ver version.V, err error) {
	err = m.do(ctx, func(s *core.Suite) (err error) {
		v, found, ver, err = s.LookupV(ctx, key)
		return err
	})
	return v, found, ver, err
}

// InsertV creates an entry for key and returns the version written.
func (m *Manager) InsertV(ctx context.Context, key, value string) (version.V, error) {
	return m.write(ctx, func(s *core.Suite) (version.V, error) { return s.InsertV(ctx, key, value) })
}

// UpdateV replaces an existing entry's value; it returns the version written.
func (m *Manager) UpdateV(ctx context.Context, key, value string) (version.V, error) {
	return m.write(ctx, func(s *core.Suite) (version.V, error) { return s.UpdateV(ctx, key, value) })
}

// DeleteV removes key's entry; it returns the version of the gap written.
func (m *Manager) DeleteV(ctx context.Context, key string) (version.V, error) {
	return m.write(ctx, func(s *core.Suite) (version.V, error) { return s.DeleteV(ctx, key) })
}

// write runs one of the suite's versioned writes through do.
func (m *Manager) write(ctx context.Context, fn func(s *core.Suite) (version.V, error)) (ver version.V, err error) {
	err = m.do(ctx, func(s *core.Suite) (err error) {
		ver, err = fn(s)
		return err
	})
	return ver, err
}

// Scan returns up to limit entries with keys strictly greater than
// after.
func (m *Manager) Scan(ctx context.Context, after string, limit int) ([]core.KV, error) {
	var out []core.KV
	err := m.do(ctx, func(s *core.Suite) error {
		var err error
		out, err = s.Scan(ctx, after, limit)
		return err
	})
	return out, err
}

// Count returns the number of current entries.
func (m *Manager) Count(ctx context.Context) (int, error) {
	var n int
	err := m.do(ctx, func(s *core.Suite) error {
		var err error
		n, err = s.Count(ctx)
		return err
	})
	return n, err
}

// Init ensures the suite has a configuration record: it adopts an
// existing one, or creates the initial record from the seed
// configuration (at the seed's epoch, or epoch 1 for an unversioned
// seed), fences every member to it, and switches the manager to the
// recorded configuration. Idempotent; safe to race (the loser adopts
// the winner's record).
func (m *Manager) Init(ctx context.Context) (Record, error) {
	rec, err := m.Refresh(ctx)
	if err == nil && rec.Epoch != 0 {
		return rec, nil
	}
	if err != nil && !errors.Is(err, ErrNoRecord) {
		return Record{}, err
	}

	m.mu.Lock()
	s := m.suite
	m.mu.Unlock()
	cfg := s.Config()
	epoch := cfg.Epoch
	if epoch == 0 {
		epoch = 1
	}
	init := Record{Epoch: epoch, Phase: PhaseStable, Current: sideOf(cfg)}
	if err := m.casWriteRecord(ctx, s, 0, init); err != nil {
		if errors.Is(err, ErrConflict) {
			// Someone else initialized first; adopt theirs.
			return m.Refresh(ctx)
		}
		return Record{}, err
	}
	if err := m.fenceEpoch(ctx, epoch, init.Current.Members, init.Current); err != nil {
		return Record{}, err
	}
	ns, err := m.buildSuite(init)
	if err != nil {
		return Record{}, err
	}
	m.install(init, ns)
	return init, nil
}

// casWriteRecord writes rec under the record's transactional
// read-check-write: the write happens only if the stored record still
// carries expectEpoch (0 = no record yet). Strict two-phase locking
// makes the check-and-write atomic; a concurrent reconfiguration either
// serializes behind this transaction or kills it via wait-die, and the
// retry's re-read then reports ErrConflict.
func (m *Manager) casWriteRecord(ctx context.Context, s *core.Suite, expectEpoch uint64, rec Record) error {
	value, err := rec.Encode()
	if err != nil {
		return err
	}
	return s.RunInTxn(ctx, func(tx *core.Tx) error {
		raw, found, err := tx.SysLookup(ctx, ConfigKey)
		if err != nil {
			return err
		}
		switch {
		case !found && expectEpoch != 0:
			return fmt.Errorf("%w: record vanished (expected epoch %d)", ErrConflict, expectEpoch)
		case found:
			cur, err := DecodeRecord(raw)
			if err != nil {
				return err
			}
			if cur.Epoch != expectEpoch {
				return fmt.Errorf("%w: record at epoch %d, expected %d", ErrConflict, cur.Epoch, expectEpoch)
			}
		}
		return tx.SysPut(ctx, ConfigKey, value)
	})
}
