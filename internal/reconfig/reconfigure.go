package reconfig

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repdir/internal/core"
	"repdir/internal/quorum"
	"repdir/internal/rep"
)

// Addition describes a member joining the suite.
type Addition struct {
	Dir     rep.Directory
	Votes   int
	Witness bool
	// Addr is recorded in the member spec so other processes can dial
	// the newcomer (optional for single-process topologies).
	Addr string
}

// Change describes one reconfiguration: members to add (seeded online
// before they get votes), members to remove, vote reweights, and new
// quorum sizes (zero keeps the current value).
type Change struct {
	Add      []Addition
	Remove   []string
	Reweight map[string]int
	R, W     int
}

// apply computes the target side from the current one.
func (c Change) apply(cur Side) (Side, error) {
	removed := make(map[string]bool, len(c.Remove))
	for _, name := range c.Remove {
		removed[name] = true
	}
	target := Side{R: cur.R, W: cur.W}
	have := make(map[string]bool)
	for _, spec := range cur.Members {
		if removed[spec.Name] {
			delete(removed, spec.Name)
			continue
		}
		if v, ok := c.Reweight[spec.Name]; ok {
			spec.Votes = v
		}
		have[spec.Name] = true
		target.Members = append(target.Members, spec)
	}
	for name := range removed {
		return Side{}, fmt.Errorf("reconfig: remove %s: %w", name, quorum.ErrNotMember)
	}
	for _, add := range c.Add {
		name := add.Dir.Name()
		if have[name] {
			return Side{}, fmt.Errorf("reconfig: %s is already a member", name)
		}
		have[name] = true
		target.Members = append(target.Members, MemberSpec{
			Name: name, Votes: add.Votes, Witness: add.Witness, Addr: add.Addr,
		})
	}
	if c.R != 0 {
		target.R = c.R
	}
	if c.W != 0 {
		target.W = c.W
	}
	return target, nil
}

// Reconfigure drives one configuration change end to end:
//
//  1. refresh, completing any joint transition a crashed predecessor
//     left behind;
//  2. seed newcomers online from the current suite (they hold every
//     entry, gap version, and the record itself before they vote);
//  3. commit the joint record at epoch e+1 under the old epoch's
//     quorums, with a transactional epoch check against concurrent
//     reconfigurations (ErrConflict);
//  4. fence a blocking set of old members at e+1, so no stale-epoch
//     client can still assemble an old read or write quorum;
//  5. operate jointly (old AND new thresholds) while reconciling every
//     target member to full currency;
//  6. commit the stable record at e+2 under the joint quorums and fence
//     it, completing the handoff.
//
// A crash after step 3 leaves the durable joint record; any later
// Reconfigure (or CompleteTransition) resumes at step 4. Faulted
// members during steps 4-6 make the call fail retryably without losing
// the transition.
func (m *Manager) Reconfigure(ctx context.Context, change Change) (Record, error) {
	rec, err := m.Refresh(ctx)
	if err != nil {
		return Record{}, err
	}
	if rec.Phase == PhaseJoint {
		rec, err = m.completeJoint(ctx, rec)
		if err != nil {
			return Record{}, err
		}
	}
	target, err := change.apply(rec.Current)
	if err != nil {
		return Record{}, err
	}
	for _, add := range change.Add {
		m.mu.Lock()
		m.dirs[add.Dir.Name()] = add.Dir
		m.mu.Unlock()
	}
	// Validate both the target alone and the joint pairing before
	// touching anything.
	targetCfg, err := m.sideConfig(target, rec.Epoch+1)
	if err != nil {
		return Record{}, err
	}
	oldCfg, err := m.sideConfig(rec.Current, rec.Epoch)
	if err != nil {
		return Record{}, err
	}
	if err := (quorum.Joint{Old: oldCfg, New: targetCfg}).Validate(); err != nil {
		return Record{}, err
	}

	// Seed newcomers before they carry votes, gap versions included:
	// a deletion lives only in gap versions, and a member that missed it
	// would otherwise resurrect ghosts into new quorums.
	cur := m.Suite()
	for _, add := range change.Add {
		if _, err := core.RepairReplica(ctx, cur, add.Dir, core.RepairOptions{}); err != nil {
			return Record{}, fmt.Errorf("reconfig: seed %s: %w", add.Dir.Name(), err)
		}
	}

	// Commit the joint record under the OLD epoch through joint quorums:
	// the write lands on both sides' write quorums, so it is readable
	// under the old configuration (for laggards) and the new one (for
	// the future), and the transactional epoch check serializes racing
	// reconfigurations.
	jrec := Record{Epoch: rec.Epoch + 1, Phase: PhaseJoint, Current: target, Old: &rec.Current}
	writeSuite, err := m.jointSuiteAt(rec.Current, target, rec.Epoch)
	if err != nil {
		return Record{}, err
	}
	defer writeSuite.Close()
	if err := m.casWriteRecord(ctx, writeSuite, rec.Epoch, jrec); err != nil {
		return Record{}, err
	}

	return m.completeJoint(ctx, jrec)
}

// CompleteTransition finishes a joint transition left behind by a
// crashed or interrupted reconfiguration, if one is pending. It returns
// the stable record in force afterwards.
func (m *Manager) CompleteTransition(ctx context.Context) (Record, error) {
	rec, err := m.Refresh(ctx)
	if err != nil {
		return Record{}, err
	}
	if rec.Phase != PhaseJoint {
		return rec, nil
	}
	return m.completeJoint(ctx, rec)
}

// completeJoint takes a committed joint record to its stable epoch:
// fence the joint epoch, operate jointly while reconciling every target
// member, commit the stable record, fence it, and switch.
func (m *Manager) completeJoint(ctx context.Context, jrec Record) (Record, error) {
	// Fence the joint epoch on a blocking set of old members: once too
	// few unfenced old votes remain for either an old read or an old
	// write quorum, no stale-epoch client can commit against the old
	// configuration alone.
	union := unionSpecs(*jrec.Old, jrec.Current)
	if err := m.fenceEpoch(ctx, jrec.Epoch, union, *jrec.Old); err != nil {
		return Record{}, err
	}
	js, err := m.buildSuite(jrec)
	if err != nil {
		return Record{}, err
	}
	m.install(jrec, js)

	// Catch-up: every target member fully current before the new
	// configuration stands alone. Entries written before the transition
	// reached only old write quorums, which new read quorums need not
	// intersect — full reconciliation of each target member closes that
	// gap (witnesses included: they need the versions, and the value
	// blanking is theirs to do).
	for _, spec := range jrec.Current.Members {
		d, err := m.resolveDir(spec)
		if err != nil {
			return Record{}, err
		}
		if _, err := core.RepairReplica(ctx, js, d, core.RepairOptions{}); err != nil {
			return Record{}, fmt.Errorf("reconfig: catch up %s: %w", spec.Name, err)
		}
	}

	srec := Record{Epoch: jrec.Epoch + 1, Phase: PhaseStable, Current: jrec.Current}
	if err := m.casWriteRecord(ctx, js, jrec.Epoch, srec); err != nil {
		return Record{}, err
	}
	// Fence the stable epoch. The blocking side is again the old one:
	// joint quorums need old-side votes, so blocking the old side blocks
	// joint-epoch stragglers too; removed members are part of the union
	// and get fenced out of any future quorum they could mislead.
	if err := m.fenceEpoch(ctx, srec.Epoch, union, *jrec.Old); err != nil {
		return Record{}, err
	}
	ss, err := m.buildSuite(srec)
	if err != nil {
		return Record{}, err
	}
	m.install(srec, ss)
	return srec, nil
}

// jointSuiteAt builds a joint-quorum suite stamped with the given epoch
// (the CAS write of a joint record runs under the old epoch; the joint
// phase itself runs under the new one).
func (m *Manager) jointSuiteAt(old, cur Side, epoch uint64) (*core.Suite, error) {
	oldCfg, err := m.sideConfig(old, epoch)
	if err != nil {
		return nil, err
	}
	newCfg, err := m.sideConfig(cur, epoch)
	if err != nil {
		return nil, err
	}
	joint := quorum.Joint{Old: oldCfg, New: newCfg}
	if err := joint.Validate(); err != nil {
		return nil, err
	}
	cfg := joint.Config(epoch)
	opts := append(m.optionsFor(cfg),
		core.WithSelector(quorum.NewJointSelector(joint, m.selSeed+int64(epoch))))
	return core.NewSuite(cfg, opts...)
}

// unionSpecs merges two sides' member specs by name (first occurrence
// wins; only the name and directory matter to fencing).
func unionSpecs(a, b Side) []MemberSpec {
	seen := make(map[string]bool)
	var out []MemberSpec
	for _, s := range append(append([]MemberSpec{}, a.Members...), b.Members...) {
		if seen[s.Name] {
			continue
		}
		seen[s.Name] = true
		out = append(out, s)
	}
	return out
}

// fenceAttempts bounds the fencing probe loop; with the per-attempt
// backoff this rides out transient unavailability windows without
// stalling a reconfiguration behind a dead member forever.
const fenceAttempts = 24

// fenceEpoch advances the epoch fence on the given members via Status
// probes (Status is never itself fenced, but it adopts newer epochs —
// the wire-level "advance your fence" verb). It succeeds once the
// unfenced votes of blockSide can no longer form either of blockSide's
// quorums: unfenced < min(R, W). Members beyond the blocking set are
// fenced opportunistically — any operation they later serve at the new
// epoch fences them virally anyway.
func (m *Manager) fenceEpoch(ctx context.Context, epoch uint64, members []MemberSpec, blockSide Side) error {
	fctx := rep.WithEpoch(ctx, epoch)
	blockVotes := make(map[string]int, len(blockSide.Members))
	for _, s := range blockSide.Members {
		blockVotes[s.Name] = s.Votes
	}
	need := blockSide.R
	if blockSide.W < need {
		need = blockSide.W
	}
	fenced := make(map[string]bool, len(members))
	var lastErr error
	for attempt := 0; attempt < fenceAttempts; attempt++ {
		allFenced := true
		for _, spec := range members {
			if fenced[spec.Name] {
				continue
			}
			d, err := m.resolveDir(spec)
			if err != nil {
				return err
			}
			if _, err := d.Status(fctx, 0); err != nil {
				lastErr = err
				allFenced = false
				continue
			}
			fenced[spec.Name] = true
		}
		unfenced := 0
		for name, votes := range blockVotes {
			if !fenced[name] {
				unfenced += votes
			}
		}
		if allFenced || unfenced < need {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(attempt+1) * time.Millisecond):
		}
	}
	return fmt.Errorf("%w at epoch %d: %v", ErrFenceIncomplete, epoch, lastErr)
}

// IsRetryable reports whether a failed Reconfigure is worth retrying
// later: everything except semantic rejections (a conflicting
// concurrent change, a change referencing a non-member). Retryable
// failures after the joint record committed leave a durable transition
// that the retry resumes via CompleteTransition.
func IsRetryable(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrConflict) &&
		!errors.Is(err, quorum.ErrNotMember)
}
