package core

import (
	"context"

	"repdir/internal/rep"
	"repdir/internal/transport"
)

// Epoch fencing: a suite built from an epoch-numbered configuration
// (quorum.Config.Epoch > 0) stamps every representative call with that
// epoch, and representatives refuse calls whose epoch is older than the
// newest they have seen (rep.ErrStaleEpoch). Stamping happens in one
// place — every quorum round and repair target passes through wrapDir —
// so a client still holding a superseded configuration fails loudly on
// its first fenced operation instead of silently writing to quorums
// that no longer intersect the current ones.
//
// The stamp never overrides an epoch already present on the context:
// reconfiguration reads the config record under rep.EpochBypass, and
// that must survive the wrapper.

// Epoch returns the configuration epoch this suite stamps on its
// operations; zero for a legacy (pre-reconfiguration) suite.
func (s *Suite) Epoch() uint64 { return s.cfg.Epoch }

// wrapDir wraps a representative so every call carries the suite's
// epoch (wrapping twice is harmless: the first stamp stands). Name
// passes through, so transaction participant dedup (txn.Join, by name)
// is unaffected.
func (s *Suite) wrapDir(d rep.Directory) rep.Directory {
	if s.cfg.Epoch == 0 {
		return d
	}
	return &transport.Middleware{Hook: &epochStamp{dir: d, epoch: s.cfg.Epoch}}
}

// epochStamp is the transport hook that stamps a configuration epoch
// onto every call's context unless the caller already chose one
// (including rep.EpochBypass).
type epochStamp struct {
	dir   rep.Directory
	epoch uint64
}

func (h *epochStamp) Name() string { return h.dir.Name() }

func (h *epochStamp) Enter(ctx context.Context, _ transport.Op) (transport.Call, error) {
	if rep.EpochFromContext(ctx) == 0 {
		ctx = rep.WithEpoch(ctx, h.epoch)
	}
	return transport.Call{Ctx: ctx, Dir: h.dir}, nil
}

func (*epochStamp) Exit(_ transport.Call, _ transport.Op, err error) error { return err }
