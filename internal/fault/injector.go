package fault

import (
	"fmt"
	"slices"

	"repdir/internal/rep"
)

// Injector manages a suite's worth of fault members built over
// write-ahead-logged representatives.
type Injector struct {
	plan    Plan
	seed    int64
	opts    []rep.Option
	members []*Member
}

// NewInjector builds one recovering member per name, with per-member
// fault streams derived deterministically from seed. The rep options
// apply to every member the injector builds, and to its restarts.
func NewInjector(names []string, plan Plan, seed int64, opts ...rep.Option) *Injector {
	in := &Injector{plan: plan, seed: seed, opts: opts}
	for _, n := range names {
		in.Add(n)
	}
	return in
}

// Add builds one more recovering member under the injector's plan and
// returns it. The new member's fault stream is derived from the
// injector seed and its construction index, so a reconfiguration
// schedule that adds members at fixed points replays identically under
// the same seed. Extra rep options (rep.AsWitness, ...) pass through to
// the representative and its restarts.
func (in *Injector) Add(name string, opts ...rep.Option) *Member {
	m, _ := NewRecovering(name, in.plan, in.seed+int64(len(in.members))*7919, slices.Concat(in.opts, opts)...)
	in.members = append(in.members, m)
	return m
}

// Members returns the fault members in construction order.
func (in *Injector) Members() []*Member { return in.members }

// Directories returns the members as rep.Directory values, for quorum
// configuration.
func (in *Injector) Directories() []rep.Directory {
	out := make([]rep.Directory, len(in.members))
	for i, m := range in.members {
		out[i] = m
	}
	return out
}

// Suspend pauses (true) or resumes (false) every member's fault
// injection without discarding the plans; see Member.Suspend.
func (in *Injector) Suspend(v bool) {
	for _, m := range in.members {
		m.Suspend(v)
	}
}

// Heal ends every open fault window, restarting crashed members from
// their logs. It returns the first restart failure, if any.
func (in *Injector) Heal() error {
	var first error
	for _, m := range in.members {
		if err := m.Heal(); err != nil && first == nil {
			first = fmt.Errorf("fault: heal %s: %w", m.Name(), err)
		}
	}
	return first
}

// Stats returns every member's injection counters, keyed by name.
func (in *Injector) Stats() map[string]Stats {
	out := make(map[string]Stats, len(in.members))
	for _, m := range in.members {
		out[m.Name()] = m.Stats()
	}
	return out
}
