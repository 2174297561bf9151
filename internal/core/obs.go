package core

import (
	"repdir/internal/obs"
)

// observerOption attaches an obs.Observer to the suite.
// WithObserver instruments the suite with the observability layer:
// every operation is traced (quorum rounds, neighbor walks, 2PC phases,
// wait-die backoffs), timed into per-operation latency histograms, and
// message-counted (the paper's section 4 cost unit). A nil observer
// leaves the suite uninstrumented — identical to omitting the option.
func WithObserver(o *obs.Observer) Option { return func(s *Suite) { s.obs = o } }

// Observer returns the suite's observer, or nil when none is attached.
func (s *Suite) Observer() *obs.Observer { return s.obs }

// RegisterMetrics exposes the suite's counters — and, when attached,
// its observer — on reg under repdir_* names for the Prometheus text
// endpoint.
func (s *Suite) RegisterMetrics(reg *obs.Registry) {
	reg.CounterMap("repdir_suite_events_total",
		"Cumulative suite transaction events, by event kind.",
		"event", func() map[string]uint64 {
			st := s.Stats()
			return map[string]uint64{
				"calls":          st.Calls,
				"commits":        st.Commits,
				"failures":       st.Failures,
				"cancelled":      st.Cancelled,
				"retries":        st.Retries,
				"dies":           st.Dies,
				"replica_losses": st.ReplicaLosses,
			}
		})
	s.obs.Register(reg)
}
