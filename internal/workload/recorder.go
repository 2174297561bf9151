package workload

import (
	"time"

	"repdir/internal/obs"
)

// Recorder is the coordinated-omission-safe latency recorder: callers
// hand it the operation's *intended* start time (its slot on the arrival
// schedule), its actual execution start, and its completion. Response
// time — intended start to completion — charges the system for every
// microsecond an operation spent queued behind the system's own
// slowness; service time — execution start to completion — is what a
// closed-loop driver would have measured. Both feed internal/obs
// histograms, so snapshots merge and quantiles (overflow-exact, see
// obs.HistogramSnapshot.Max) come for free. The zero value is ready;
// safe for concurrent use.
type Recorder struct {
	response obs.Histogram
	service  obs.Histogram
}

// Record captures one operation. intended may equal execStart (a
// closed-loop caller that genuinely had no schedule), in which case
// response and service coincide.
func (r *Recorder) Record(intended, execStart, done time.Time) {
	r.response.Observe(done.Sub(intended))
	r.service.Observe(done.Sub(execStart))
}

// Response snapshots the response-time histogram (from intended start).
func (r *Recorder) Response() obs.HistogramSnapshot { return r.response.Snapshot() }

// Service snapshots the service-time histogram (from execution start).
func (r *Recorder) Service() obs.HistogramSnapshot { return r.service.Snapshot() }
