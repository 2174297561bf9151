package obs

import (
	"sync/atomic"
	"time"
)

// ObserverConfig tunes an Observer. The zero value means defaults.
type ObserverConfig struct {
	// NoTrace disables per-operation tracing; histograms and counters
	// are still collected.
	NoTrace bool
}

// Observer aggregates the instrumentation one directory suite emits:
// per-operation latency histograms and traces, per-2PC-phase latency,
// message counts per operation (the paper's section 4 cost unit), and
// the per-delete neighbor-probe statistics of Figure 12. All methods
// are nil-receiver safe, so an uninstrumented suite pays one nil check
// per operation.
type Observer struct {
	tracer *Tracer

	ops    *HistogramVec // operation latency, by op label
	phases *HistogramVec // 2PC phase latency, by phase label

	opCount  *CounterVec // completed operations, by op
	opErrors *CounterVec // completed operations that failed, by op
	opMsgs   *CounterVec // representative messages sent, by op

	// Paper-metric counters: per-committed-Delete statistics, from
	// which the exposition derives probes-per-delete and
	// walk-steps-per-delete gauges matching the section 4 tables.
	deletes         atomic.Uint64
	neighborProbes  atomic.Uint64
	walkSteps       atomic.Uint64
	ghostDeletions  atomic.Uint64
	boundInsertions atomic.Uint64

	// Storage-fault counters: what recovery salvaged, what it gave up
	// on, and how far rebuild-from-peers has gotten.
	walSalvages      atomic.Uint64
	salvagedRecords  atomic.Uint64
	quarantinedBytes atomic.Uint64
	rebuilds         atomic.Uint64
	rebuildEntries   atomic.Uint64

	// Reconfiguration counters: epoch transitions committed, operations
	// fenced for carrying a stale epoch, and read-quorum votes served by
	// zero-data witness replicas.
	reconfigEpochs  atomic.Uint64
	staleRejections atomic.Uint64
	witnessVotes    atomic.Uint64
}

// StorageStats is a snapshot of the storage-fault counters.
type StorageStats struct {
	// Salvages counts WAL recoveries that stopped before a clean EOF
	// and quarantined a tail.
	Salvages uint64
	// SalvagedRecords counts records recovered by those salvages.
	SalvagedRecords uint64
	// QuarantinedBytes counts unreadable tail bytes moved to sidecars.
	QuarantinedBytes uint64
	// Rebuilds counts replicas that opened empty and were rebuilt from
	// a quorum of peers.
	Rebuilds uint64
	// RebuildEntries counts entries installed on rebuilding replicas.
	RebuildEntries uint64
}

// NewObserver builds an observer.
func NewObserver(cfg ObserverConfig) *Observer {
	o := &Observer{
		ops:      NewHistogramVec(),
		phases:   NewHistogramVec(),
		opCount:  NewCounterVec(),
		opErrors: NewCounterVec(),
		opMsgs:   NewCounterVec(),
	}
	if !cfg.NoTrace {
		o.tracer = NewTracer()
	}
	return o
}

// StartTrace begins a trace for one operation (nil when tracing is off
// or the observer is nil — the returned nil *Trace is safe to use).
func (o *Observer) StartTrace(op string) *Trace {
	if o == nil {
		return nil
	}
	return o.tracer.Start(op)
}

// Tracer returns the observer's tracer (nil when tracing is off).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// OpDone records one completed suite operation: its latency, its
// message count, and whether it failed.
func (o *Observer) OpDone(op string, d time.Duration, msgs int, err error) {
	if o == nil {
		return
	}
	o.ops.With(op).Observe(d)
	o.opCount.Add(op, 1)
	if msgs > 0 {
		o.opMsgs.Add(op, uint64(msgs))
	}
	if err != nil {
		o.opErrors.Add(op, 1)
	}
}

// PhaseDone records one completed 2PC phase round.
func (o *Observer) PhaseDone(phase string, d time.Duration) {
	if o == nil {
		return
	}
	o.phases.With(phase).Observe(d)
}

// DeleteObserved records one committed Delete's section 4 statistics.
func (o *Observer) DeleteObserved(neighborProbes, walkSteps, ghostDeletions, boundInsertions int) {
	if o == nil {
		return
	}
	o.deletes.Add(1)
	o.neighborProbes.Add(uint64(neighborProbes))
	o.walkSteps.Add(uint64(walkSteps))
	o.ghostDeletions.Add(uint64(ghostDeletions))
	o.boundInsertions.Add(uint64(boundInsertions))
}

// SalvageObserved records one WAL salvage: how many records survived
// and how many tail bytes were quarantined.
func (o *Observer) SalvageObserved(records int, quarantined int64) {
	if o == nil {
		return
	}
	o.walSalvages.Add(1)
	o.salvagedRecords.Add(uint64(records))
	if quarantined > 0 {
		o.quarantinedBytes.Add(uint64(quarantined))
	}
}

// RebuildStarted records one replica opening empty for rebuild from
// peers.
func (o *Observer) RebuildStarted() {
	if o == nil {
		return
	}
	o.rebuilds.Add(1)
}

// RebuildProgress records entries installed on a rebuilding replica.
func (o *Observer) RebuildProgress(entries int) {
	if o == nil || entries <= 0 {
		return
	}
	o.rebuildEntries.Add(uint64(entries))
}

// EpochAdvanced records one committed configuration-epoch transition.
func (o *Observer) EpochAdvanced() {
	if o == nil {
		return
	}
	o.reconfigEpochs.Add(1)
}

// StaleRejected records one operation fenced with rep.ErrStaleEpoch.
func (o *Observer) StaleRejected() {
	if o == nil {
		return
	}
	o.staleRejections.Add(1)
}

// WitnessVotes records read-quorum votes served by witness replicas.
func (o *Observer) WitnessVotes(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.witnessVotes.Add(uint64(n))
}

// Storage returns a snapshot of the storage-fault counters.
func (o *Observer) Storage() StorageStats {
	if o == nil {
		return StorageStats{}
	}
	return StorageStats{
		Salvages:         o.walSalvages.Load(),
		SalvagedRecords:  o.salvagedRecords.Load(),
		QuarantinedBytes: o.quarantinedBytes.Load(),
		Rebuilds:         o.rebuilds.Load(),
		RebuildEntries:   o.rebuildEntries.Load(),
	}
}

// ReconfigStats is a snapshot of the reconfiguration counters.
type ReconfigStats struct {
	// Epochs counts committed configuration-epoch transitions.
	Epochs uint64
	// StaleRejections counts operations fenced with rep.ErrStaleEpoch.
	StaleRejections uint64
	// WitnessVotes counts read-quorum votes served by witness replicas.
	WitnessVotes uint64
}

// Reconfig returns a snapshot of the reconfiguration counters.
func (o *Observer) Reconfig() ReconfigStats {
	if o == nil {
		return ReconfigStats{}
	}
	return ReconfigStats{
		Epochs:          o.reconfigEpochs.Load(),
		StaleRejections: o.staleRejections.Load(),
		WitnessVotes:    o.witnessVotes.Load(),
	}
}

// OpLatency returns the latency histogram snapshot for one operation.
func (o *Observer) OpLatency(op string) HistogramSnapshot {
	if o == nil {
		return HistogramSnapshot{}
	}
	return o.ops.With(op).Snapshot()
}

// PhaseLatency returns the latency histogram snapshot for one 2PC phase.
func (o *Observer) PhaseLatency(phase string) HistogramSnapshot {
	if o == nil {
		return HistogramSnapshot{}
	}
	return o.phases.With(phase).Snapshot()
}

// OpCounts returns completed-operation counts by op.
func (o *Observer) OpCounts() map[string]uint64 {
	if o == nil {
		return nil
	}
	return o.opCount.Snapshot()
}

// MessagesPerOp returns the mean number of representative messages per
// completed operation of the given type — the paper's section 4 cost
// metric, read from live traffic.
func (o *Observer) MessagesPerOp(op string) float64 {
	if o == nil {
		return 0
	}
	n := o.opCount.Get(op)
	if n == 0 {
		return 0
	}
	return float64(o.opMsgs.Get(op)) / float64(n)
}

// ProbesPerDelete returns the mean neighbor probes per committed
// Delete (Figure 12's message count).
func (o *Observer) ProbesPerDelete() float64 {
	n := o.deletesObserved()
	if n == 0 {
		return 0
	}
	return float64(o.neighborProbes.Load()) / float64(n)
}

func (o *Observer) deletesObserved() uint64 {
	if o == nil {
		return 0
	}
	return o.deletes.Load()
}

// Register exposes the observer's metrics on reg under repdir_* names.
func (o *Observer) Register(reg *Registry) {
	if o == nil {
		return
	}
	reg.HistogramVec("repdir_op_latency_seconds",
		"Latency of directory suite operations, by operation type.",
		[]string{"op"}, func() []HistSample {
			snaps := o.ops.Snapshot()
			out := make([]HistSample, 0, len(snaps))
			for op, s := range snaps {
				out = append(out, HistSample{Labels: []string{op}, Snap: s})
			}
			return out
		})
	reg.HistogramVec("repdir_txn_phase_latency_seconds",
		"Latency of two-phase-commit rounds, by phase (prepare/commit/abort).",
		[]string{"phase"}, func() []HistSample {
			snaps := o.phases.Snapshot()
			out := make([]HistSample, 0, len(snaps))
			for ph, s := range snaps {
				out = append(out, HistSample{Labels: []string{ph}, Snap: s})
			}
			return out
		})
	reg.CounterMap("repdir_ops_total",
		"Completed directory suite operations, by operation type.",
		"op", o.opCount.Snapshot)
	reg.CounterMap("repdir_op_errors_total",
		"Completed directory suite operations that returned an error, by type.",
		"op", o.opErrors.Snapshot)
	reg.CounterMap("repdir_op_messages_total",
		"Representative messages sent by suite operations, by operation type.",
		"op", o.opMsgs.Snapshot)
	reg.GaugeMap("repdir_messages_per_op",
		"Mean representative messages per completed operation (paper section 4).",
		"op", func() map[string]float64 {
			out := make(map[string]float64)
			for op := range o.opCount.Snapshot() {
				out[op] = o.MessagesPerOp(op)
			}
			return out
		})
	reg.Counter("repdir_deletes_observed_total",
		"Committed Delete operations with recorded section 4 statistics.",
		o.deletes.Load)
	reg.Counter("repdir_delete_neighbor_probes_total",
		"Neighbor probe messages sent by real-predecessor/successor searches (Figure 12).",
		o.neighborProbes.Load)
	reg.Counter("repdir_delete_walk_steps_total",
		"Iterations of the real-predecessor/successor search loops.",
		o.walkSteps.Load)
	reg.Counter("repdir_delete_ghost_deletions_total",
		"Ghost entries removed while coalescing, beyond the deleted entry itself.",
		o.ghostDeletions.Load)
	reg.Counter("repdir_delete_bound_insertions_total",
		"Predecessor/successor copies installed on write-quorum members while coalescing.",
		o.boundInsertions.Load)
	reg.Gauge("repdir_neighbor_probes_per_delete",
		"Mean neighbor probes per committed Delete (Figure 12 message count).",
		o.ProbesPerDelete)
	reg.Counter("repdir_storage_salvages_total",
		"WAL recoveries that stopped before a clean EOF and quarantined a tail.",
		o.walSalvages.Load)
	reg.Counter("repdir_storage_salvaged_records_total",
		"Valid records recovered by WAL salvage scans.",
		o.salvagedRecords.Load)
	reg.Counter("repdir_storage_quarantined_bytes_total",
		"Unreadable WAL tail bytes moved to quarantine sidecars.",
		o.quarantinedBytes.Load)
	reg.Counter("repdir_storage_rebuilds_total",
		"Replicas opened empty and rebuilt from a quorum of peers.",
		o.rebuilds.Load)
	reg.Counter("repdir_storage_rebuild_entries_total",
		"Entries installed on rebuilding replicas by rebuild-from-peers.",
		o.rebuildEntries.Load)
	reg.Counter("repdir_reconfig_epochs_total",
		"Configuration-epoch transitions committed by reconfiguration.",
		o.reconfigEpochs.Load)
	reg.Counter("repdir_reconfig_stale_rejections_total",
		"Operations fenced for carrying a stale configuration epoch.",
		o.staleRejections.Load)
	reg.Counter("repdir_reconfig_witness_votes_total",
		"Read-quorum votes served by zero-data witness replicas.",
		o.witnessVotes.Load)
	if o.tracer != nil {
		reg.Counter("repdir_traces_finished_total",
			"Operation traces completed.", o.tracer.Finished)
	}
}
