package rep

import "sync/atomic"

// Counters are cumulative operation counts for one representative,
// suitable for operational dashboards (repdir-server prints them at
// shutdown).
//
// Each counts calls served — the paper's messages, counted where they
// arrive — not the steps a call performs: a one-shot Lookup is one
// Lookups and no Aborts although it releases its lock, and an Insert or
// Coalesce that carries the prepare is one Inserts or Coalesces and no
// Prepares although it prepares. Summed, they are the messages this
// representative received.
type Counters struct {
	Lookups        uint64
	NeighborProbes uint64
	Inserts        uint64
	Coalesces      uint64
	// EntriesCoalesced is the total number of entries removed by
	// coalesce operations — the physical ghost-collection work this
	// replica performed.
	EntriesCoalesced uint64
	Prepares         uint64
	Commits          uint64
	Aborts           uint64
	// StaleRejections counts fenced operations refused because the
	// caller carried an outdated configuration epoch.
	StaleRejections uint64
}

// counters is the atomic backing store embedded in Rep.
type counters struct {
	lookups          atomic.Uint64
	neighborProbes   atomic.Uint64
	inserts          atomic.Uint64
	coalesces        atomic.Uint64
	entriesCoalesced atomic.Uint64
	prepares         atomic.Uint64
	commits          atomic.Uint64
	aborts           atomic.Uint64
	staleRejections  atomic.Uint64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Lookups:          c.lookups.Load(),
		NeighborProbes:   c.neighborProbes.Load(),
		Inserts:          c.inserts.Load(),
		Coalesces:        c.coalesces.Load(),
		EntriesCoalesced: c.entriesCoalesced.Load(),
		Prepares:         c.prepares.Load(),
		Commits:          c.commits.Load(),
		Aborts:           c.aborts.Load(),
		StaleRejections:  c.staleRejections.Load(),
	}
}

// Map flattens the snapshot into name→count pairs, keyed by the
// snake_case names the metrics exposition uses.
func (c Counters) Map() map[string]uint64 {
	return map[string]uint64{
		"lookups":           c.Lookups,
		"neighbor_probes":   c.NeighborProbes,
		"inserts":           c.Inserts,
		"coalesces":         c.Coalesces,
		"entries_coalesced": c.EntriesCoalesced,
		"prepares":          c.Prepares,
		"commits":           c.Commits,
		"aborts":            c.Aborts,
		"stale_rejections":  c.StaleRejections,
	}
}

// Counters returns a snapshot of the representative's operation counts.
func (r *Rep) Counters() Counters {
	return r.stats.snapshot()
}
