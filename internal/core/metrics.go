package core

// DeleteObservation reports what one committed DirSuiteDelete did, in the
// terms of the paper's section 4 statistics.
type DeleteObservation struct {
	// Key is the deleted key's spelling.
	Key string
	// EntriesCoalesced holds, per write-quorum member, the number of
	// entries that lay strictly between the real predecessor and real
	// successor on that representative — the deleted entry if present
	// there, plus any ghosts ("Entries in ranges coalesced").
	EntriesCoalesced []int
	// Insertions is the number of real-predecessor/real-successor copies
	// that had to be inserted into write-quorum members lacking them
	// ("Insertions while coalescing").
	Insertions int
	// GhostDeletions is the number of ghost entries removed across the
	// write quorum, i.e. deletions beyond the target entry itself
	// ("Deletions while coalescing").
	GhostDeletions int
	// PredecessorWalkSteps and SuccessorWalkSteps count the iterations
	// of the RealPredecessor / RealSuccessor search loops (Figure 12):
	// 1 means the first candidate was already current; each extra step
	// skipped a ghost.
	PredecessorWalkSteps int
	SuccessorWalkSteps   int
	// NeighborRPCs is the number of DirRepPredecessor/DirRepSuccessor
	// messages both searches sent in total: one to each reader for its
	// neighborhood of the key, f entries each way at neighbor fanout f —
	// the section 4 batching optimization — and one for each time a
	// member is asked again, after a walk has moved past what it sent.
	NeighborRPCs int
}

// Metrics observes committed deletions. Implementations must be safe for
// use from the goroutine running the operation; the suite reports each
// observation after its transaction commits, never for aborted attempts.
type Metrics interface {
	ObserveDelete(DeleteObservation)
}
