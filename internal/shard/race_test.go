//go:build race

package shard

// raceEnabled lets the allocation-count tests skip themselves under the
// race detector, which allocates on its own account.
const raceEnabled = true
