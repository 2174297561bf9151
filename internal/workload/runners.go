package workload

import (
	"context"

	"repdir/internal/core"
)

// SuiteRunner adapts a suite's transactional API to Preload batching.
func SuiteRunner(s *core.Suite) TxnRunner {
	return func(ctx context.Context, fn func(Inserter) error) error {
		return s.RunInTxn(ctx, func(tx *core.Tx) error { return fn(tx) })
	}
}
