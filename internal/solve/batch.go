package solve

import (
	"context"
	"errors"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/parallel"
)

// BatchItem is the outcome of one instance in a Batch call.
type BatchItem struct {
	Alloc   *core.Allocation
	Err     error
	Elapsed time.Duration
}

// Batch solves many instances with one named algorithm, scheduling whole
// instances across a work-stealing worker pool (workers ≤ 0 means
// GOMAXPROCS). Results come back in input order; a per-instance failure
// (including a nil instance) lands in that item's Err instead of aborting
// its siblings. An item's Elapsed is its whole solve, the compile of its
// reduction included. The returned error is reserved for batch-level
// problems (an unknown algorithm).
//
// Whole instances are the scheduling granularity on purpose: they are
// large enough to amortize a task dispatch, and the stealing pool keeps
// workers busy when instance sizes are skewed.
func Batch(ctx context.Context, algorithm string, insts []*core.Instance, opts Options, workers int) ([]BatchItem, error) {
	s, err := New(algorithm, opts)
	if err != nil {
		return nil, err
	}
	batchSize.Observe(float64(len(insts)))
	items := make([]BatchItem, len(insts))
	if len(insts) == 0 {
		return items, nil
	}
	stats, _ := parallel.ForEachStealing(len(insts), workers, func(i int) error {
		if insts[i] == nil {
			items[i].Err = errors.New("solve: nil instance")
			return nil
		}
		start := time.Now()
		alloc, err := s.Solve(ctx, insts[i])
		items[i] = BatchItem{Alloc: alloc, Err: err, Elapsed: time.Since(start)}
		return nil
	})
	stealTotal.Add(float64(stats.Steals))
	return items, nil
}
