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

// Batch solves many instances with one named algorithm, amortizing the
// flat-engine setup and scheduling whole instances across a work-stealing
// worker pool (workers ≤ 0 means GOMAXPROCS). Results come back in input
// order; a per-instance failure (including a nil instance) lands in that
// item's Err instead of aborting its siblings. The returned error is
// reserved for batch-level problems (an unknown algorithm).
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
	for i, inst := range insts {
		if inst == nil {
			items[i].Err = errors.New("solve: nil instance")
		}
	}
	// Precompile outside the pool when the algorithm supports it: compile
	// work is measured (solve_compile_ns) and the per-instance solvers
	// then ride the flat path with zero redundant validation.
	var compiled []*core.Compiled
	if as, ok := s.(*approSolver); ok {
		compiled = make([]*core.Compiled, len(insts))
		for i, inst := range insts {
			if items[i].Err != nil {
				continue
			}
			start := time.Now()
			c, err := core.CompileAppro(inst, as.opts)
			if err != nil {
				items[i].Err = err
				continue
			}
			compileNs.Observe(float64(time.Since(start).Nanoseconds()))
			compiled[i] = c
		}
	}
	stats, _ := parallel.ForEachStealing(len(insts), workers, func(i int) error {
		if items[i].Err != nil {
			return nil
		}
		start := time.Now()
		var alloc *core.Allocation
		var err error
		if compiled != nil {
			alloc, err = compiled[i].Solve(ctx)
		} else {
			alloc, err = s.Solve(ctx, insts[i])
		}
		items[i] = BatchItem{Alloc: alloc, Err: err, Elapsed: time.Since(start)}
		return nil
	})
	stealTotal.Add(float64(stats.Steals))
	return items, nil
}
