package core

import (
	"context"
	"errors"
	"sync"

	"mobisink/internal/gap"
)

// Compiled is the reusable fast-path form of OfflineAppro for one
// instance: the sensor order, the GAP reduction, and the per-entry
// quantized-weight tables are computed once, so repeated solves (batch
// jobs, benchmarks, cached serving) skip the per-call instance validation
// and reduction rebuild entirely. A Compiled is safe for concurrent
// solves; it assumes the underlying Instance's sensors, horizon, and
// budgets are not mutated after compilation (DataCaps may change — the
// Appro reduction does not read them).
type Compiled struct {
	inst  *Instance
	order []int
	g     *gap.Compiled
}

// CompileAppro builds the flat solving form of the paper's Offline_Appro
// for inst under opts. It errors when opts carries a custom Knapsack
// oracle — an opaque callback cannot be compiled; callers keep the legacy
// path for that case.
func CompileAppro(inst *Instance, opts Options) (*Compiled, error) {
	if inst == nil {
		return nil, errors.New("core: nil instance")
	}
	if opts.Knapsack != nil {
		return nil, errors.New("core: custom knapsack oracle is not compilable")
	}
	eps := opts.Eps
	if eps <= 0 {
		eps = 0.1
	}
	quantum := 0.0
	if !opts.ForceFPTAS {
		if q, ok := inst.WeightQuantum(); ok {
			quantum = q
		}
	}
	order := sensorOrder(inst)
	g, err := gap.Compile(buildGAP(inst, order), quantum, eps)
	if err != nil {
		return nil, err
	}
	return &Compiled{inst: inst, order: order, g: g}, nil
}

// itemBinPool recycles the per-solve slot→bin arrays.
var itemBinPool = sync.Pool{New: func() any { return new([]int32) }}

// Solve runs the local-ratio sweep on the compiled form. The allocation is
// bit-identical to OfflineApproCtx on the original instance. The Options
// argument is ignored: Knapsack, Eps, and ForceFPTAS were fixed at compile
// time.
func (c *Compiled) Solve(ctx context.Context, _ Options) (*Allocation, error) {
	bp := itemBinPool.Get().(*[]int32)
	defer itemBinPool.Put(bp)
	if cap(*bp) < c.inst.T {
		*bp = make([]int32, c.inst.T)
	}
	itemBin := (*bp)[:c.inst.T]
	if _, err := c.g.SolveInto(ctx, nil, itemBin); err != nil {
		return nil, err
	}
	alloc := c.inst.NewAllocation()
	for j, b := range itemBin {
		if b >= 0 {
			alloc.SlotOwner[j] = c.order[b]
		}
	}
	c.inst.RecomputeData(alloc)
	return alloc, nil
}
