package knapsack

import (
	"context"
	"math"
	"sync"
)

// SolverCtx is a context-aware Solver: implementations poll ctx at coarse
// checkpoints (per DP item layer, every few thousand search nodes) and
// return ctx.Err() as soon as it is non-nil, so a canceled job stops
// burning its worker mid-solve instead of running to completion.
type SolverCtx func(ctx context.Context, items []Item, capacity float64) (Solution, error)

// nodeCheckInterval is how many branch-and-bound nodes are expanded
// between context polls; DP solvers poll once per item layer instead.
const nodeCheckInterval = 4096

// arenaPool recycles flat-kernel arenas across the []Item entry points so
// the serving path does not reallocate DP tables per request. Callers that
// hold their own Arena (the compiled GAP sweep) bypass the pool entirely.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

func getArena() *Arena { return arenaPool.Get().(*Arena) }

func putArena(a *Arena) {
	a.Trim()
	arenaPool.Put(a)
}

// itemArrays splits items into the arena's parallel profit/weight buffers
// so the flat kernels can run over them; candidate positions then coincide
// with item indices.
func (a *Arena) itemArrays(items []Item) (prof, wt []float64) {
	n := len(items)
	if cap(a.wprof) < n {
		a.wprof = make([]float64, n)
	}
	if cap(a.wwt) < n {
		a.wwt = make([]float64, n)
	}
	prof, wt = a.wprof[:n], a.wwt[:n]
	for i, it := range items {
		prof[i] = it.Profit
		wt[i] = it.Weight
	}
	return prof, wt
}

// solutionOf materializes a kernel's ascending picks as a Solution,
// summing profit and weight in ascending-index order (the historical
// `finish` order, so totals stay bit-identical). remap, when non-nil,
// translates candidate positions back to item indices.
func solutionOf(items []Item, picks []int32, remap []int32) Solution {
	if len(picks) == 0 {
		return Solution{}
	}
	s := Solution{Picked: make([]int, len(picks))}
	for j, p := range picks {
		i := int(p)
		if remap != nil {
			i = int(remap[p])
		}
		s.Picked[j] = i
		s.Profit += items[i].Profit
		s.Weight += items[i].Weight
	}
	return s
}

// DPCtx is DP with cancellation: the context is polled once per item layer
// and ctx.Err() is returned on expiry. The DP runs on the flat kernel over
// a pooled arena.
func DPCtx(ctx context.Context, items []Item, capacity float64, quantum float64) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	if quantum <= 0 {
		quantum = 1e-6
	}
	capU := int(math.Floor(capacity / quantum))
	if capU < 0 {
		return Solution{}, nil
	}
	a := getArena()
	defer putArena(a)
	// Prefilter on the float feasibility rule and quantize; the kernel
	// receives only viable candidates, in input order, so its ascending
	// picks map back through wmap to ascending item indices.
	prof := a.wprof[:0]
	wq := a.wq[:0]
	remap := a.wmap[:0]
	for i, it := range items {
		if !usable(it, capacity) {
			continue
		}
		w := int(math.Ceil(it.Weight/quantum - 1e-9))
		if w > capU {
			continue
		}
		prof = append(prof, it.Profit)
		wq = append(wq, int32(w))
		remap = append(remap, int32(i))
	}
	a.wprof, a.wq, a.wmap = prof, wq, remap
	picks, _, err := a.DPFlat(ctx, prof, wq, capU)
	if err != nil {
		return Solution{}, err
	}
	return solutionOf(items, picks, remap), nil
}

// BranchAndBoundCtx is BranchAndBound with cancellation: the context is
// polled every nodeCheckInterval search nodes. Runs on the flat kernel
// over a pooled arena.
func BranchAndBoundCtx(ctx context.Context, items []Item, capacity float64) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	a := getArena()
	defer putArena(a)
	prof, wt := a.itemArrays(items)
	picks, _, err := a.BranchAndBoundFlat(ctx, prof, wt, capacity)
	if err != nil {
		return Solution{}, err
	}
	return solutionOf(items, picks, nil), nil
}

// FPTASCtx returns a SolverCtx with the same (1−ε)·OPT guarantee as FPTAS,
// polling the context once per item layer of the profit-scaling DP. Runs
// on the flat kernel over a pooled arena.
func FPTASCtx(eps float64) SolverCtx {
	if eps <= 0 || eps >= 1 {
		panic("knapsack: FPTAS epsilon must be in (0,1)")
	}
	return func(ctx context.Context, items []Item, capacity float64) (Solution, error) {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		a := getArena()
		defer putArena(a)
		prof, wt := a.itemArrays(items)
		picks, _, err := a.FPTASFlat(ctx, eps, prof, wt, capacity)
		if err != nil {
			return Solution{}, err
		}
		return solutionOf(items, picks, nil), nil
	}
}

// MaxProfitUnderCtx is MaxProfitUnder with cancellation, polled once per
// item layer of the minimum-weight DP. Runs on the flat kernel over a
// pooled arena.
func MaxProfitUnderCtx(ctx context.Context, items []Item, capacity, profitCap, profitQuantum float64) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	a := getArena()
	defer putArena(a)
	prof, wt := a.itemArrays(items)
	picks, _, err := a.MaxProfitUnderFlat(ctx, prof, wt, capacity, profitCap, profitQuantum)
	if err != nil {
		return Solution{}, err
	}
	return solutionOf(items, picks, nil), nil
}
