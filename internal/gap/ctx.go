package gap

import (
	"context"
	"errors"
	"sync"

	"mobisink/internal/knapsack"
)

// BinSolverCtx is a context-aware BinSolver; it returns the context's
// error once the context is done, aborting the local-ratio sweep.
type BinSolverCtx func(ctx context.Context, bin int, items []knapsack.Item, capacity float64) (knapsack.Solution, error)

// lrScratch holds the per-sweep arrays of one LocalRatio run (residual
// profit claims plus the per-bin item staging buffers), pooled so the
// serving path does not reallocate O(T) state on every request.
type lrScratch struct {
	claim   []float64
	items   []knapsack.Item
	itemIdx []int
}

const lrScratchMax = 1 << 20

var lrPool = sync.Pool{New: func() any { return new(lrScratch) }}

func getLRScratch(numItems int) *lrScratch {
	s := lrPool.Get().(*lrScratch)
	if cap(s.claim) < numItems {
		s.claim = make([]float64, numItems)
	}
	s.claim = s.claim[:numItems]
	for i := range s.claim {
		s.claim[i] = 0
	}
	s.items = s.items[:0]
	s.itemIdx = s.itemIdx[:0]
	return s
}

func putLRScratch(s *lrScratch) {
	if cap(s.claim) > lrScratchMax {
		s.claim = nil
	}
	if cap(s.items) > lrScratchMax {
		s.items = nil
		s.itemIdx = nil
	}
	lrPool.Put(s)
}

// LocalRatioCtx is LocalRatio with cancellation: the context is polled
// before each bin's knapsack and threaded into the oracle itself, so a
// canceled request aborts mid-sweep (and mid-knapsack) instead of packing
// every remaining bin.
func LocalRatioCtx(ctx context.Context, inst *Instance, solve knapsack.SolverCtx) (*Assignment, error) {
	if solve == nil {
		return nil, errors.New("gap: nil knapsack solver")
	}
	return LocalRatioBinsCtx(ctx, inst, func(ctx context.Context, _ int, items []knapsack.Item, capacity float64) (knapsack.Solution, error) {
		return solve(ctx, items, capacity)
	})
}

// LocalRatioBinsCtx is LocalRatioBins with cancellation (see LocalRatioCtx).
func LocalRatioBinsCtx(ctx context.Context, inst *Instance, solve BinSolverCtx) (*Assignment, error) {
	if solve == nil {
		return nil, errors.New("gap: nil bin solver")
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	lastBin := make([]int, inst.NumItems)
	for i := range lastBin {
		lastBin[i] = -1
	}
	a := &Assignment{ItemBin: lastBin}
	if err := localRatioSweep(ctx, inst, solve, a); err != nil {
		return nil, err
	}
	return a, nil
}

// localRatioSweep runs the residual-profit sweep over every bin in order,
// writing claims into out.ItemBin and accumulating out.Profit.
func localRatioSweep(ctx context.Context, inst *Instance, solve BinSolverCtx, out *Assignment) error {
	// lastClaim[j] is the original profit of (l, j) for the most recent bin
	// l whose knapsack selected item j; the residual profit of (i, j) is
	// orig(i, j) − lastClaim[j]. This implements the paper's decomposition
	// D^{(l+1)} / T^{(l+1)} without materializing the n×T matrices.
	sc := getLRScratch(inst.NumItems)
	defer putLRScratch(sc)
	lastClaim := sc.claim
	for b := range inst.Bins {
		if err := ctx.Err(); err != nil {
			return err
		}
		bin := inst.Bins[b]
		sc.items = sc.items[:0]
		sc.itemIdx = sc.itemIdx[:0]
		// Same-group dominance reduction (fleet instances): the oracle only
		// ever sees one candidate per (bin, conflict group), mirroring the
		// compile-time reduction of the flat engine so both paths hand the
		// knapsack identical candidate slices.
		drop, _ := reduceGroups(bin.Entries, bin.Capacity, inst.ItemGroup)
		for k, e := range bin.Entries {
			if drop != nil && drop[k] {
				continue
			}
			residual := e.Profit - lastClaim[e.Item]
			if residual <= 0 {
				continue // the knapsack would never take it
			}
			sc.items = append(sc.items, knapsack.Item{Profit: residual, Weight: e.Weight})
			sc.itemIdx = append(sc.itemIdx, e.Item)
		}
		sol, err := solve(ctx, b, sc.items, bin.Capacity)
		if err != nil {
			return err
		}
		for _, k := range sol.Picked {
			j := sc.itemIdx[k]
			e, _ := findEntry(bin.Entries, j)
			lastClaim[j] = e.Profit
			out.ItemBin[j] = b
		}
	}
	// Final pass (paper Algorithm 1 lines 9-12): S_l = S̄_l \ ∪_{j>l} S̄_j,
	// i.e. each item belongs to the last bin that selected it — which is
	// exactly what ItemBin now records.
	for b := range inst.Bins {
		for _, e := range inst.Bins[b].Entries {
			if out.ItemBin[e.Item] == b {
				out.Profit += e.Profit
			}
		}
	}
	return nil
}
