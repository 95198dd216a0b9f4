package gap

import (
	"context"
	"errors"
	"testing"

	"mobisink/internal/knapsack"
)

// solverForTests is an exact DP oracle over unit-quantum weights.
func solverForTests() knapsack.SolverCtx {
	return func(ctx context.Context, items []knapsack.Item, c float64) (knapsack.Solution, error) {
		return knapsack.DPCtx(ctx, items, c, 1)
	}
}

// windowBin builds one bin eligible for items [lo, hi] with unit weights
// and the given per-item profits (cycled).
func windowBin(lo, hi int, capacity float64, profits ...float64) Bin {
	b := Bin{Capacity: capacity}
	for j := lo; j <= hi; j++ {
		b.Entries = append(b.Entries, Entry{Item: j, Profit: profits[(j-lo)%len(profits)], Weight: 1})
	}
	return b
}

// TestLocalRatioCtxCanceled: a canceled context aborts the sweep.
func TestLocalRatioCtxCanceled(t *testing.T) {
	inst := &Instance{NumItems: 6, Bins: []Bin{
		windowBin(0, 5, 3, 4, 7, 2, 9, 1, 5),
		windowBin(0, 5, 2, 8, 3, 6, 1, 7, 2),
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LocalRatioCtx(ctx, inst, solverForTests()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
