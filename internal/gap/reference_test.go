package gap

import (
	"context"
	"errors"
	"slices"
	"sort"

	"mobisink/internal/knapsack"
)

// This file is the differential reference for the compiled engine: the
// local-ratio sweep and the density greedy written over the pointer form
// (Instance), one knapsack oracle call per bin and one candidate struct
// per entry, with their own same-group reduction. The compiled engine
// must match them bit for bit. Compile and Compiled.Solve are the
// Instance-level wrappers the tests use over the Builder.

// Oracle is the reference sweep's knapsack: it packs the candidates
// (profit[i], weight[i]) under capacity and returns the picked positions,
// ascending.
type Oracle func(ctx context.Context, profit, weight []float64, capacity float64) ([]int32, error)

// DPOracle is the exact DP at quantum over one bin's candidates, as a
// per-call oracle runs it: the candidates heavier than the capacity are
// dropped first, the rest rounded by the kernel's rule.
func DPOracle(quantum float64) Oracle {
	return func(ctx context.Context, profit, weight []float64, capacity float64) ([]int32, error) {
		var prof []float64
		var wq, remap []int32
		for i := range profit {
			if profit[i] > 0 && weight[i] <= capacity {
				prof = append(prof, profit[i])
				wq = append(wq, knapsack.QuantizeWeight(weight[i], quantum))
				remap = append(remap, int32(i))
			}
		}
		picks, _, err := knapsack.NewArena().DPFlat(ctx, prof, wq, int(knapsack.QuantizeCapacity(capacity, quantum)))
		for x, p := range picks {
			picks[x] = remap[p]
		}
		return picks, err
	}
}

// FPTASOracle is the (1−eps)-FPTAS over one bin's candidates.
func FPTASOracle(eps float64) Oracle {
	return func(ctx context.Context, profit, weight []float64, capacity float64) ([]int32, error) {
		picks, _, err := knapsack.NewArena().FPTASFlat(ctx, eps, profit, weight, capacity)
		return slices.Clone(picks), err
	}
}

// Compile feeds inst into a Builder bin by bin.
func Compile(inst *Instance, quantum, eps float64) (*Compiled, error) {
	if inst == nil {
		return nil, errors.New("gap: nil instance")
	}
	return inst.compile(quantum, eps)
}

// Solve runs SolveInto with pooled scratch and materializes the result as
// an Assignment.
func (c *Compiled) Solve(ctx context.Context) (*Assignment, error) {
	itemBin := make([]int32, c.NumItems)
	profit, err := c.SolveInto(ctx, nil, itemBin)
	if err != nil {
		return nil, err
	}
	return assignmentOf(itemBin, profit), nil
}

// greedy runs Compiled.Greedy with pooled scratch as an Assignment.
func (c *Compiled) greedy() *Assignment {
	itemBin := make([]int32, c.NumItems)
	profit, err := c.Greedy(nil, itemBin)
	if err != nil {
		panic(err)
	}
	return assignmentOf(itemBin, profit)
}

func assignmentOf(itemBin []int32, profit float64) *Assignment {
	a := &Assignment{ItemBin: make([]int, len(itemBin)), Profit: profit}
	for j, b := range itemBin {
		a.ItemBin[j] = int(b)
	}
	return a
}

// refReduceGroups computes the same-group dominance reduction for one
// bin: among the bin's assignable entries whose items share a conflict
// group, only the dominant entry — max profit, then min weight, then
// lowest item — survives. It returns a per-entry drop mask, nil when no
// group holds two assignable entries.
func refReduceGroups(entries []Entry, capacity float64, itemGroup []int) []bool {
	if itemGroup == nil {
		return nil
	}
	winner := map[int]int{}
	reduced := false
	for k, e := range entries {
		g := itemGroup[e.Item]
		if g < 0 || e.Profit <= 0 || e.Weight > capacity {
			continue
		}
		w, ok := winner[g]
		if !ok {
			winner[g] = k
			continue
		}
		reduced = true
		win := entries[w]
		if e.Profit > win.Profit ||
			(e.Profit == win.Profit && e.Weight < win.Weight) ||
			(e.Profit == win.Profit && e.Weight == win.Weight && e.Item < win.Item) {
			winner[g] = k
		}
	}
	if !reduced {
		return nil
	}
	drop := make([]bool, len(entries))
	for k, e := range entries {
		g := itemGroup[e.Item]
		if g < 0 || e.Profit <= 0 || e.Weight > capacity {
			continue
		}
		drop[k] = winner[g] != k
	}
	return drop
}

// LocalRatioCtx runs the Cohen-Katzir-Raz sweep over the pointer form
// with the given knapsack oracle, processing bins in index order.
func LocalRatioCtx(ctx context.Context, inst *Instance, solve Oracle) (*Assignment, error) {
	if solve == nil {
		return nil, errors.New("gap: nil knapsack solver")
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	a := NewAssignment(inst.NumItems)
	// lastClaim[j] is the original profit of (l, j) for the most recent
	// bin l whose knapsack selected item j.
	lastClaim := make([]float64, inst.NumItems)
	for b, bin := range inst.Bins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var profit, weight []float64
		var itemIdx []int
		drop := refReduceGroups(bin.Entries, bin.Capacity, inst.ItemGroup)
		for k, e := range bin.Entries {
			if drop != nil && drop[k] {
				continue
			}
			residual := e.Profit - lastClaim[e.Item]
			if residual <= 0 {
				continue
			}
			profit, weight = append(profit, residual), append(weight, e.Weight)
			itemIdx = append(itemIdx, e.Item)
		}
		picks, err := solve(ctx, profit, weight, bin.Capacity)
		if err != nil {
			return nil, err
		}
		for _, k := range picks {
			j := itemIdx[k]
			e, _ := findEntry(bin.Entries, j)
			lastClaim[j] = e.Profit
			a.ItemBin[j] = b
		}
	}
	// Each item belongs to the last bin that selected it.
	for b := range inst.Bins {
		for _, e := range inst.Bins[b].Entries {
			if a.ItemBin[e.Item] == b {
				a.Profit += e.Profit
			}
		}
	}
	return a, nil
}

type cand struct {
	bin     int
	e       Entry
	density float64
}

// Greedy considers all (bin, item) entries in decreasing profit-per-weight
// density and assigns each still-unassigned item to the first bin with
// enough residual capacity.
func Greedy(inst *Instance) (*Assignment, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	var cands []cand
	for b, bin := range inst.Bins {
		drop := refReduceGroups(bin.Entries, bin.Capacity, inst.ItemGroup)
		for k, e := range bin.Entries {
			if e.Profit <= 0 || e.Weight > bin.Capacity || (drop != nil && drop[k]) {
				continue
			}
			d := 1e308
			if e.Weight > 0 {
				d = e.Profit / e.Weight
			}
			cands = append(cands, cand{b, e, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.density != b.density {
			return a.density > b.density
		}
		if a.e.Profit != b.e.Profit {
			return a.e.Profit > b.e.Profit
		}
		if a.bin != b.bin {
			return a.bin < b.bin
		}
		return a.e.Item < b.e.Item
	})
	a := NewAssignment(inst.NumItems)
	residual := make([]float64, len(inst.Bins))
	for b := range residual {
		residual[b] = inst.Bins[b].Capacity
	}
	for _, c := range cands {
		if a.ItemBin[c.e.Item] != -1 || c.e.Weight > residual[c.bin] {
			continue
		}
		a.ItemBin[c.e.Item] = c.bin
		residual[c.bin] -= c.e.Weight
		a.Profit += c.e.Profit
	}
	return a, nil
}
