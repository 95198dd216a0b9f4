package gap

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"mobisink/internal/knapsack"
)

// This file is the differential reference for the compiled engine: the
// pointer form of a GAP instance (Instance, Bin, Entry) with its checker
// (Assignment.Check) and exhaustive optimum, and the local-ratio sweep and
// the density greedy written over it, one knapsack oracle call per bin and
// one candidate struct per entry, with their own same-group reduction.
// The compiled engine must match them bit for bit. Compile and
// Compiled.Solve are the Instance-level wrappers the tests use over the
// Builder.

// Entry is one eligible (bin, item) pair. A zero weight means no entry:
// Compile drops it, as the Builder does, while the references here
// would take it as a free item, so they are compared on positive
// weights only.
type Entry struct {
	Item   int     // item index in [0, NumItems)
	Profit float64 // profit if the bin receives the item
	Weight float64 // capacity consumed in this bin
}

// Bin is one capacitated bin and the items it may receive.
type Bin struct {
	Capacity float64
	Entries  []Entry
}

// Instance is a sparse GAP instance.
type Instance struct {
	NumItems int
	Bins     []Bin
	// ItemGroup, when non-nil (len NumItems), assigns each item a conflict
	// group: within any single bin, at most one item per group may be
	// assigned. Negative group ids mean "unconstrained". The fleet
	// reduction uses groups for the "one sink per absolute time slot"
	// constraint — items are (sink, slot) pairs and the group id is the
	// absolute slot, so a sensor (bin) may talk to at most one sink in any
	// given time slot. Different bins may freely use the same group.
	ItemGroup []int
}

// groupOf returns item j's conflict group, or -1 when unconstrained.
func (inst *Instance) groupOf(j int) int {
	if inst.ItemGroup == nil {
		return -1
	}
	if g := inst.ItemGroup[j]; g >= 0 {
		return g
	}
	return -1
}

// Validate makes the Builder's checks on the instance: item count and
// ranges, conflict-group length, signs, and per-bin duplicate entries.
func (inst *Instance) Validate() error {
	_, err := inst.compile(0, 0)
	return err
}

// compile writes the instance into a new Builder bin by bin.
func (inst *Instance) compile(quantum, eps float64) (*Compiled, error) {
	b := new(Builder)
	b.Reset(inst.NumItems, inst.ItemGroup, quantum, eps)
	for _, bin := range inst.Bins {
		b.Bin(bin.Capacity)
		for _, e := range bin.Entries {
			b.Add(e.Item, e.Profit, e.Weight)
		}
	}
	return b.Compiled()
}

// Assignment maps each item to its bin (or -1 for unassigned).
type Assignment struct {
	ItemBin []int
	Profit  float64
}

// NewAssignment returns an all-unassigned assignment for n items.
func NewAssignment(n int) *Assignment {
	ib := make([]int, n)
	for i := range ib {
		ib[i] = -1
	}
	return &Assignment{ItemBin: ib}
}

// Check verifies the assignment is feasible for the instance and that
// Profit is consistent; it returns the recomputed profit.
func (a *Assignment) Check(inst *Instance) (float64, error) {
	if len(a.ItemBin) != inst.NumItems {
		return 0, fmt.Errorf("gap: assignment covers %d items, instance has %d", len(a.ItemBin), inst.NumItems)
	}
	used := make([]float64, len(inst.Bins))
	var groupUsed map[[2]int]bool
	if inst.ItemGroup != nil {
		groupUsed = map[[2]int]bool{}
	}
	total := 0.0
	for item, b := range a.ItemBin {
		if b == -1 {
			continue
		}
		if b < 0 || b >= len(inst.Bins) {
			return 0, fmt.Errorf("gap: item %d assigned to invalid bin %d", item, b)
		}
		e, ok := findEntry(inst.Bins[b].Entries, item)
		if !ok {
			return 0, fmt.Errorf("gap: item %d assigned to bin %d which is not eligible", item, b)
		}
		used[b] += e.Weight
		total += e.Profit
		if g := inst.groupOf(item); g >= 0 {
			key := [2]int{b, g}
			if groupUsed[key] {
				return 0, fmt.Errorf("gap: bin %d assigned two items of conflict group %d", b, g)
			}
			groupUsed[key] = true
		}
	}
	for b, w := range used {
		if !knapsack.Fits(w, inst.Bins[b].Capacity) {
			return 0, fmt.Errorf("gap: bin %d overfull: %v > %v", b, w, inst.Bins[b].Capacity)
		}
	}
	return total, nil
}

func findEntry(entries []Entry, item int) (Entry, bool) {
	for _, e := range entries {
		if e.Item == item {
			return e, true
		}
	}
	return Entry{}, false
}

// Exhaustive finds the optimal assignment by exhaustive search; it is
// exponential and meant for tiny instances only. It returns an error when
// the search space exceeds maxStates.
func Exhaustive(inst *Instance, maxStates uint64) (*Assignment, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	// Search space: each item picks one of its eligible bins or none.
	states := uint64(1)
	perItem := make([][]int, inst.NumItems) // eligible bins per item
	for b, bin := range inst.Bins {
		for _, e := range bin.Entries {
			perItem[e.Item] = append(perItem[e.Item], b)
		}
	}
	for _, bins := range perItem {
		m := uint64(len(bins) + 1)
		if states > maxStates/m {
			return nil, fmt.Errorf("gap: exhaustive search space exceeds %d states", maxStates)
		}
		states *= m
	}

	best := NewAssignment(inst.NumItems)
	cur := NewAssignment(inst.NumItems)
	residual := make([]float64, len(inst.Bins))
	for b := range residual {
		residual[b] = inst.Bins[b].Capacity
	}
	// groupTaken reports whether bin b already holds an item of item's
	// conflict group among the currently assigned lower-indexed items
	// (Exhaustive is the optimum reference, so it enforces the group
	// constraint exactly rather than via the dominance reduction).
	groupTaken := func(b, item int) bool {
		g := inst.groupOf(item)
		if g < 0 {
			return false
		}
		for j := 0; j < item; j++ {
			if cur.ItemBin[j] == b && inst.groupOf(j) == g {
				return true
			}
		}
		return false
	}
	var dfs func(item int, profit float64)
	dfs = func(item int, profit float64) {
		if item == inst.NumItems {
			if profit > best.Profit {
				best.Profit = profit
				copy(best.ItemBin, cur.ItemBin)
			}
			return
		}
		// Skip the item.
		cur.ItemBin[item] = -1
		dfs(item+1, profit)
		for _, b := range perItem[item] {
			e, _ := findEntry(inst.Bins[b].Entries, item)
			if e.Profit <= 0 || e.Weight > residual[b] || groupTaken(b, item) {
				continue
			}
			cur.ItemBin[item] = b
			residual[b] -= e.Weight
			dfs(item+1, profit+e.Profit)
			residual[b] += e.Weight
			cur.ItemBin[item] = -1
		}
	}
	dfs(0, 0)
	return best, nil
}

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

// Solve runs SolveInto with a fresh Scratch and materializes the result
// as an Assignment.
func (c *Compiled) Solve(ctx context.Context) (*Assignment, error) {
	itemBin := make([]int32, c.NumItems)
	if err := c.SolveInto(ctx, new(Scratch), itemBin); err != nil {
		return nil, err
	}
	return assignmentOf(itemBin, c.profitOf(itemBin)), nil
}

// greedy runs Compiled.Greedy with a fresh Scratch as an Assignment.
func (c *Compiled) greedy() *Assignment {
	itemBin := make([]int32, c.NumItems)
	if err := c.Greedy(new(Scratch), itemBin); err != nil {
		panic(err)
	}
	return assignmentOf(itemBin, c.profitOf(itemBin))
}

// profitOf is a pass's profit: each item's entry in the bin that owns
// it, summed in bin-major entry order, the order the pointer reference
// sweep sums in, so the two totals agree bit for bit.
func (c *Compiled) profitOf(itemBin []int32) float64 {
	total := 0.0
	for b := range c.Cap {
		for k := c.Off[b]; k < c.Off[b+1]; k++ {
			if itemBin[c.Item[k]] == int32(b) {
				total += c.Profit[k]
			}
		}
	}
	return total
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
	a.Profit = binMajorProfit(inst, a.ItemBin)
	return a, nil
}

// binMajorProfit sums each assigned item's profit in its bin, bin by bin
// in entry order: the order Compiled.profitOf sums in, so a reference
// and a compiled pass that assign alike report bit-equal profits.
func binMajorProfit(inst *Instance, itemBin []int) float64 {
	total := 0.0
	for b := range inst.Bins {
		for _, e := range inst.Bins[b].Entries {
			if itemBin[e.Item] == b {
				total += e.Profit
			}
		}
	}
	return total
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
	}
	a.Profit = binMajorProfit(inst, a.ItemBin)
	return a, nil
}
