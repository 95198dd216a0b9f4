package gap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
			for j := c.First[k]; j < c.First[k]+c.Count[k]; j++ {
				if itemBin[j] == int32(b) {
					total += c.Profit[k]
				}
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
	return localRatio(ctx, inst, solve, nil)
}

// localRatio is LocalRatioCtx; observe, when non-nil, sees each bin's
// index and the claims before its knapsack runs.
func localRatio(ctx context.Context, inst *Instance, solve Oracle, observe func(b int, claim []float64)) (*Assignment, error) {
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
		if observe != nil {
			observe(b, lastClaim)
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

// SequentialRef is the sequential packer over the pointer form, one
// candidate per entry: bins in order, each packing the entries it could
// hold (positive profit and weight, within its capacity) whose items no
// earlier bin took, one per conflict group of group — max profit, then
// min weight, then the first, at the place of the group's first such
// entry — with the doubly constrained knapsack where dataCap is finite,
// else the DP at quantum, else the FPTAS at eps.
func SequentialRef(ctx context.Context, inst *Instance, group []int, dataCap []float64, dataQuantum, quantum, eps float64) (*Assignment, error) {
	a := NewAssignment(inst.NumItems)
	ar := knapsack.NewArena()
	for b, bin := range inst.Bins {
		var cands []Entry
		at := map[int]int{}
		for _, e := range bin.Entries {
			if !(e.Profit > 0 && e.Weight > 0 && e.Weight <= bin.Capacity) || a.ItemBin[e.Item] >= 0 {
				continue
			}
			if group != nil && group[e.Item] >= 0 {
				if x, ok := at[group[e.Item]]; ok {
					if w := cands[x]; e.Profit > w.Profit || (e.Profit == w.Profit && e.Weight < w.Weight) {
						cands[x] = e
					}
					continue
				}
				at[group[e.Item]] = len(cands)
			}
			cands = append(cands, e)
		}
		profit, weight, wq := make([]float64, len(cands)), make([]float64, len(cands)), make([]int32, len(cands))
		for x, e := range cands {
			profit[x], weight[x] = e.Profit, e.Weight
			if quantum > 0 {
				wq[x] = knapsack.QuantizeWeight(e.Weight, quantum)
			}
		}
		var picks []int32
		var err error
		switch {
		case dataCap != nil && !math.IsInf(dataCap[b], 1):
			picks, _, err = ar.MaxProfitUnderFlat(ctx, profit, weight, bin.Capacity, dataCap[b], dataQuantum)
		case quantum > 0:
			picks, _, err = ar.DPFlat(ctx, profit, wq, int(knapsack.QuantizeCapacity(bin.Capacity, quantum)))
		default:
			picks, _, err = ar.FPTASFlat(ctx, eps, profit, weight, bin.Capacity)
		}
		if err != nil {
			return nil, err
		}
		for _, p := range picks {
			a.ItemBin[cands[p].Item] = b
		}
	}
	a.Profit = binMajorProfit(inst, a.ItemBin)
	return a, nil
}

// runQuantum is the DP oracle's weight quantum on run-structured draws.
const runQuantum = 0.1

// runShape is one run a draw lists in a bin: count items from first on,
// each of one profit and weight there.
type runShape struct {
	first, count   int
	profit, weight float64
}

// runDraw is a random run-structured instance: its per-entry form, one
// entry per item of each run, and each bin's runs as listed.
type runDraw struct {
	inst *Instance
	runs [][]runShape
	huge bool // some profit is 2^53 or more
}

// drawRuns draws a run-structured instance the way the rate table lays
// out a tour: each bin a window of items, listed as runs of one profit
// and weight, the windows of different bins overlapping so that earlier
// bins' claims cut later bins' runs partway and leave residual holes
// inside them. Runs repeat the last run's link, adjacent (the Builder
// folds them) or after a dead stretch (two compiled runs whose pieces
// merge, and Greedy ties within a bin); some weights round to zero
// quanta and some to one quantum more than the bin's capacity holds;
// and one draw in three adds profits of 2^53 and more, beside which the
// float sums absorb the small ones. groups gives the items conflict
// groups.
func drawRuns(rng *rand.Rand, groups bool) runDraw {
	items := 6 + rng.Intn(30)
	d := runDraw{inst: &Instance{NumItems: items}}
	profits := []float64{1, 2, 3, 5, 7}
	if rng.Intn(3) == 0 {
		d.huge = true
		profits = append(profits, 1<<53, 1<<54, 1<<54+4, 1<<55)
	}
	for b := 2 + rng.Intn(6); b > 0; b-- {
		// capU = k quanta; heavy fits the capacity but rounds to k+1.
		k := 2 + rng.Intn(10)
		capacity := (float64(k) + 0.5) * runQuantum
		weights := []float64{0.1, 0.2, 0.3, 0.5, 1e-12, capacity - 0.01}
		start := rng.Intn(items)
		end := min(items, start+2+rng.Intn(16))
		var runs []runShape
		for j := start; j < end; {
			n := min(end-j, 1+rng.Intn(5))
			switch r := rng.Intn(10); {
			case r == 0: // a dead stretch, not listed
			case r == 1: // listed, with no profit
				runs = append(runs, runShape{j, n, 0, weights[rng.Intn(len(weights))]})
			case r <= 4 && len(runs) > 0:
				last := runs[len(runs)-1]
				runs = append(runs, runShape{j, n, last.profit, last.weight})
			default:
				runs = append(runs, runShape{j, n, profits[rng.Intn(len(profits))], weights[rng.Intn(len(weights))]})
			}
			j += n
		}
		bin := Bin{Capacity: capacity}
		for _, r := range runs {
			for j := r.first; j < r.first+r.count; j++ {
				bin.Entries = append(bin.Entries, Entry{Item: j, Profit: r.profit, Weight: r.weight})
			}
		}
		d.inst.Bins, d.runs = append(d.inst.Bins, bin), append(d.runs, runs)
	}
	if groups {
		n := 2 + rng.Intn(4)
		d.inst.ItemGroup = make([]int, items)
		for j := range d.inst.ItemGroup {
			d.inst.ItemGroup[j] = j % n
			if j%7 == 6 {
				d.inst.ItemGroup[j] = -1 // unconstrained
			}
		}
	}
	return d
}

// compile writes the draw into b, one Run per run, or one Add per item
// when perItem, under the draw's conflict groups when grouped.
func (d runDraw) compile(b *Builder, quantum, eps float64, perItem, grouped bool) (*Compiled, error) {
	var group []int
	if grouped {
		group = d.inst.ItemGroup
	}
	b.Reset(d.inst.NumItems, group, quantum, eps)
	for i, runs := range d.runs {
		b.Bin(d.inst.Bins[i].Capacity)
		for _, r := range runs {
			if !perItem {
				b.Run(r.first, r.count, r.profit, r.weight)
				continue
			}
			for j := r.first; j < r.first+r.count; j++ {
				b.Add(j, r.profit, r.weight)
			}
		}
	}
	return b.Compiled()
}

// runFeatures counts the shapes of a draw's exact-DP sweep that the run
// engine must cut, merge or skip correctly: runs whose positive
// residuals take two values (split by a claim), runs with a residual
// hole between positive ones, runs heavier than the bin, zero-quantum
// runs with a positive residual, bins whose float sum absorbs a
// positive residual, consecutive DP candidates of two compiled runs that
// merge (one residual and weight), and runs of one bin tied on density
// and profit for Greedy.
type runFeatures struct {
	split, hole, heavy, free, absorbed, seam, tie int
}

// add counts the features of the draw's ungrouped DP sweep, replaying
// the reference sweep over c, its ungrouped compiled form at runQuantum.
func (f *runFeatures) add(d runDraw, c *Compiled) error {
	inst := *d.inst
	inst.ItemGroup = nil
	_, err := localRatio(context.Background(), &inst, DPOracle(runQuantum), func(b int, claim []float64) {
		lastRes, lastW, lastRun := 0.0, int32(-1), -1
		lo, hi := math.Inf(1), 0.0
		for k := int(c.Off[b]); k < int(c.Off[b+1]); k++ {
			if c.WQ[k] > c.CapU[b] {
				f.heavy++
				continue
			}
			for l := int(c.Off[b]); l < k; l++ {
				if c.Profit[l]/c.Weight[l] == c.Profit[k]/c.Weight[k] && c.Profit[l] == c.Profit[k] {
					f.tie++
				}
			}
			var pos []float64
			gap := false
			for j := c.First[k]; j < c.First[k]+c.Count[k]; j++ {
				res := c.Profit[k] - claim[j]
				if res <= 0 {
					gap = gap || len(pos) > 0
					continue
				}
				if gap {
					f.hole++
					gap = false
				}
				if len(pos) > 0 && res != pos[len(pos)-1] {
					f.split++
				}
				pos = append(pos, res)
				if c.WQ[k] == 0 {
					f.free++
					continue
				}
				if lastRun >= 0 && lastRun != k && res == lastRes && c.WQ[k] == lastW {
					f.seam++
				}
				lastRes, lastW, lastRun = res, c.WQ[k], k
				lo, hi = min(lo, res), max(hi, res)
			}
		}
		if hi+lo == hi {
			f.absorbed++
		}
	})
	return err
}
