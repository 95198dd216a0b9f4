// Package gap solves the Generalized Assignment Problem (GAP): pack items
// into capacitated bins where each (bin, item) pair has its own profit and
// weight, maximizing total profit. The data collection maximization problem
// reduces to GAP with bins = sensors (capacity = per-tour energy budget) and
// items = time slots (paper Thm 1).
//
// A Builder writes an instance bin by bin into the compiled form
// (Compiled), which runs the Cohen-Katzir-Raz local-ratio algorithm the
// paper adopts (its ref. [3]; Compiled.SolveInto), a density-greedy
// baseline (Compiled.Greedy) and the sequential packer of the data-cap
// extension (Compiled.Sequential). Instance is the pointer form, kept for
// the exhaustive optimum and for checking assignments.
package gap

import "fmt"

// Entry is one eligible (bin, item) pair.
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
		if w > inst.Bins[b].Capacity+1e-9 {
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
// exponential and intended only for tiny instances in tests and
// fraction-of-optimum reports. It returns an error when the search space
// exceeds maxStates.
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
