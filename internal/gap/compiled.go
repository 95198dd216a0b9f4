package gap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"mobisink/internal/knapsack"
)

// Compiled is the structure-of-arrays form of an Instance: entries live in
// contiguous bin-major CSR arrays and weights are pre-quantized for the
// exact DP oracle. It is built once (validating the instance exactly once)
// and reused across solver calls; Solve/SolveInto are safe for concurrent
// use.
//
// Entries that can never be assigned — non-positive profit, or weight
// exceeding the bin capacity — are dropped at compile time; the local-ratio
// sweep over the compiled form is bit-identical to the sweep over the
// original instance, which filters them per call instead.
type Compiled struct {
	NumItems int

	Off    []int32   // CSR bin offsets, len(Bins)+1
	Item   []int32   // item index per entry
	Profit []float64 // profit per entry
	Weight []float64 // weight per entry
	Cap    []float64 // capacity per bin

	// Exact-DP oracle tables, present when Quantum > 0: WQ is the entry
	// weight in quanta (rounded up, keeping every packing feasible), CapU
	// the bin capacity in quanta (rounded down).
	WQ   []int32
	CapU []int32

	Quantum float64 // weight quantum; > 0 selects the exact DP oracle
	Eps     float64 // FPTAS accuracy, used when Quantum == 0

	maxBin int // max compiled entries in one bin
	// groupsExact is false when some group reduction dropped an entry not
	// weakly dominated by its winner (see reduceGroups).
	groupsExact bool
}

// Typed validation errors of Compile (and, via wrapping, CompileAppro).
var (
	// ErrBadQuantum rejects a negative, NaN, or infinite weight quantum
	// (zero is valid and selects the FPTAS oracle).
	ErrBadQuantum = errors.New("gap: quantum must be zero or a positive finite value")
	// ErrBadEps rejects a NaN eps or eps ≥ 1 (eps ≤ 0 keeps the documented
	// 0.1 default).
	ErrBadEps = errors.New("gap: eps must be below 1 and not NaN")
)

// Compile builds the flat form of inst. quantum > 0 selects the exact
// quantized-weight DP oracle; otherwise the (1−eps)-FPTAS oracle is used
// (eps ≤ 0 means 0.1). The instance is validated here, once, instead of on
// every solve.
func Compile(inst *Instance, quantum, eps float64) (*Compiled, error) {
	if inst == nil {
		return nil, errors.New("gap: nil instance")
	}
	if math.IsNaN(quantum) || math.IsInf(quantum, 0) || quantum < 0 {
		return nil, fmt.Errorf("%w (got %v)", ErrBadQuantum, quantum)
	}
	if math.IsNaN(eps) || eps >= 1 {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEps, eps)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if eps <= 0 {
		eps = 0.1
	}
	b := len(inst.Bins)
	c := &Compiled{
		NumItems:    inst.NumItems,
		Off:         make([]int32, b+1),
		Cap:         make([]float64, b),
		Quantum:     quantum,
		Eps:         eps,
		groupsExact: true,
	}
	// Same-group dominance reduction (fleet conflict groups): within each
	// bin, at most one entry per conflict group survives compilation, so
	// the sweep below structurally honors the "one sink per absolute slot"
	// constraint without any per-candidate group bookkeeping.
	var drops [][]bool
	if inst.ItemGroup != nil {
		drops = make([][]bool, b)
		for i, bin := range inst.Bins {
			drop, exact := reduceGroups(bin.Entries, bin.Capacity, inst.ItemGroup)
			drops[i] = drop
			if !exact {
				c.groupsExact = false
			}
		}
	}
	kept := func(bin, k int, e Entry, capacity float64) bool {
		if drops != nil && drops[bin] != nil && drops[bin][k] {
			return false
		}
		return e.Profit > 0 && e.Weight <= capacity
	}
	total := 0
	for i, bin := range inst.Bins {
		c.Cap[i] = bin.Capacity
		for k, e := range bin.Entries {
			if kept(i, k, e, bin.Capacity) {
				total++
			}
		}
		c.Off[i+1] = int32(total)
	}
	c.Item = make([]int32, total)
	c.Profit = make([]float64, total)
	c.Weight = make([]float64, total)
	if quantum > 0 {
		c.WQ = make([]int32, total)
		c.CapU = make([]int32, b)
	}
	k := 0
	for i, bin := range inst.Bins {
		for ke, e := range bin.Entries {
			if !kept(i, ke, e, bin.Capacity) {
				continue
			}
			c.Item[k] = int32(e.Item)
			c.Profit[k] = e.Profit
			c.Weight[k] = e.Weight
			if quantum > 0 {
				c.WQ[k] = quantize(e.Weight, quantum)
			}
			k++
		}
		if quantum > 0 {
			c.CapU[i] = int32(min(math.Floor(bin.Capacity/quantum), math.MaxInt32))
		}
		if n := int(c.Off[i+1] - c.Off[i]); n > c.maxBin {
			c.maxBin = n
		}
	}
	return c, nil
}

// quantize rounds a weight up to whole quanta, exactly as the per-call DP
// oracle has always done. Values beyond int32 are clamped — a DP table
// that size could never be allocated anyway.
func quantize(w, quantum float64) int32 {
	return int32(min(math.Ceil(w/quantum-1e-9), math.MaxInt32))
}

// GroupReductionExact reports whether the compile-time conflict-group
// reduction was dominance-exact: every dropped entry was weakly dominated
// (profit ≤, weight ≥) by its group's surviving entry, so the reduced
// instance has the same optimum as the group-constrained original. This
// holds for monotone link models (the repo's radio tables), where the
// closer sink offers both the higher rate and the lower energy cost; it is
// trivially true on instances without conflict groups.
func (c *Compiled) GroupReductionExact() bool { return c.groupsExact }

// Scratch is the reusable per-solve state of a Compiled sweep: the
// residual-claim array plus the candidate buffers and knapsack arena. The
// zero value is ready to use; buffers grow on demand and are retained, so
// a reused Scratch makes the sweep allocation-free in steady state. A
// Scratch must not be used concurrently.
type Scratch struct {
	claim []float64
	prof  []float64
	w     []float64
	wq    []int32
	pos   []int32
	ar    knapsack.Arena
}

func (s *Scratch) prepare(numItems, maxBin int, dpMode bool) {
	if cap(s.claim) < numItems {
		s.claim = make([]float64, numItems)
	}
	s.claim = s.claim[:numItems]
	for i := range s.claim {
		s.claim[i] = 0
	}
	if cap(s.prof) < maxBin {
		s.prof = make([]float64, maxBin)
		s.pos = make([]int32, maxBin)
	}
	if dpMode {
		if cap(s.wq) < maxBin {
			s.wq = make([]int32, maxBin)
		}
	} else if cap(s.w) < maxBin {
		s.w = make([]float64, maxBin)
	}
}

var flatPool = sync.Pool{New: func() any { return new(Scratch) }}

func putFlatScratch(s *Scratch) {
	if cap(s.claim) > lrScratchMax {
		s.claim = nil
	}
	s.ar.Trim()
	flatPool.Put(s)
}

// sweep runs the residual-profit local-ratio pass over every bin in
// order, claiming items into s.claim/itemBin.
func (c *Compiled) sweep(ctx context.Context, s *Scratch, itemBin []int32) error {
	dpMode := c.Quantum > 0
	claim := s.claim
	for b := range c.Cap {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := c.Off[b], c.Off[b+1]
		nc := 0
		var picks []int32
		var err error
		if dpMode {
			prof, wq, pos := s.prof, s.wq, s.pos
			for k := lo; k < hi; k++ {
				j := c.Item[k]
				res := c.Profit[k] - claim[j]
				if res <= 0 {
					continue // the knapsack would never take it
				}
				prof[nc], wq[nc], pos[nc] = res, c.WQ[k], k
				nc++
			}
			picks, _, err = s.ar.DPFlat(ctx, prof[:nc], wq[:nc], int(c.CapU[b]))
		} else {
			prof, w, pos := s.prof, s.w, s.pos
			for k := lo; k < hi; k++ {
				j := c.Item[k]
				res := c.Profit[k] - claim[j]
				if res <= 0 {
					continue
				}
				prof[nc], w[nc], pos[nc] = res, c.Weight[k], k
				nc++
			}
			picks, _, err = s.ar.FPTASFlat(ctx, c.Eps, prof[:nc], w[:nc], c.Cap[b])
		}
		if err != nil {
			return err
		}
		for _, p := range picks {
			k := s.pos[p]
			j := c.Item[k]
			claim[j] = c.Profit[k]
			itemBin[j] = int32(b)
		}
	}
	return nil
}

// finalProfit is the paper's final decomposition pass: each item belongs
// to the last bin that claimed it, and the total is accumulated in
// bin-major entry order — the same float-summation order as the
// per-instance sweep, so both engines agree bitwise.
func (c *Compiled) finalProfit(itemBin []int32) float64 {
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

// SolveInto runs the local-ratio sweep over the compiled instance, writing
// each item's owning bin into itemBin (-1 for unassigned; len must be
// NumItems) and returning the assignment profit. s may be nil to draw
// scratch from an internal pool; passing a reused Scratch makes the solve
// allocation-free in steady state.
func (c *Compiled) SolveInto(ctx context.Context, s *Scratch, itemBin []int32) (float64, error) {
	if len(itemBin) != c.NumItems {
		return 0, fmt.Errorf("gap: itemBin covers %d items, instance has %d", len(itemBin), c.NumItems)
	}
	if s == nil {
		s = flatPool.Get().(*Scratch)
		defer putFlatScratch(s)
	}
	s.prepare(c.NumItems, c.maxBin, c.Quantum > 0)
	for i := range itemBin {
		itemBin[i] = -1
	}
	if err := c.sweep(ctx, s, itemBin); err != nil {
		return 0, err
	}
	return c.finalProfit(itemBin), nil
}

// Solve runs SolveInto with pooled scratch and materializes the result as
// an Assignment.
func (c *Compiled) Solve(ctx context.Context) (*Assignment, error) {
	itemBin := make([]int32, c.NumItems)
	profit, err := c.SolveInto(ctx, nil, itemBin)
	if err != nil {
		return nil, err
	}
	a := &Assignment{ItemBin: make([]int, c.NumItems), Profit: profit}
	for j, b := range itemBin {
		a.ItemBin[j] = int(b)
	}
	return a, nil
}
