package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"mobisink/internal/gap"
	"mobisink/internal/matching"
)

// Options tunes the offline approximation algorithm's knapsack oracle.
type Options struct {
	// Eps is the FPTAS accuracy when the automatic choice falls back to it
	// (or when ForceFPTAS is set). Zero means 0.1.
	Eps float64
	// ForceFPTAS always uses the FPTAS inner solver, matching the paper's
	// stated construction (β = 1+ε ⇒ ratio 1/(2+ε)).
	ForceFPTAS bool
}

// Oracle returns the knapsack oracle o selects for inst, as gap.Builder
// takes it: an exact quantized DP at the weight quantum q > 0 when the
// instance's power levels share a coarse quantum (the paper's discrete
// power table does), else the (1−ε)-FPTAS at eps (q = 0).
func (o Options) Oracle(inst *Instance) (quantum, eps float64) {
	eps = o.Eps
	if eps <= 0 {
		eps = 0.1
	}
	if !o.ForceFPTAS {
		quantum, _ = inst.WeightQuantum()
	}
	return quantum, eps
}

// oracleQuanta holds an instance's two knapsack-oracle quanta. Both depend
// only on τ and the link tables, which never change once an instance is
// built, so they are derived on first use and shared by every solver that
// runs on the instance — the online schedulers ask once per interval.
type oracleQuanta struct {
	once   sync.Once
	weight float64 // exact-DP energy quantum; 0 means none (the FPTAS)
	rate   float64 // capped-DP data quantum, bits
}

func (inst *Instance) oracle() *oracleQuanta {
	q := &inst.quanta
	q.once.Do(func() {
		q.weight, _ = inst.scanWeightQuantum()
		q.rate = inst.scanRateQuantum()
	})
	return q
}

// WeightQuantum returns the common quantum dividing every per-slot energy
// cost P_{i,j}·τ, across every window, when the costs are discrete enough
// for an exact DP of reasonable size; ok=false for effectively continuous
// power models, which take the FPTAS. The quantum divides every cost at
// micro-Joule resolution, so on a discrete power table the DP's round-up
// changes no weight and the DP is exact. Safe for concurrent use.
func (inst *Instance) WeightQuantum() (float64, bool) {
	q := inst.oracle().weight
	return q, q > 0
}

// scanWeightQuantum derives WeightQuantum from the link tables.
func (inst *Instance) scanWeightQuantum() (float64, bool) {
	const unit = 1e-6 // resolve weights in micro-Joules
	g := int64(0)
	maxQ := int64(0)
	ok := true
	accum := func(p float64) {
		if p <= 0 || !ok {
			return
		}
		w := int64(math.Round(p * inst.Tau / unit))
		if w == 0 {
			ok = false
			return
		}
		g = gcd64(g, w)
		if w > maxQ {
			maxQ = w
		}
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		for _, p := range s.Powers {
			accum(p)
		}
		for wi := range s.More {
			for _, p := range s.More[wi].Powers {
				accum(p)
			}
		}
	}
	if !ok {
		return 0, false
	}
	if g == 0 {
		return 0, false
	}
	// Table size per window slot is w/g; keep the DP comfortably small.
	if maxQ/g > 4096 {
		return 0, false
	}
	return float64(g) * unit, true
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// OfflineAppro is the paper's Algorithm 1 (Offline_Appro): sensors are
// sorted by (start slot, end slot); the Cohen-Katzir-Raz local-ratio GAP
// algorithm packs each sensor's window with a knapsack oracle against
// residual profits; each slot finally belongs to the last sensor that
// claimed it. With a β-approximate knapsack the allocation is within
// 1/(1+β) of optimal.
func OfflineAppro(inst *Instance, opts Options) (*Allocation, error) {
	return OfflineApproCtx(context.Background(), inst, opts)
}

// OfflineApproCtx is OfflineAppro with cancellation: the context is
// threaded into the local-ratio sweep and the inner knapsack DPs.
func OfflineApproCtx(ctx context.Context, inst *Instance, opts Options) (*Allocation, error) {
	b := builderPool.Get().(*gap.Builder)
	defer builderPool.Put(b)
	c, err := compileAppro(inst, opts, b)
	if err != nil {
		return nil, err
	}
	return c.Solve(ctx)
}

// compileGAP writes the paper's GAP reduction (Thm 1) into b, one bin per
// sensor of order (capacity = per-tour energy budget), one entry per
// usable window slot (profit = r·τ bits, weight = P·τ Joules), under the
// conflict groups group (nil: none). Shared by OfflineAppro, OfflineGreedy
// and OfflineSequential, which differ in bin order, groups and the pass
// they run on the result.
//
// Fleet instances contribute entries from every window (one per audible
// sink).
func (inst *Instance) compileGAP(b *gap.Builder, order []int, group []int, quantum, eps float64) (*gap.Compiled, error) {
	b.Reset(inst.T, group, quantum, eps)
	add := func(start int, rates, powers []float64) {
		for k, r := range rates {
			if p := powers[k]; r > 0 && p > 0 {
				b.Add(start+k, r*inst.Tau, p*inst.Tau)
			}
		}
	}
	for _, si := range order {
		s := &inst.Sensors[si]
		b.Bin(s.Budget)
		if s.Start >= 0 {
			add(s.Start, s.Rates, s.Powers)
		}
		for wi := range s.More {
			add(s.More[wi].Start, s.More[wi].Rates, s.More[wi].Powers)
		}
	}
	return b.Compiled()
}

// slotGroups returns a fleet's cross-sink constraint as conflict groups,
// group[global slot] = absolute slot: a sensor (bin) may use at most one
// item per absolute slot. It is nil on a single-sink instance.
func (inst *Instance) slotGroups() []int {
	if inst.NumSinks() == 1 {
		return nil
	}
	group := make([]int, inst.T)
	for j := range group {
		group[j] = inst.AbsSlot(j)
	}
	return group
}

// allocation maps a pass's item → bin result, bin b being sensor
// order[b], to a slot → sensor allocation with its data recomputed.
func (inst *Instance) allocation(order []int, itemBin []int32) *Allocation {
	alloc := inst.NewAllocation()
	for j, b := range itemBin {
		if b >= 0 {
			alloc.SlotOwner[j] = order[b]
		}
	}
	inst.RecomputeData(alloc)
	return alloc
}

// sensorOrder returns sensor indices sorted by increasing start slot, then
// end slot (paper Algorithm 1 line 1); sensors that never hear the sink are
// dropped.
func sensorOrder(inst *Instance) []int {
	order := make([]int, 0, len(inst.Sensors))
	for i := range inst.Sensors {
		if inst.Sensors[i].Start >= 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		sa, sb := &inst.Sensors[a], &inst.Sensors[b]
		if sa.Start != sb.Start {
			return cmp.Compare(sa.Start, sb.Start)
		}
		if sa.End != sb.End {
			return cmp.Compare(sa.End, sb.End)
		}
		return cmp.Compare(a, b) // deterministic tie-break
	})
	return order
}

// FixedTxPower returns the single transmission power if every positive
// per-slot power in the instance is identical (the special case of
// paper §VI), else ok=false.
func (inst *Instance) FixedTxPower() (float64, bool) {
	p := 0.0
	same := func(powers []float64) bool {
		for _, pw := range powers {
			if pw <= 0 {
				continue
			}
			if p == 0 {
				p = pw
			} else if math.Abs(pw-p) > 1e-12 {
				return false
			}
		}
		return true
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if !same(s.Powers) {
			return 0, false
		}
		for wi := range s.More {
			if !same(s.More[wi].Powers) {
				return 0, false
			}
		}
	}
	if p == 0 {
		return 0, false
	}
	return p, true
}

// OfflineMaxMatch solves the fixed-transmission-power special case exactly
// (paper §VI, Offline_MaxMatch): a maximum-weight matching between sensors
// and slots where sensor v_i may take up to
// n'_i = min(|A(v_i)|, ⌊P(v_i)/(P'·τ)⌋) slots. It errors when the instance
// is not a fixed-power instance.
func OfflineMaxMatch(inst *Instance) (*Allocation, error) {
	return OfflineMaxMatchCtx(context.Background(), inst)
}

// OfflineMaxMatchCtx is OfflineMaxMatch with cancellation: the context is
// polled once per augmenting path of the underlying min-cost flow.
func OfflineMaxMatchCtx(ctx context.Context, inst *Instance) (*Allocation, error) {
	if inst == nil {
		return nil, errors.New("core: nil instance")
	}
	pFixed, ok := inst.FixedTxPower()
	if !ok {
		return nil, fmt.Errorf("core: OfflineMaxMatch requires a single fixed transmission power")
	}
	perSlotCost := pFixed * inst.Tau
	g, err := matching.NewGraph(len(inst.Sensors), inst.T)
	if err != nil {
		return nil, err
	}
	// Fleet instances carry the cross-sink constraint as per-left conflict
	// groups keyed by absolute slot, which the matching solver enforces
	// exactly with unit-capacity gadget nodes — Offline_MaxMatch stays an
	// exact anchor at any K.
	fleet := inst.NumSinks() > 1
	addEdge := func(i, j int, r float64) error {
		if fleet {
			return g.AddEdgeInGroup(i, j, r*inst.Tau, inst.AbsSlot(j))
		}
		return g.AddEdge(i, j, r*inst.Tau)
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start < 0 {
			if err := g.SetLeftCap(i, 0); err != nil {
				return nil, err
			}
			continue
		}
		capSlots := int(math.Floor(s.Budget/perSlotCost + 1e-9))
		if w := s.TotalWindowSize(); capSlots > w {
			capSlots = w
		}
		if err := g.SetLeftCap(i, capSlots); err != nil {
			return nil, err
		}
		for j := s.Start; j <= s.End; j++ {
			if r := s.Rates[j-s.Start]; r > 0 {
				if err := addEdge(i, j, r); err != nil {
					return nil, err
				}
			}
		}
		for wi := range s.More {
			w := &s.More[wi]
			for j := w.Start; j <= w.End; j++ {
				if r := w.Rates[j-w.Start]; r > 0 {
					if err := addEdge(i, j, r); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	res, err := g.MaxWeightCtx(ctx)
	if err != nil {
		return nil, err
	}
	alloc := inst.NewAllocation()
	copy(alloc.SlotOwner, res.RightMatch)
	inst.RecomputeData(alloc)
	return alloc, nil
}

// OfflineGreedy is a density-greedy baseline over all (sensor, slot) pairs.
func OfflineGreedy(inst *Instance) (*Allocation, error) {
	return OfflineGreedyCtx(context.Background(), inst)
}

// OfflineGreedyCtx is OfflineGreedy with an up-front cancellation check
// (the greedy pass itself is a single fast sort-and-scan).
func OfflineGreedyCtx(ctx context.Context, inst *Instance) (*Allocation, error) {
	if inst == nil {
		return nil, errors.New("core: nil instance")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Identity order: bin b is sensor b. The greedy pass does not depend
	// on bin order beyond its tie-break.
	order := make([]int, len(inst.Sensors))
	for i := range order {
		order[i] = i
	}
	var b gap.Builder
	g, err := inst.compileGAP(&b, order, inst.slotGroups(), 0, 0)
	if err != nil {
		return nil, err
	}
	itemBin := make([]int32, inst.T)
	if _, err := g.Greedy(nil, itemBin); err != nil {
		return nil, err
	}
	return inst.allocation(order, itemBin), nil
}
