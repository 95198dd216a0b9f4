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
	"mobisink/internal/knapsack"
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

// slotGroupsOnce holds a fleet instance's conflict groups (slotGroups).
type slotGroupsOnce struct {
	once  sync.Once
	group []int
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
		for _, run := range s.Runs {
			accum(run.Power)
		}
		for wi := range s.More {
			for _, run := range s.More[wi].Runs {
				accum(run.Power)
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
// threaded into the local-ratio sweep and the inner knapsack DPs. The
// reduction is compiled into a pooled gap.Workspace, which lives only for
// the one solve.
func OfflineApproCtx(ctx context.Context, inst *Instance, opts Options) (*Allocation, error) {
	if inst == nil {
		return nil, errors.New("core: nil instance")
	}
	ws := gap.GetWorkspace()
	defer ws.Release()
	quantum, eps := opts.Oracle(inst)
	order := sensorOrder(inst, ws.Order(len(inst.Sensors)))
	g, err := inst.compileGAP(ws.Builder(), order, inst.slotGroups(), quantum, eps)
	if err != nil {
		return nil, err
	}
	itemBin := ws.ItemBin(inst.T)
	if err := g.SolveInto(ctx, ws.Scratch(), itemBin); err != nil {
		return nil, err
	}
	return inst.allocation(order, itemBin), nil
}

// compileGAP writes the paper's GAP reduction (Thm 1) into b, one bin per
// sensor of order (capacity = per-tour energy budget), one entry per
// usable window slot (profit = r·τ bits, weight = P·τ Joules), listed by
// one Builder.Run per link run, under the conflict groups group (nil:
// none). Shared by OfflineAppro, OfflineGreedy and OfflineSequential,
// which differ in bin order, groups and the pass they run on the result.
//
// Fleet instances contribute entries from every window (one per audible
// sink).
func (inst *Instance) compileGAP(b *gap.Builder, order []int, group []int, quantum, eps float64) (*gap.Compiled, error) {
	b.Reset(inst.T, group, quantum, eps)
	list := func(runs []LinkRun) {
		for _, run := range runs {
			b.Run(run.Start, run.End-run.Start+1, run.Rate*inst.Tau, run.Power*inst.Tau)
		}
	}
	for _, si := range order {
		s := &inst.Sensors[si]
		b.Bin(s.Budget)
		list(s.Runs)
		for wi := range s.More {
			list(s.More[wi].Runs)
		}
	}
	return b.Compiled()
}

// slotGroups returns a fleet's cross-sink constraint as conflict groups,
// group[global slot] = absolute slot: a sensor (bin) may use at most one
// item per absolute slot. It is nil on a single-sink instance. A fleet
// instance derives it on first use and shares it, read-only, with every
// solve after.
func (inst *Instance) slotGroups() []int {
	if inst.NumSinks() == 1 {
		return nil
	}
	g := &inst.groups
	g.once.Do(func() {
		g.group = make([]int, inst.T)
		for j := range g.group {
			g.group[j] = inst.AbsSlot(j)
		}
	})
	return g.group
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

// sensorOrder fills order with the sensor indices sorted by increasing
// start slot, then end slot (paper Algorithm 1 line 1), and returns it;
// sensors that never hear the sink are dropped. An order with room for
// every sensor is filled in place.
func sensorOrder(inst *Instance, order []int) []int {
	order = order[:0]
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
	same := func(runs []LinkRun) bool {
		for _, run := range runs {
			pw := run.Power
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
		if !same(s.Runs) {
			return 0, false
		}
		for wi := range s.More {
			if !same(s.More[wi].Runs) {
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
// n'_i = min(|A(v_i)|, ⌊P(v_i)/(P'·τ)⌋) slots, the quotient counted by
// knapsack.FitCount, so the cap is exactly what Validate accepts. It
// errors when the instance is not a fixed-power instance.
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
	addEdges := func(i int, runs []LinkRun) error {
		for _, run := range runs {
			if run.Rate <= 0 {
				continue
			}
			for j := run.Start; j <= run.End; j++ {
				if err := addEdge(i, j, run.Rate); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start < 0 {
			if err := g.SetLeftCap(i, 0); err != nil {
				return nil, err
			}
			continue
		}
		capSlots := knapsack.FitCount(perSlotCost, s.Budget, s.TotalWindowSize())
		if err := g.SetLeftCap(i, capSlots); err != nil {
			return nil, err
		}
		if err := addEdges(i, s.Runs); err != nil {
			return nil, err
		}
		for wi := range s.More {
			if err := addEdges(i, s.More[wi].Runs); err != nil {
				return nil, err
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
	ws := gap.GetWorkspace()
	defer ws.Release()
	// Identity order: bin b is sensor b. The greedy pass does not depend
	// on bin order beyond its tie-break.
	order := ws.Order(len(inst.Sensors))
	for i := range order {
		order[i] = i
	}
	g, err := inst.compileGAP(ws.Builder(), order, inst.slotGroups(), 0, 0)
	if err != nil {
		return nil, err
	}
	itemBin := ws.ItemBin(inst.T)
	if err := g.Greedy(ws.Scratch(), itemBin); err != nil {
		return nil, err
	}
	return inst.allocation(order, itemBin), nil
}
