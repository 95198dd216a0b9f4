package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mobisink/internal/energy"
	"mobisink/internal/gap"
	"mobisink/internal/geom"
	"mobisink/internal/knapsack"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// This file holds the differential reference for OfflineSequentialCtx:
// Offline_Sequential as it ran before the GAP engine's sequential pass
// took it over. Per sensor, in the paper's order, it lists the sensor's
// still unowned window slots afresh, thins a fleet sensor's list to one
// candidate per absolute slot, and packs it with a per-call knapsack
// oracle.
//
// One difference is deliberate: a slot heavier than the sensor's whole
// budget is not listed. The old packer listed it, and on a fleet such a
// dead candidate could come first for its absolute slot, so the slot's
// winner took its place in the list. The GAP engine holds no dead
// entries, so there the winner keeps its own place. The knapsack sees
// the same candidates either way, in another order, so only its
// tie-break between equally good packings can differ (in 16 of the 96
// cases below, each with the same Data). On a single sink the knapsack
// kernels drop those candidates themselves, so nothing changes there.

// refItem is one candidate slot of the reference packer.
type refItem struct{ profit, weight float64 }

// refSolve packs items under capacity with the reference packer's oracle:
// with a finite data cap the doubly constrained DP at the rate quantum;
// else the exact DP at the weight quantum opts choose, candidates heavier
// than the capacity dropped first; else the FPTAS. It returns the picked
// positions, ascending.
func refSolve(ctx context.Context, inst *Instance, opts Options, items []refItem, capacity, dataCap float64) ([]int32, error) {
	a := knapsack.NewArena()
	profit := make([]float64, len(items))
	weight := make([]float64, len(items))
	for i, it := range items {
		profit[i], weight[i] = it.profit, it.weight
	}
	if !math.IsInf(dataCap, 1) {
		picks, _, err := a.MaxProfitUnderFlat(ctx, profit, weight, capacity, dataCap, inst.RateQuantumBits())
		return picks, err
	}
	q, eps := opts.Oracle(inst)
	if q == 0 {
		picks, _, err := a.FPTASFlat(ctx, eps, profit, weight, capacity)
		return picks, err
	}
	var prof []float64
	var wq, remap []int32
	for i := range items {
		if profit[i] > 0 && weight[i] <= capacity {
			prof = append(prof, profit[i])
			wq = append(wq, knapsack.QuantizeWeight(weight[i], q))
			remap = append(remap, int32(i))
		}
	}
	picks, _, err := a.DPFlat(ctx, prof, wq, int(knapsack.QuantizeCapacity(capacity, q)))
	for x, p := range picks {
		picks[x] = remap[p]
	}
	return picks, err
}

// offlineSequentialRef is the reference packer.
func offlineSequentialRef(inst *Instance, opts Options) (*Allocation, error) {
	alloc := inst.NewAllocation()
	fleet := inst.NumSinks() > 1
	var items []refItem
	var slots []int
	for _, si := range sensorOrder(inst, nil) {
		s := &inst.Sensors[si]
		items, slots = items[:0], slots[:0]
		collect := func(start int, rates, powers []float64) {
			for k, r := range rates {
				j := start + k
				if p := powers[k]; alloc.SlotOwner[j] == -1 && r > 0 && p > 0 && p*inst.Tau <= s.Budget {
					items = append(items, refItem{r * inst.Tau, p * inst.Tau})
					slots = append(slots, j)
				}
			}
		}
		for _, w := range slotLinks(s) {
			collect(w.start, w.rates, w.powers)
		}
		if fleet {
			items, slots = reduceByAbsSlot(inst, items, slots)
		}
		picks, err := refSolve(context.Background(), inst, opts, items, s.Budget, inst.DataCapOf(si))
		if err != nil {
			return nil, err
		}
		for _, k := range picks {
			alloc.SlotOwner[slots[k]] = si
		}
	}
	inst.RecomputeData(alloc)
	return alloc, nil
}

// reduceByAbsSlot thins a fleet sensor's candidate slots to at most one
// per absolute time slot — the dominant candidate (max profit, tie min
// weight, tie first seen), kept where the slot's first candidate was.
func reduceByAbsSlot(inst *Instance, items []refItem, slots []int) ([]refItem, []int) {
	best := make(map[int]int, len(slots)) // absolute slot → index in the kept prefix
	n := 0
	for k := range slots {
		a := inst.AbsSlot(slots[k])
		if bi, ok := best[a]; ok {
			cur, cand := items[bi], items[k]
			if cand.profit > cur.profit || (cand.profit == cur.profit && cand.weight < cur.weight) {
				items[bi], slots[bi] = cand, slots[k]
			}
			continue
		}
		items[n], slots[n] = items[k], slots[k]
		best[a] = n
		n++
	}
	return items[:n], slots[:n]
}

// seqShapes are the sink layouts of the sequential differential: a
// single sink, and fleets whose sinks share absolute slots.
var seqShapes = []struct {
	name  string
	sinks func(d *network.Deployment) error
}{
	{"single", func(*network.Deployment) error { return nil }},
	{"crossing", func(d *network.Deployment) error {
		there, back := geom.Point{X: 0, Y: 0}, geom.Point{X: d.PathLength, Y: 0}
		d.Sinks = []network.SinkSpec{{Waypoints: []geom.Point{there, back}}, {Waypoints: []geom.Point{back, there}}}
		return nil
	}},
	{"two-speeds", func(d *network.Deployment) error {
		d.Sinks = []network.SinkSpec{{Speed: 5}, {Speed: 10}}
		return nil
	}},
	{"split8", func(d *network.Deployment) error { return d.SplitSinks(8, nil) }},
}

// seqInstance builds n sensors on a 2 km path with steady-state budgets,
// the shape's sinks and the model, capped at random multiples of 100 kb
// (zero included) when capped is set.
func seqInstance(t *testing.T, n int, seed int64, shape int, model radio.Model, capped bool) *Instance {
	t.Helper()
	d, err := network.Generate(network.Params{N: n, PathLength: 2000, MaxOffset: 150, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), d.PathLength/5, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	if err := seqShapes[shape].sinks(d); err != nil {
		t.Fatal(err)
	}
	inst, err := BuildFleetInstance(d, model, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if capped {
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = float64(rng.Intn(8)) * 100e3
		}
		if err := inst.SetDataCaps(caps); err != nil {
			t.Fatal(err)
		}
	}
	return inst
}

// TestOfflineSequentialMatchesReference: OfflineSequentialCtx, on the GAP
// engine's sequential pass, equals the reference packer slot for slot and
// bit for bit in Data — on a single sink and on fleets whose sinks share
// absolute slots (two sinks crossing on one path, two speeds on one
// path, SplitSinks(8) on a 2 km path), with the paper's and the
// fixed-power radio, uncapped and capped, under the exact DP and the
// forced FPTAS.
func TestOfflineSequentialMatchesReference(t *testing.T) {
	overlaps := 0
	for shape := range seqShapes {
		for _, fixed := range []bool{false, true} {
			model := parityModel(t, fixed)
			for _, capped := range []bool{false, true} {
				for seed := int64(0); seed < 3; seed++ {
					inst := seqInstance(t, 30, seed, shape, model, capped)
					overlaps += sharedAbsSlots(inst)
					for _, opts := range []Options{{}, {ForceFPTAS: true, Eps: 0.5}} {
						name := fmt.Sprintf("%s fixed=%v capped=%v seed=%d %+v", seqShapes[shape].name, fixed, capped, seed, opts)
						want, err := offlineSequentialRef(inst, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := OfflineSequential(inst, opts)
						if err != nil {
							t.Fatal(err)
						}
						sameAlloc(t, name, want, got)
						if _, err := inst.Validate(got); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("no fleet sensor hears two sinks in one absolute slot: the thinning is untested")
	}
}

// sharedAbsSlots counts the (sensor, absolute slot) pairs a sensor can
// use from more than one sink.
func sharedAbsSlots(inst *Instance) int {
	n := 0
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		seen := map[int]int{}
		mark := func(start int, rates []float64) {
			for k, r := range rates {
				if r > 0 {
					seen[inst.AbsSlot(start+k)]++
				}
			}
		}
		for _, w := range slotLinks(s) {
			mark(w.start, w.rates)
		}
		for _, c := range seen {
			if c > 1 {
				n++
			}
		}
	}
	return n
}

// TestOfflineSequentialRejectsBadEps: an out-of-range eps is a typed
// error from the engine's Builder, not a panic in the FPTAS kernel.
func TestOfflineSequentialRejectsBadEps(t *testing.T) {
	inst := seqInstance(t, 20, 1, 0, radio.Paper2013(), false)
	for _, eps := range []float64{1, 1.5, math.NaN()} {
		if _, err := OfflineSequential(inst, Options{ForceFPTAS: true, Eps: eps}); !errors.Is(err, gap.ErrBadEps) {
			t.Fatalf("eps %v: got %v, want gap.ErrBadEps", eps, err)
		}
	}
}
