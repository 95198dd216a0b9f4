package gap_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/gap"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// pointerReduction is the paper's GAP reduction (Thm 1) of inst in the
// pointer form, one bin per sensor of order, with the absolute-slot
// conflict groups on fleet instances.
func pointerReduction(inst *core.Instance, order []int) *gap.Instance {
	g := &gap.Instance{NumItems: inst.T, Bins: make([]gap.Bin, len(order))}
	for b, si := range order {
		s := &inst.Sensors[si]
		g.Bins[b].Capacity = s.Budget
		for j := 0; j < inst.T; j++ {
			if r, p := s.RateAt(j), s.PowerAt(j); r > 0 && p > 0 {
				g.Bins[b].Entries = append(g.Bins[b].Entries, gap.Entry{Item: j, Profit: r * inst.Tau, Weight: p * inst.Tau})
			}
		}
	}
	if inst.NumSinks() > 1 {
		g.ItemGroup = make([]int, inst.T)
		for j := range g.ItemGroup {
			g.ItemGroup[j] = inst.AbsSlot(j)
		}
	}
	return g
}

// deployments returns core-test-sized instances: tiny single-sink tours
// (the exhaustive-optimum size) and K = 2 fleets, tiny and mid-size.
func deployments(t *testing.T) map[string]*core.Instance {
	t.Helper()
	insts := map[string]*core.Instance{}
	for seed := int64(0); seed < 6; seed++ {
		for _, n := range []int{2, 4, 6} {
			for _, k := range []int{1, 2} {
				d, err := network.Generate(network.Params{N: n, PathLength: 300, MaxOffset: 100, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.SetUniformBudgets(0.5 + 0.1*float64(seed)); err != nil {
					t.Fatal(err)
				}
				insts[fmt.Sprintf("tiny/n=%d/K=%d/seed=%d", n, k, seed)] = build(t, d, k, 30)
			}
		}
		d, err := network.Generate(network.Params{N: 20, PathLength: 2000, MaxOffset: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), d.PathLength/5, 0.2, rng); err != nil {
			t.Fatal(err)
		}
		insts[fmt.Sprintf("mid/n=20/K=2/seed=%d", seed)] = build(t, d, 2, 5)
	}
	return insts
}

func build(t *testing.T, d *network.Deployment, k int, speed float64) *core.Instance {
	t.Helper()
	var inst *core.Instance
	var err error
	if k == 1 {
		inst, err = core.BuildInstance(d, radio.Paper2013(), speed, 1)
	} else if err = d.SplitSinks(k, nil); err == nil {
		inst, err = core.BuildFleetInstance(d, radio.Paper2013(), speed, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestEnginesMatchReferenceOnDeployments: on core-sized deployments,
// single-sink and K = 2 fleets, Offline_Greedy and Offline_Appro (exact
// DP and FPTAS oracles) — which write the reduction straight into the
// Builder — assign every slot exactly as the reference greedy and the
// reference sweep do over the pointer reduction.
func TestEnginesMatchReferenceOnDeployments(t *testing.T) {
	ctx := context.Background()
	for name, inst := range deployments(t) {
		identity := make([]int, len(inst.Sensors))
		for i := range identity {
			identity[i] = i
		}
		want, err := gap.Greedy(pointerReduction(inst, identity))
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.OfflineGreedy(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.SlotOwner, want.ItemBin) {
			t.Fatalf("%s: Offline_Greedy %v != reference greedy %v", name, got.SlotOwner, want.ItemBin)
		}

		// Algorithm 1 line 1: sensors that hear a sink, by start slot,
		// then end slot.
		var order []int
		for i := range inst.Sensors {
			if inst.Sensors[i].Start >= 0 {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			sa, sb := &inst.Sensors[order[a]], &inst.Sensors[order[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End < sb.End
		})
		for _, opts := range []core.Options{{}, {ForceFPTAS: true, Eps: 0.2}} {
			q, eps := opts.Oracle(inst)
			solve := gap.FPTASOracle(eps)
			if q > 0 {
				solve = gap.DPOracle(q)
			}
			ref, err := gap.LocalRatioCtx(ctx, pointerReduction(inst, order), solve)
			if err != nil {
				t.Fatal(err)
			}
			wantOwner := make([]int, inst.T)
			for j, b := range ref.ItemBin {
				wantOwner[j] = -1
				if b >= 0 {
					wantOwner[j] = order[b]
				}
			}
			got, err := core.OfflineAppro(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.SlotOwner, wantOwner) {
				t.Fatalf("%s %+v: Offline_Appro %v != reference sweep %v", name, opts, got.SlotOwner, wantOwner)
			}
		}
	}
}
