package core

import (
	"context"
	"reflect"
	"testing"

	"mobisink/internal/gap"
	"mobisink/internal/radio"
)

// buildGAP is the pointer form of the paper's GAP reduction (Thm 1) for
// the given sensor order: one bin per sensor, one entry per usable window
// slot, and the absolute-slot conflict groups on fleet instances.
func buildGAP(inst *Instance, order []int) *gap.Instance {
	g := &gap.Instance{NumItems: inst.T, Bins: make([]gap.Bin, len(order))}
	add := func(bin *gap.Bin, start int, rates, powers []float64) {
		for k, r := range rates {
			if p := powers[k]; r > 0 && p > 0 {
				bin.Entries = append(bin.Entries, gap.Entry{Item: start + k, Profit: r * inst.Tau, Weight: p * inst.Tau})
			}
		}
	}
	for b, si := range order {
		s := &inst.Sensors[si]
		g.Bins[b].Capacity = s.Budget
		if s.Start >= 0 {
			add(&g.Bins[b], s.Start, s.Rates, s.Powers)
		}
		for _, w := range s.More {
			add(&g.Bins[b], w.Start, w.Rates, w.Powers)
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

// offlineApproLegacyCtx is Offline_Appro the way it ran before the
// reduction was written straight into the builder: the pointer reduction
// first, then compiled bin by bin and swept. The gap package pins the
// compiled sweep to its pointer reference bit for bit.
func offlineApproLegacyCtx(ctx context.Context, inst *Instance, opts Options) (*Allocation, error) {
	order := sensorOrder(inst)
	g := buildGAP(inst, order)
	quantum, eps := opts.Oracle(inst)
	var b gap.Builder
	b.Reset(g.NumItems, g.ItemGroup, quantum, eps)
	for _, bin := range g.Bins {
		b.Bin(bin.Capacity)
		for _, e := range bin.Entries {
			b.Add(e.Item, e.Profit, e.Weight)
		}
	}
	c, err := b.Compiled()
	if err != nil {
		return nil, err
	}
	itemBin := make([]int32, inst.T)
	if _, err := c.SolveInto(ctx, nil, itemBin); err != nil {
		return nil, err
	}
	alloc := inst.NewAllocation()
	for j, b := range itemBin {
		if b >= 0 {
			alloc.SlotOwner[j] = order[b]
		}
	}
	inst.RecomputeData(alloc)
	return alloc, nil
}

// TestFlatMatchesLegacy is the differential gate for the reduction core
// writes straight into the gap builder: across a seeded sweep of 8
// deployment configurations × 7 seeds (56 instances), it must reproduce
// the pointer reduction's solve bit-for-bit — identical SlotOwner vectors
// and bitwise-equal Data — in both oracle modes (exact quantized DP and
// forced FPTAS).
func TestFlatMatchesLegacy(t *testing.T) {
	configs := []struct {
		n      int
		budget float64
	}{
		{2, 0.5}, {2, 0.9},
		{3, 0.5}, {3, 0.9},
		{4, 0.5}, {4, 0.9},
		{6, 0.5}, {6, 0.9},
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"dp", Options{}},
		{"fptas", Options{ForceFPTAS: true, Eps: 0.2}},
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 7; seed++ {
			d := tinyDeployment(t, cfg.n, seed, cfg.budget)
			inst, err := BuildInstance(d, radio.Paper2013(), 30, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				legacy, err := offlineApproLegacyCtx(context.Background(), inst, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				c, err := CompileAppro(inst, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := c.Solve(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(flat.SlotOwner, legacy.SlotOwner) {
					t.Fatalf("n=%d budget=%v seed=%d %s: flat SlotOwner %v != legacy %v",
						cfg.n, cfg.budget, seed, mode.name, flat.SlotOwner, legacy.SlotOwner)
				}
				if flat.Data != legacy.Data {
					t.Fatalf("n=%d budget=%v seed=%d %s: flat Data %v != legacy %v (must be bit-identical)",
						cfg.n, cfg.budget, seed, mode.name, flat.Data, legacy.Data)
				}
				// The public entry point must route to the same flat result.
				pub, err := OfflineApproCtx(context.Background(), inst, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				if pub.Data != flat.Data || !reflect.DeepEqual(pub.SlotOwner, flat.SlotOwner) {
					t.Fatalf("n=%d budget=%v seed=%d %s: OfflineApproCtx diverges from compiled solve",
						cfg.n, cfg.budget, seed, mode.name)
				}
			}
		}
	}
}

// TestCompiledSolveReuse solves one compiled instance repeatedly (the
// serving/benchmark pattern), checking results never drift from the first
// solve.
func TestCompiledSolveReuse(t *testing.T) {
	d := tinyDeployment(t, 5, 3, 0.8)
	inst, err := BuildInstance(d, radio.Paper2013(), 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileAppro(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := c.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if again.Data != first.Data || !reflect.DeepEqual(again.SlotOwner, first.SlotOwner) {
			t.Fatalf("solve %d drifted: Data %v vs %v", i, again.Data, first.Data)
		}
	}
}
