package core

import (
	"context"
	"reflect"
	"testing"

	"mobisink/internal/gap"
	"mobisink/internal/radio"
)

// refBin is one bin of the reference reduction: a capacity and its
// (item, profit, weight) entries.
type refBin struct {
	capacity float64
	entries  []refEntry
}

type refEntry struct {
	item           int
	profit, weight float64
}

// buildGAP is the paper's GAP reduction (Thm 1) as a bin list, for the
// given sensor order: one bin per sensor, one entry per usable window
// slot, and the absolute-slot conflict groups on fleet instances (nil
// otherwise).
func buildGAP(inst *Instance, order []int) (bins []refBin, itemGroup []int) {
	bins = make([]refBin, len(order))
	add := func(bin *refBin, start int, rates, powers []float64) {
		for k, r := range rates {
			if p := powers[k]; r > 0 && p > 0 {
				bin.entries = append(bin.entries, refEntry{start + k, r * inst.Tau, p * inst.Tau})
			}
		}
	}
	for b, si := range order {
		s := &inst.Sensors[si]
		bins[b].capacity = s.Budget
		if s.Start >= 0 {
			add(&bins[b], s.Start, s.Rates, s.Powers)
		}
		for _, w := range s.More {
			add(&bins[b], w.Start, w.Rates, w.Powers)
		}
	}
	if inst.NumSinks() > 1 {
		itemGroup = make([]int, inst.T)
		for j := range itemGroup {
			itemGroup[j] = inst.AbsSlot(j)
		}
	}
	return bins, itemGroup
}

// offlineApproLegacyCtx is Offline_Appro the way it ran before the
// reduction was written straight into the builder: the reduction's bin
// list first, then compiled bin by bin and swept. The gap package pins the
// compiled sweep to its pointer reference bit for bit.
func offlineApproLegacyCtx(ctx context.Context, inst *Instance, opts Options) (*Allocation, error) {
	order := sensorOrder(inst)
	bins, itemGroup := buildGAP(inst, order)
	quantum, eps := opts.Oracle(inst)
	var b gap.Builder
	b.Reset(inst.T, itemGroup, quantum, eps)
	for _, bin := range bins {
		b.Bin(bin.capacity)
		for _, e := range bin.entries {
			b.Add(e.item, e.profit, e.weight)
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
