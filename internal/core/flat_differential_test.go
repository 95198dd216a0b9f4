package core

import (
	"context"
	"math"
	"reflect"
	"slices"
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
		for _, w := range slotLinks(s) {
			add(&bins[b], w.start, w.rates, w.powers)
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
	order := sensorOrder(inst, nil)
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
	if err := c.SolveInto(ctx, new(gap.Scratch), itemBin); err != nil {
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
// deployment configurations × 7 seeds (56 instances), OfflineApproCtx
// must reproduce the pointer reduction's solve bit-for-bit — identical
// SlotOwner vectors and bitwise-equal Data — in both oracle modes (exact
// quantized DP and forced FPTAS).
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
				flat, err := OfflineApproCtx(context.Background(), inst, mode.opts)
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
				// The context-free entry point must route to the same result.
				pub, err := OfflineAppro(inst, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				if pub.Data != flat.Data || !reflect.DeepEqual(pub.SlotOwner, flat.SlotOwner) {
					t.Fatalf("n=%d budget=%v seed=%d %s: OfflineAppro diverges from OfflineApproCtx",
						cfg.n, cfg.budget, seed, mode.name)
				}
			}
		}
	}
}

// TestCompiledSolveReuse solves one instance repeatedly, each solve
// compiling into the pooled workspace the previous one released, and
// checks the results never drift from the first solve.
func TestCompiledSolveReuse(t *testing.T) {
	d := tinyDeployment(t, 5, 3, 0.8)
	inst, err := BuildInstance(d, radio.Paper2013(), 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := OfflineApproCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := OfflineApproCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Data != first.Data || !reflect.DeepEqual(again.SlotOwner, first.SlotOwner) {
			t.Fatalf("solve %d drifted: Data %v vs %v", i, again.Data, first.Data)
		}
	}
}

// compileGAPPerSlot is compileGAP as it ran before the run form: one
// Builder.Add per usable window slot, from buildGAP's bin list. It is
// the reference the run form must match field for field.
func compileGAPPerSlot(inst *Instance, order, group []int, quantum, eps float64) (*gap.Compiled, error) {
	var b gap.Builder
	b.Reset(inst.T, group, quantum, eps)
	bins, _ := buildGAP(inst, order)
	for _, bin := range bins {
		b.Bin(bin.capacity)
		for _, e := range bin.entries {
			b.Add(e.item, e.profit, e.weight)
		}
	}
	return b.Compiled()
}

// compiledDiff names the first field in which two compiled forms differ,
// floats compared bit for bit; "" when they agree.
func compiledDiff(got, want *gap.Compiled) string {
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case got.NumItems != want.NumItems:
		return "NumItems"
	case !slices.Equal(got.Off, want.Off):
		return "Off"
	case !slices.Equal(got.First, want.First):
		return "First"
	case !slices.Equal(got.Count, want.Count):
		return "Count"
	case !bits(got.Profit, want.Profit):
		return "Profit"
	case !bits(got.Weight, want.Weight):
		return "Weight"
	case !bits(got.Cap, want.Cap):
		return "Cap"
	case !slices.Equal(got.WQ, want.WQ):
		return "WQ"
	case !slices.Equal(got.CapU, want.CapU):
		return "CapU"
	case got.Quantum != want.Quantum || got.Eps != want.Eps:
		return "oracle"
	}
	return ""
}

// zeroSlotInstance is a hand-built single-sink tour of 12 slots whose
// windows mix runs of equal links with zero-rate, zero-power and dead
// slots and one rate at two powers, beside a sensor that never hears
// the sink.
func zeroSlotInstance() *Instance {
	return &Instance{T: 12, Tau: 2, Gamma: 4, Range: 200, Sensors: []SensorSlots{
		{ID: 0, Budget: 3, Start: 0, End: 5,
			Runs: runsOf(0, []float64{250e3, 250e3, 0, 19.2e3, 19.2e3, 9.6e3},
				[]float64{0.33, 0.33, 0.33, 0, 0.22, 0.22})},
		{ID: 1, Budget: 0.9, Start: 3, End: 9,
			Runs: runsOf(3, []float64{0, 9.6e3, 9.6e3, 250e3, 0, 19.2e3, 4.8e3},
				[]float64{0, 0.17, 0.17, 0.33, 0, 0.22, 0})},
		{ID: 2, Start: -1, End: -1},
		{ID: 3, Budget: 1.5, Start: 6, End: 11,
			Runs: runsOf(6, []float64{4.8e3, 9.6e3, 19.2e3, 19.2e3, 9.6e3, 4.8e3},
				[]float64{0.17, 0.17, 0.22, 0.30, 0.17, 0.17})},
	}}
}

// TestCompileGAPRunsMatchPerSlot: compileGAP lists each window with one
// Builder.Run and must write what the per-slot Add loop wrote, field for
// field — on Figure 2, 3 and 4 instances, a continuous path-loss radio
// (the FPTAS: no WQ), a K=2 fleet whose sinks cross (conflict groups),
// and a hand-built tour with zero-rate and zero-power slots; in
// Offline_Appro's order with its oracle and groups, in Offline_Greedy's
// identity order, and ungrouped as OfflineSequential compiles.
func TestCompileGAPRunsMatchPerSlot(t *testing.T) {
	pathLoss, err := radio.NewPathLoss(250e3, 20, 2.5, 0.17, 0.33, 200)
	if err != nil {
		t.Fatal(err)
	}
	fixed := parityModel(t, true)
	for _, c := range []struct {
		name  string
		inst  *Instance
		exact bool // the instance has a weight quantum, so WQ is written
	}{
		{"fig2", paperInstance(t, 300, 1, radio.Paper2013(), 1), true},
		{"fig3", paperInstance(t, 300, 1, fixed, 1), true},
		{"fig4a", paperInstance(t, 300, 1, fixed, 8), true},
		{"fig4b", paperInstance(t, 300, 1, radio.Paper2013(), 8), true},
		{"pathloss", paperInstance(t, 100, 1, pathLoss, 1), false},
		{"fleet-k2", seqInstance(t, 60, 1, 1, radio.Paper2013(), false), true},
		{"zero-slots", zeroSlotInstance(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst := c.inst
			identity := make([]int, len(inst.Sensors))
			for i := range identity {
				identity[i] = i
			}
			quantum, eps := Options{}.Oracle(inst)
			if (quantum > 0) != c.exact {
				t.Fatalf("weight quantum %v, want one: %v", quantum, c.exact)
			}
			group := inst.slotGroups()
			if (group != nil) != (c.name == "fleet-k2") {
				t.Fatalf("conflict groups %v on %s", group != nil, c.name)
			}
			for _, p := range []struct {
				name         string
				order, group []int
				quantum, eps float64
			}{
				{"appro", sensorOrder(inst, nil), group, quantum, eps},
				{"greedy", identity, group, 0, 0},
				{"sequential", sensorOrder(inst, nil), nil, quantum, eps},
			} {
				got, err := inst.compileGAP(new(gap.Builder), p.order, p.group, p.quantum, p.eps)
				if err != nil {
					t.Fatal(err)
				}
				want, err := compileGAPPerSlot(inst, p.order, p.group, p.quantum, p.eps)
				if err != nil {
					t.Fatal(err)
				}
				if f := compiledDiff(got, want); f != "" {
					t.Fatalf("%s: the run form's %s differs from the per-slot loop's", p.name, f)
				}
				if len(got.First) == 0 || (p.quantum > 0) != (len(got.WQ) > 0) {
					t.Fatalf("%s: %d runs, %d quantized weights", p.name, len(got.First), len(got.WQ))
				}
			}
		})
	}
}
