package core

import (
	"context"
	"reflect"
	"testing"

	"mobisink/internal/radio"
)

// TestFlatMatchesLegacy is the differential gate for the compiled flat
// engine: across a seeded sweep of 8 deployment configurations × 7 seeds
// (56 instances), the flat path must reproduce the legacy pointer-chasing
// sweep bit-for-bit — identical SlotOwner vectors and bitwise-equal Data —
// in both oracle modes (exact quantized DP and forced FPTAS).
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
				flat, err := c.Solve(context.Background(), mode.opts)
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
	first, err := c.Solve(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := c.Solve(context.Background(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Data != first.Data || !reflect.DeepEqual(again.SlotOwner, first.SlotOwner) {
			t.Fatalf("solve %d drifted: Data %v vs %v", i, again.Data, first.Data)
		}
	}
}
