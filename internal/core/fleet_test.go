package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mobisink/internal/energy"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// fleetCfg is one configuration of the K=1 parity sweep.
type fleetCfg struct {
	name       string
	n          int
	fixedPower bool
	speed, tau float64
	explicit   bool // declare the single sink explicitly instead of legacy-implicitly
}

var parityCfgs = []fleetCfg{
	{"small-paper", 25, false, 5, 1, false},
	{"small-paper-explicit", 25, false, 5, 1, true},
	{"small-fixed", 25, true, 5, 1, false},
	{"small-fixed-fast", 25, true, 10, 1, false},
	{"mid-paper", 60, false, 5, 1, false},
	{"mid-paper-coarse", 60, false, 5, 2, false},
	{"mid-fixed-explicit", 60, true, 8, 1, true},
	{"large-paper", 120, false, 5, 1, false},
}

func parityModel(tb testing.TB, fixed bool) radio.Model {
	tb.Helper()
	if !fixed {
		return radio.Paper2013()
	}
	m, err := radio.NewFixedPower(radio.Paper2013(), 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func parityDeployment(tb testing.TB, cfg fleetCfg, seed int64) *network.Deployment {
	tb.Helper()
	d, err := network.Generate(network.PaperParams(cfg.n, seed))
	if err != nil {
		tb.Fatal(err)
	}
	h := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(seed))
	if err := d.AssignSteadyStateBudgets(h, d.PathLength/cfg.speed, 0.2, rng); err != nil {
		tb.Fatal(err)
	}
	if cfg.explicit {
		d.Sinks = []network.SinkSpec{{Speed: cfg.speed, PathLength: d.PathLength}}
	}
	return d
}

// sameAlloc demands bit-equality: identical slot owners and identical
// collected-data float bits.
func sameAlloc(t *testing.T, what string, legacy, fleet *Allocation) {
	t.Helper()
	if !reflect.DeepEqual(legacy.SlotOwner, fleet.SlotOwner) {
		t.Fatalf("%s: fleet SlotOwner differs from legacy", what)
	}
	if math.Float64bits(legacy.Data) != math.Float64bits(fleet.Data) {
		t.Fatalf("%s: fleet Data %v (bits %x) != legacy %v (bits %x)",
			what, fleet.Data, math.Float64bits(fleet.Data), legacy.Data, math.Float64bits(legacy.Data))
	}
}

// TestFleetK1BitParity: a K=1 fleet build — legacy-implicit or with one
// explicit sink spec — must be structurally identical to BuildInstance
// and bit-identical through every offline solver (8 configurations × 7
// seeds). This is the refactor's non-negotiable spine: the fleet slot
// space degenerates to the legacy one at K=1.
func TestFleetK1BitParity(t *testing.T) {
	for _, cfg := range parityCfgs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			model := parityModel(t, cfg.fixedPower)
			for seed := int64(0); seed < 7; seed++ {
				d := parityDeployment(t, cfg, seed)
				legacyDep := *d
				legacyDep.Sinks = nil
				legacy, err := BuildInstance(&legacyDep, model, cfg.speed, cfg.tau)
				if err != nil {
					t.Fatal(err)
				}
				fleet, err := BuildFleetInstance(d, model, cfg.speed, cfg.tau)
				if err != nil {
					t.Fatal(err)
				}
				if fleet.NumSinks() != 1 {
					t.Fatalf("seed %d: K=1 build reports %d sinks", seed, fleet.NumSinks())
				}
				if fleet.T != legacy.T || fleet.Gamma != legacy.Gamma {
					t.Fatalf("seed %d: fleet T=%d Γ=%d, legacy T=%d Γ=%d",
						seed, fleet.T, fleet.Gamma, legacy.T, legacy.Gamma)
				}
				for i := range legacy.Sensors {
					ls, fs := &legacy.Sensors[i], &fleet.Sensors[i]
					if len(fs.More) != 0 || fs.Sink != 0 {
						t.Fatalf("seed %d sensor %d: K=1 build has extra windows", seed, i)
					}
					if ls.Start != fs.Start || ls.End != fs.End ||
						!reflect.DeepEqual(ls.Runs, fs.Runs) {
						t.Fatalf("seed %d sensor %d: fleet window differs from legacy", seed, i)
					}
				}

				ctx := context.Background()
				la, err := OfflineApproCtx(ctx, legacy, Options{})
				if err != nil {
					t.Fatal(err)
				}
				fa, err := OfflineApproCtx(ctx, fleet, Options{})
				if err != nil {
					t.Fatal(err)
				}
				sameAlloc(t, "Offline_Appro", la, fa)

				lg, err := OfflineGreedyCtx(ctx, legacy)
				if err != nil {
					t.Fatal(err)
				}
				fg, err := OfflineGreedyCtx(ctx, fleet)
				if err != nil {
					t.Fatal(err)
				}
				sameAlloc(t, "Offline_Greedy", lg, fg)

				lq, err := OfflineSequentialCtx(ctx, legacy, Options{})
				if err != nil {
					t.Fatal(err)
				}
				fq, err := OfflineSequentialCtx(ctx, fleet, Options{})
				if err != nil {
					t.Fatal(err)
				}
				sameAlloc(t, "Offline_Sequential", lq, fq)

				if cfg.fixedPower {
					lm, err := OfflineMaxMatchCtx(ctx, legacy)
					if err != nil {
						t.Fatal(err)
					}
					fm, err := OfflineMaxMatchCtx(ctx, fleet)
					if err != nil {
						t.Fatal(err)
					}
					sameAlloc(t, "Offline_MaxMatch", lm, fm)
				}

				if math.Float64bits(legacy.UpperBound()) != math.Float64bits(fleet.UpperBound()) {
					t.Fatalf("seed %d: upper bounds diverge", seed)
				}
			}
		})
	}
}

// fleetDeployment builds a small fixed-power-friendly topology split
// across k sinks.
func fleetDeployment(tb testing.TB, n int, seed int64, k int, speed float64) *network.Deployment {
	tb.Helper()
	d, err := network.Generate(network.Params{N: n, PathLength: 2000, MaxOffset: 120, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	h := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(seed))
	if err := d.AssignSteadyStateBudgets(h, d.PathLength/speed, 0.2, rng); err != nil {
		tb.Fatal(err)
	}
	if err := d.SplitSinks(k, nil); err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestFleetApproRatioK2K4: on fixed-power fleet instances Offline_MaxMatch
// is the exact group-constrained optimum, so the local-ratio fleet solve
// must stay within its 1/(2+ε) guarantee — checked over 50 seeded
// instances split across K ∈ {2, 4} — and both allocations must be
// conflict-free (Validate enforces the cross-sink constraint).
func TestFleetApproRatioK2K4(t *testing.T) {
	model := parityModel(t, true)
	const eps = 0.1
	floor := 1.0 / (2 + eps)
	checked := 0
	for _, k := range []int{2, 4} {
		for seed := int64(0); seed < 25; seed++ {
			d := fleetDeployment(t, 20, seed, k, 5)
			inst, err := BuildFleetInstance(d, model, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := OfflineMaxMatch(inst)
			if err != nil {
				t.Fatal(err)
			}
			appro, err := OfflineAppro(inst, Options{Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Validate(exact); err != nil {
				t.Fatalf("K=%d seed %d: MaxMatch allocation infeasible: %v", k, seed, err)
			}
			if _, err := inst.Validate(appro); err != nil {
				t.Fatalf("K=%d seed %d: Appro allocation infeasible: %v", k, seed, err)
			}
			if exact.Data <= 0 {
				continue // degenerate topology; nothing to ratio against
			}
			if ratio := appro.Data / exact.Data; ratio < floor-1e-9 {
				t.Fatalf("K=%d seed %d: Appro/MaxMatch = %v below 1/(2+ε) = %v", k, seed, ratio, floor)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d non-degenerate instances checked, want at least 50", checked)
	}
}

// TestFleetMaxMatchConflictGroups: at K>1 a sensor rich enough to win
// multiple slots must never be matched to two sinks in the same absolute
// slot, and the matching's collected data must dominate every single-sink
// restriction of the same deployment.
func TestFleetMaxMatchBeatsSingleSink(t *testing.T) {
	model := parityModel(t, true)
	better := 0
	for seed := int64(0); seed < 10; seed++ {
		d := fleetDeployment(t, 20, seed, 2, 5)
		inst, err := BuildFleetInstance(d, model, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		fleetAlloc, err := OfflineMaxMatch(inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Validate(fleetAlloc); err != nil {
			t.Fatal(err)
		}
		single := *d
		single.Sinks = nil
		sInst, err := BuildInstance(&single, model, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		sAlloc, err := OfflineMaxMatch(sInst)
		if err != nil {
			t.Fatal(err)
		}
		// Two half-tours collect at least as much as... not guaranteed in
		// general (different trajectories), so demand it only in aggregate.
		if fleetAlloc.Data >= sAlloc.Data {
			better++
		}
	}
	if better < 5 {
		t.Fatalf("two-sink fleet beat the single sink on only %d/10 seeds", better)
	}
}

// FuzzFleetBuild checks build invariants over fuzzed topology/fleet
// parameters: every window sits inside its sink's slot segment, its runs
// tile it one link a run, budgets stay non-negative, and the per-slot
// lookups read, bit for bit, what the per-slot link loop wrote.
func FuzzFleetBuild(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(2), 5.0, 1.0)
	f.Add(int64(2), uint8(30), uint8(1), 8.0, 2.0)
	f.Add(int64(3), uint8(5), uint8(4), 3.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, n, k uint8, speed, tau float64) {
		nSensors := int(n%40) + 3
		nSinks := int(k%4) + 1
		if math.IsNaN(speed) || math.IsInf(speed, 0) || speed <= 0.1 || speed > 50 {
			speed = 5
		}
		if math.IsNaN(tau) || math.IsInf(tau, 0) || tau <= 0.1 || tau > 10 {
			tau = 1
		}
		d, err := network.Generate(network.Params{N: nSensors, PathLength: 3000, MaxOffset: 150, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h := energy.PaperSolar(energy.Sunny)
		rng := rand.New(rand.NewSource(seed))
		if err := d.AssignSteadyStateBudgets(h, d.PathLength/speed, 0.3, rng); err != nil {
			t.Fatal(err)
		}
		if err := d.SplitSinks(nSinks, nil); err != nil {
			t.Fatal(err)
		}
		inst, err := BuildFleetInstance(d, radio.Paper2013(), speed, tau)
		if err != nil {
			t.Fatal(err)
		}
		if inst.NumSinks() != nSinks {
			t.Fatalf("built %d sinks, want %d", inst.NumSinks(), nSinks)
		}
		total := 0
		for kk, si := range inst.Sinks {
			if si.Offset != total {
				t.Fatalf("sink %d offset %d, want %d", kk, si.Offset, total)
			}
			if si.T <= 0 {
				t.Fatalf("sink %d has empty tour", kk)
			}
			total += si.T
		}
		if total != inst.T {
			t.Fatalf("sink segments sum to %d slots, instance has %d", total, inst.T)
		}
		checkWindow := func(i, sink, start, end int, runs []LinkRun) {
			seg := inst.Sinks[sink]
			if start < seg.Offset || end >= seg.Offset+seg.T || start > end {
				t.Fatalf("sensor %d window [%d,%d] outside sink %d segment [%d,%d)",
					i, start, end, sink, seg.Offset, seg.Offset+seg.T)
			}
			for _, run := range runs {
				if run.Rate < 0 || run.Power < 0 {
					t.Fatalf("sensor %d slots %d..%d: negative rate or power", i, run.Start, run.End)
				}
			}
			for j := start; j <= end; j++ {
				if inst.SinkOfSlot(j) != sink {
					t.Fatalf("slot %d attributed to sink %d, window says %d", j, inst.SinkOfSlot(j), sink)
				}
				a := inst.AbsSlot(j)
				if a < 0 || a >= seg.T {
					t.Fatalf("slot %d: absolute slot %d outside [0,%d)", j, a, seg.T)
				}
			}
		}
		for i := range inst.Sensors {
			s := &inst.Sensors[i]
			if s.Budget < 0 {
				t.Fatalf("sensor %d has negative budget %v", i, s.Budget)
			}
			if s.Start < 0 {
				if len(s.More) != 0 {
					t.Fatalf("deaf sensor %d has extra windows", i)
				}
				continue
			}
			checkWindow(i, s.Sink, s.Start, s.End, s.Runs)
			prevSink := s.Sink
			for wi := range s.More {
				w := &s.More[wi]
				if w.Sink <= prevSink {
					t.Fatalf("sensor %d windows out of sink order", i)
				}
				prevSink = w.Sink
				checkWindow(i, w.Sink, w.Start, w.End, w.Runs)
			}
		}
		checkPerSlot(t, inst, perSlotWindows(d, radio.Paper2013(), inst.Sinks))
	})
}

// crossSinkMapRef is Validate's cross-sink check as it ran before it
// read SlotOwner: a map of the claimed (sensor, absolute slot) pairs,
// scanned in slot order, naming the first slot whose sensor already
// claimed its absolute slot, and the claim's slot; "" when none did.
func crossSinkMapRef(inst *Instance, a *Allocation) string {
	claimed := map[[2]int]int{}
	for j, i := range a.SlotOwner {
		if i < 0 {
			continue
		}
		key := [2]int{i, inst.AbsSlot(j)}
		if prev, dup := claimed[key]; dup {
			return fmt.Sprintf("core: sensor %d transmits to two sinks in absolute slot %d (global slots %d and %d)", i, key[1], prev, j)
		}
		claimed[key] = j
	}
	return ""
}

// TestValidateCrossSinkMatchesMap: Validate finds a sensor on two sinks
// in one absolute slot by reading SlotOwner at the sink segments'
// offsets, and must report the first such slot, with the same message,
// as the map of claimed pairs did — on random allocations over fleets
// whose sinks cross, run at two speeds and split the road eight ways,
// each slot given, at a random density, to a random sensor that can use
// it.
func TestValidateCrossSinkMatchesMap(t *testing.T) {
	conflicts, clean := 0, 0
	for shape := 1; shape < len(seqShapes); shape++ {
		inst := seqInstance(t, 60, 3, shape, radio.Paper2013(), false)
		users := make([][]int, inst.T)
		for i := range inst.Sensors {
			for j := 0; j < inst.T; j++ {
				if inst.Sensors[i].RateAt(j) > 0 {
					users[j] = append(users[j], i)
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(shape)))
		for trial := 0; trial < 40; trial++ {
			density := float64(trial+1) / 40
			a := inst.NewAllocation()
			for j, us := range users {
				if len(us) > 0 && rng.Float64() < density {
					a.SlotOwner[j] = us[rng.Intn(len(us))]
				}
			}
			_, err := inst.Validate(a)
			want := crossSinkMapRef(inst, a)
			switch {
			case want != "" && (err == nil || err.Error() != want):
				t.Fatalf("%s trial %d: Validate said %v, the map check %q", seqShapes[shape].name, trial, err, want)
			case want == "" && err != nil && strings.Contains(err.Error(), "two sinks"):
				t.Fatalf("%s trial %d: Validate said %v, the map check found no conflict", seqShapes[shape].name, trial, err)
			case want != "":
				conflicts++
			default:
				clean++
			}
		}
	}
	if conflicts == 0 || clean == 0 {
		t.Fatalf("%d allocations with a conflict and %d without: both cases must occur", conflicts, clean)
	}
}
