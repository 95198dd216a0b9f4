package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"mobisink/internal/energy"
	"mobisink/internal/knapsack"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// tinyDeployment builds a short-path deployment for exhaustive ground truth.
func tinyDeployment(t *testing.T, n int, seed int64, budget float64) *network.Deployment {
	t.Helper()
	d, err := network.Generate(network.Params{N: n, PathLength: 300, MaxOffset: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetUniformBudgets(budget); err != nil {
		t.Fatal(err)
	}
	return d
}

// optimum is the exact optimum of a tiny single-sink instance by brute
// force over slot owners: each slot goes to one sensor that can use it, or
// to nobody, within every sensor's budget.
func optimum(t *testing.T, inst *Instance) float64 {
	t.Helper()
	if inst.NumSinks() > 1 || inst.T > 16 {
		t.Fatalf("brute force is for tiny single-sink instances (T = %d)", inst.T)
	}
	used := make([]float64, len(inst.Sensors))
	best := 0.0
	var visit func(j int, data float64)
	visit = func(j int, data float64) {
		if j == inst.T {
			best = max(best, data)
			return
		}
		visit(j+1, data)
		for i := range inst.Sensors {
			s := &inst.Sensors[i]
			r, w := s.RateAt(j), s.PowerAt(j)*inst.Tau
			if r <= 0 || w <= 0 || !knapsack.Fits(used[i]+w, s.Budget) {
				continue
			}
			prev := used[i]
			used[i] += w
			visit(j+1, data+r*inst.Tau)
			used[i] = prev
		}
	}
	visit(0, 0)
	return best
}

func TestBuildInstanceValidation(t *testing.T) {
	d := tinyDeployment(t, 3, 1, 1)
	if _, err := BuildInstance(nil, radio.Paper2013(), 5, 1); err == nil {
		t.Error("expected nil-deployment error")
	}
	if _, err := BuildInstance(d, nil, 5, 1); err == nil {
		t.Error("expected nil-model error")
	}
	if _, err := BuildInstance(d, radio.Paper2013(), 0, 1); err == nil {
		t.Error("expected speed error")
	}
	bad := *d
	bad.PathLength = -1
	if _, err := BuildInstance(&bad, radio.Paper2013(), 5, 1); err == nil {
		t.Error("expected deployment validation error")
	}
}

func TestBuildInstancePaperScale(t *testing.T) {
	d, _ := network.Generate(network.PaperParams(200, 5))
	_ = d.SetUniformBudgets(2)
	inst, err := BuildInstance(d, radio.Paper2013(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.T != 2000 {
		t.Fatalf("T = %d, want 2000", inst.T)
	}
	if inst.Gamma != 40 {
		t.Fatalf("Gamma = %d, want 40", inst.Gamma)
	}
	if inst.Range != 200 {
		t.Fatalf("Range = %v", inst.Range)
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start < 0 {
			continue
		}
		if s.WindowSize() > 2*inst.Gamma+2 {
			t.Fatalf("sensor %d window %d exceeds 2Γ+2", i, s.WindowSize())
		}
		for j := s.Start; j <= s.End; j++ {
			if s.RateAt(j) < 0 || s.PowerAt(j) < 0 {
				t.Fatal("negative link parameters")
			}
		}
		// Outside the window: zeros.
		if s.RateAt(s.Start-1) != 0 || s.PowerAt(s.End+1) != 0 {
			t.Fatal("out-of-window lookups must be zero")
		}
	}
}

func TestValidateAllocation(t *testing.T) {
	d := tinyDeployment(t, 3, 2, 1)
	inst, err := BuildInstance(d, radio.Paper2013(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := inst.NewAllocation()
	if v, err := inst.Validate(a); err != nil || v != 0 {
		t.Fatalf("empty allocation: %v %v", v, err)
	}
	// Assign a real slot.
	si := -1
	for i := range inst.Sensors {
		if inst.Sensors[i].Start >= 0 && inst.Sensors[i].RateAt(inst.Sensors[i].Start) > 0 {
			si = i
			break
		}
	}
	if si == -1 {
		t.Skip("no covered sensor in tiny topology")
	}
	s := &inst.Sensors[si]
	a.SlotOwner[s.Start] = si
	v, err := inst.Validate(a)
	if err != nil {
		t.Fatal(err)
	}
	want := s.RateAt(s.Start) * inst.Tau
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("data = %v, want %v", v, want)
	}
	// Slot outside window.
	bad := inst.NewAllocation()
	out := s.End + 1
	if out < inst.T {
		bad.SlotOwner[out] = si
		if _, err := inst.Validate(bad); err == nil {
			t.Error("expected out-of-window error")
		}
	}
	// Invalid sensor index.
	bad2 := inst.NewAllocation()
	bad2.SlotOwner[0] = 99
	if _, err := inst.Validate(bad2); err == nil {
		t.Error("expected invalid-sensor error")
	}
	// Wrong length.
	if _, err := inst.Validate(&Allocation{SlotOwner: make([]int, 3)}); err == nil {
		t.Error("expected length error")
	}
	if _, err := inst.Validate(nil); err == nil {
		t.Error("expected nil error")
	}
	// Budget violation: pack every window slot of a sensor with a tiny budget.
	d2 := tinyDeployment(t, 1, 3, 0.2) // 0.2 J ≈ one slot at most
	inst2, _ := BuildInstance(d2, radio.Paper2013(), 10, 1)
	s2 := &inst2.Sensors[0]
	if s2.Start >= 0 && s2.WindowSize() >= 3 {
		over := inst2.NewAllocation()
		for j := s2.Start; j <= s2.End; j++ {
			if s2.RateAt(j) > 0 {
				over.SlotOwner[j] = 0
			}
		}
		if _, err := inst2.Validate(over); err == nil {
			t.Error("expected budget violation")
		}
	}
}

func TestOfflineApproFeasibleAndHalfOptimal(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := tinyDeployment(t, 3, seed, 0.7)
		inst, err := BuildInstance(d, radio.Paper2013(), 30, 1) // T = 10
		if err != nil {
			t.Fatal(err)
		}
		a, err := OfflineAppro(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := inst.Validate(a)
		if err != nil {
			t.Fatalf("seed %d: infeasible: %v", seed, err)
		}
		if math.Abs(v-a.Data) > 1e-9 {
			t.Fatalf("seed %d: data mismatch %v vs %v", seed, a.Data, v)
		}
		opt := optimum(t, inst)
		if a.Data < opt/2-1e-9 {
			t.Fatalf("seed %d: appro %v < OPT/2 = %v", seed, a.Data, opt/2)
		}
		if ub := inst.UpperBound(); a.Data > ub+1e-9 {
			t.Fatalf("seed %d: appro %v exceeds upper bound %v", seed, a.Data, ub)
		}
	}
	if _, err := OfflineAppro(nil, Options{}); err == nil {
		t.Error("expected nil-instance error")
	}
}

// fig2Instance builds a Figure 2 cell's instance (5 m/s, τ = 1 s): the
// paper's deployment of n sensors and radio, budgets from a sunny
// three-tour accrual with 50% jitter.
func fig2Instance(t *testing.T, n int, seed int64) *Instance {
	t.Helper()
	return paperInstance(t, n, seed, radio.Paper2013(), 1)
}

// paperInstance builds fig2Instance's deployment and budgets over the
// radio model m at slot length tau.
func paperInstance(t *testing.T, n int, seed int64, m radio.Model, tau float64) *Instance {
	t.Helper()
	d, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 3*10000/5, 0.5, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(d, m, 5, tau)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestOfflineApproConcurrent: concurrent solves draw their builders from
// one pool, and each must still return what a lone solve returns.
func TestOfflineApproConcurrent(t *testing.T) {
	var insts []*Instance
	var want []*Allocation
	for _, n := range []int{20, 60, 120} {
		inst := fig2Instance(t, n, int64(n))
		a, err := OfflineAppro(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		insts, want = append(insts, inst), append(want, a)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				k := (g + r) % len(insts)
				a, err := OfflineAppro(insts[k], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if a.Data != want[k].Data || !slices.Equal(a.SlotOwner, want[k].SlotOwner) {
					t.Errorf("instance %d: concurrent solve collected %v, lone solve %v", k, a.Data, want[k].Data)
				}
			}
		}()
	}
	wg.Wait()
}

// TestOfflineGreedyConcurrent: concurrent greedy solves share the pool
// of gap workspaces with Offline_Appro and Offline_Sequential, and each
// must still return what a lone solve returns (run it under -race
// -count=10).
func TestOfflineGreedyConcurrent(t *testing.T) {
	var insts []*Instance
	var want []*Allocation
	for _, n := range []int{20, 60, 120} {
		inst := fig2Instance(t, n, int64(n))
		a, err := OfflineGreedy(inst)
		if err != nil {
			t.Fatal(err)
		}
		insts, want = append(insts, inst), append(want, a)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				k := (g + r) % len(insts)
				var a *Allocation
				var err error
				if r%2 == 0 {
					a, err = OfflineGreedy(insts[k])
				} else {
					// The other pool users, in turn.
					if other := insts[(k+1)%len(insts)]; r%4 == 1 {
						_, err = OfflineAppro(other, Options{})
					} else {
						_, err = OfflineSequential(other, Options{})
					}
					if err == nil {
						a, err = OfflineGreedy(insts[k])
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				if a.Data != want[k].Data || !slices.Equal(a.SlotOwner, want[k].SlotOwner) {
					t.Errorf("instance %d: concurrent greedy solve collected %v, lone solve %v", k, a.Data, want[k].Data)
				}
			}
		}()
	}
	wg.Wait()
}

func TestOfflineApproForceFPTAS(t *testing.T) {
	d := tinyDeployment(t, 3, 11, 0.7)
	inst, _ := BuildInstance(d, radio.Paper2013(), 30, 1)
	a, err := OfflineAppro(inst, Options{ForceFPTAS: true, Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Validate(a); err != nil {
		t.Fatal(err)
	}
	opt := optimum(t, inst)
	if a.Data < opt/(2+0.2)-1e-9 {
		t.Fatalf("fptas appro %v < OPT/(2+eps) = %v", a.Data, opt/2.2)
	}
}

func TestFixedTxPowerDetection(t *testing.T) {
	d := tinyDeployment(t, 3, 17, 1)
	multi, _ := BuildInstance(d, radio.Paper2013(), 10, 1)
	if _, ok := multi.FixedTxPower(); ok {
		t.Error("multi-rate table misdetected as fixed power")
	}
	fp, _ := radio.NewFixedPower(radio.Paper2013(), 0.3)
	fixed, _ := BuildInstance(d, fp, 10, 1)
	p, ok := fixed.FixedTxPower()
	if !ok || p != 0.3 {
		t.Errorf("fixed power = %v ok=%v, want 0.3 true", p, ok)
	}
}

func TestOfflineMaxMatchExactOnSpecialCase(t *testing.T) {
	fp, _ := radio.NewFixedPower(radio.Paper2013(), 0.3)
	for seed := int64(20); seed < 26; seed++ {
		d := tinyDeployment(t, 3, seed, 0.95)
		inst, err := BuildInstance(d, fp, 30, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := OfflineMaxMatch(inst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Validate(a); err != nil {
			t.Fatalf("seed %d: infeasible: %v", seed, err)
		}
		opt := optimum(t, inst)
		if math.Abs(a.Data-opt) > 1e-6 {
			t.Fatalf("seed %d: maxmatch %v != optimum %v", seed, a.Data, opt)
		}
	}
}

func TestOfflineMaxMatchRejectsMultiRate(t *testing.T) {
	d := tinyDeployment(t, 3, 30, 1)
	inst, _ := BuildInstance(d, radio.Paper2013(), 10, 1)
	if _, err := OfflineMaxMatch(inst); err == nil {
		t.Error("expected fixed-power error")
	}
	if _, err := OfflineMaxMatch(nil); err == nil {
		t.Error("expected nil error")
	}
}

// Paper Fig. 3 ordering on the special case: the exact matching dominates
// the GAP approximation.
func TestMaxMatchDominatesApproOnSpecialCase(t *testing.T) {
	fp, _ := radio.NewFixedPower(radio.Paper2013(), 0.3)
	d, _ := network.Generate(network.PaperParams(150, 99))
	h := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(99))
	if err := d.AssignSteadyStateBudgets(h, 2000, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(d, fp, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := OfflineMaxMatch(inst)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := OfflineAppro(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Validate(mm); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Validate(ap); err != nil {
		t.Fatal(err)
	}
	if mm.Data < ap.Data-1e-6 {
		t.Errorf("exact matching %v below approximation %v", mm.Data, ap.Data)
	}
	if ub := inst.UpperBound(); mm.Data > ub+1e-6 {
		t.Errorf("matching %v exceeds upper bound %v", mm.Data, ub)
	}
}

func TestOfflineGreedy(t *testing.T) {
	d := tinyDeployment(t, 3, 33, 0.7)
	inst, _ := BuildInstance(d, radio.Paper2013(), 30, 1)
	a, err := OfflineGreedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Validate(a); err != nil {
		t.Fatal(err)
	}
	if _, err := OfflineGreedy(nil); err == nil {
		t.Error("expected nil error")
	}
}

func TestEnergyUsed(t *testing.T) {
	d := tinyDeployment(t, 3, 44, 1)
	inst, _ := BuildInstance(d, radio.Paper2013(), 10, 1)
	a, err := OfflineAppro(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	used := inst.EnergyUsed(a)
	for i, e := range used {
		if !knapsack.Fits(e, inst.Sensors[i].Budget) {
			t.Errorf("sensor %d over budget: %v > %v", i, e, inst.Sensors[i].Budget)
		}
	}
}

func TestUpperBoundSanity(t *testing.T) {
	d := tinyDeployment(t, 4, 55, 0.5)
	inst, _ := BuildInstance(d, radio.Paper2013(), 30, 1)
	ub := inst.UpperBound()
	opt := optimum(t, inst)
	if ub < opt-1e-9 {
		t.Fatalf("upper bound %v below optimum %v", ub, opt)
	}
	// Huge budgets: the slot bound should bind (energy bound explodes).
	_ = d.SetUniformBudgets(1e6)
	rich, _ := BuildInstance(d, radio.Paper2013(), 30, 1)
	if rich.UpperBound() != rich.slotBound() {
		t.Error("with infinite energy the slot bound must bind")
	}
}

// energyBoundSortSlice is energyBound in its earlier form, the reference
// for the typed sort: a fresh slot list per sensor, ordered by sort.Slice
// under the same strict density comparison.
func energyBoundSortSlice(inst *Instance) float64 {
	total := 0.0
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start < 0 {
			continue
		}
		type slot struct{ profit, weight float64 }
		slots := make([]slot, 0, s.TotalWindowSize())
		add := func(rates, powers []float64) {
			for k, r := range rates {
				if p := powers[k]; r > 0 && p > 0 {
					slots = append(slots, slot{r * inst.Tau, p * inst.Tau})
				}
			}
		}
		for _, w := range slotLinks(s) {
			add(w.rates, w.powers)
		}
		sort.Slice(slots, func(a, b int) bool {
			return slots[a].profit*slots[b].weight > slots[b].profit*slots[a].weight
		})
		left, sum := s.Budget, 0.0
		for _, sl := range slots {
			if sl.weight <= left {
				sum += sl.profit
				left -= sl.weight
			} else {
				sum += sl.profit * left / sl.weight
				break
			}
		}
		total += sum
	}
	return total
}

// TestUpperBoundMatchesSortSlice: the energy bound sorts runs of equal
// links where sort.Slice sorted slots, and fills them slot by slot; with
// no two different links of equal density the fill adds the same
// profits in the same order. So on a Figure 2 pool, on fixed-power
// (Figure 3) instances, on a continuous path-loss radio and on a
// hand-built tour with one rate at two powers the energy bound, and with
// it UpperBound, is bit-identical.
func TestUpperBoundMatchesSortSlice(t *testing.T) {
	pathLoss, err := radio.NewPathLoss(250e3, 20, 2.5, 0.17, 0.33, 200)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := radio.NewFixedPower(radio.Paper2013(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prefix string // of the subtest names
		m      radio.Model
		ns     []int
	}{
		{"", radio.Paper2013(), []int{100, 300, 600}},
		{"fig3/", fixed, []int{100, 300}},
		{"pathloss/", pathLoss, []int{100, 300}},
	} {
		for _, n := range c.ns {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%sn=%d/seed=%d", c.prefix, n, seed), func(t *testing.T) {
					inst := paperInstance(t, n, seed, c.m, 1)
					want := energyBoundSortSlice(inst)
					if got := inst.energyBound(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("energy bound %v, sort.Slice form %v", got, want)
					}
					if got, want := inst.UpperBound(), math.Min(inst.slotBound(), want); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("UpperBound %v, sort.Slice form %v", got, want)
					}
				})
			}
		}
	}
	t.Run("zero-slots", func(t *testing.T) {
		inst := zeroSlotInstance()
		if got, want := inst.energyBound(), energyBoundSortSlice(inst); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("energy bound %v, sort.Slice form %v", got, want)
		}
	})
}

func TestThroughputMb(t *testing.T) {
	if ThroughputMb(2.5e6) != 2.5 {
		t.Error("unit conversion wrong")
	}
}

func TestWeightQuantumDetection(t *testing.T) {
	d := tinyDeployment(t, 3, 66, 1)
	inst, _ := BuildInstance(d, radio.Paper2013(), 10, 1)
	q, ok := inst.WeightQuantum()
	if !ok {
		t.Fatal("paper power table must yield a quantum")
	}
	// Powers 0.17/0.22/0.30/0.33 × τ=1 → gcd 0.01 J.
	if math.Abs(q-0.01) > 1e-9 {
		t.Errorf("quantum = %v, want 0.01", q)
	}
	// Continuous power model: no usable quantum.
	plm, _ := radio.NewPathLoss(250e3, 20, 2.5, 0.17, 0.33, 200)
	cont, _ := BuildInstance(d, plm, 10, 1)
	if _, ok := cont.WeightQuantum(); ok {
		t.Error("continuous powers must not yield a small quantum")
	}
}
