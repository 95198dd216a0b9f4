package knapsack_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/knapsack"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// matchDense runs DPFlat on a and the dense reference on one knapsack,
// fails unless their picks and totals agree bit for bit, and returns the
// picks.
func matchDense(t *testing.T, a *knapsack.Arena, profit []float64, wq []int32, capU int) []int32 {
	t.Helper()
	picks, total, err := a.DPFlat(context.Background(), profit, wq, capU)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTotal := knapsack.DenseDP(profit, wq, capU)
	if !slices.Equal(picks, want) || math.Float64bits(total) != math.Float64bits(wantTotal) {
		t.Fatalf("DPFlat picks %v worth %v, dense %v worth %v (profit=%v wq=%v capU=%d)",
			picks, total, want, wantTotal, profit, wq, capU)
	}
	return picks
}

// randomKnapsack draws one DPFlat input: integral profits (ties and
// zeros), float profits, or differences of rate-table volumes (residual
// profits, many of them non-positive); some profits negated, some items
// weightless, some duplicates of an earlier item; and a capacity that is
// negative, the exact weight of a random subset, or anything up to the
// total weight.
func randomKnapsack(rng *rand.Rand) (profit []float64, wq []int32, capU int) {
	volumes := []float64{250e3, 19.2e3, 9.6e3, 4.8e3}
	n := rng.Intn(40)
	maxW := []int{2, 8, 33, 300}[rng.Intn(4)]
	kind := rng.Intn(3)
	profit, wq = make([]float64, n), make([]int32, n)
	sumW := 0
	for i := range profit {
		if i > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(i)
			profit[i], wq[i] = profit[j], wq[j]
		} else {
			switch kind {
			case 0:
				profit[i] = float64(rng.Intn(20))
			case 1:
				profit[i] = rng.Float64() * 100
			default:
				profit[i] = volumes[rng.Intn(4)] - volumes[rng.Intn(4)]
			}
			if rng.Intn(10) == 0 {
				profit[i] = -profit[i]
			}
			wq[i] = int32(rng.Intn(maxW + 1))
		}
		sumW += int(wq[i])
	}
	switch rng.Intn(6) {
	case 0:
		capU = -1 - rng.Intn(3)
	case 1:
		for _, w := range wq {
			if rng.Intn(2) == 0 {
				capU += int(w)
			}
		}
	default:
		capU = rng.Intn(sumW + 2)
	}
	return profit, wq, capU
}

// allFitKnapsack draws a knapsack whose capacity holds every candidate
// at once, as randomKnapsack draws its items, with profits of mixed
// magnitudes (up to 2^60, so later small ones may be absorbed by the
// float sum) in about a third of the draws.
func allFitKnapsack(rng *rand.Rand) (profit []float64, wq []int32, capU int) {
	profit, wq, _ = randomKnapsack(rng)
	if rng.Intn(3) == 0 {
		for i := range profit {
			if rng.Intn(4) == 0 {
				profit[i] = math.Ldexp(1+float64(rng.Intn(8)), 50+rng.Intn(8))
			}
		}
	}
	for _, w := range wq {
		capU += int(w)
	}
	return profit, wq, capU + rng.Intn(3)
}

// fig2Instance builds a Figure 2 tour instance: the paper's deployment
// and radio, budgets as the experiments calibrate them.
func fig2Instance(t *testing.T, n int, seed int64, speed, tau float64) *core.Instance {
	t.Helper()
	dep, err := network.Generate(network.PaperParams(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.AssignSteadyStateBudgets(energy.PaperSolar(energy.Sunny), 3*10000/speed, 0.5, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	inst, err := core.BuildInstance(dep, radio.Paper2013(), speed, tau)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// fig2Knapsacks holds DPFlat to the dense reference on the knapsacks the
// exact oracle meets on inst: Offline_Appro's local-ratio sweep (sensors
// by start then end slot, profits the rate-table volumes less the claims
// of earlier sensors), and each sensor's knapsack at λ = 0 and at random
// multipliers λ_j (volumes shifted by λ, as the Lagrangian bound solves
// them). It returns the number of knapsacks checked.
func fig2Knapsacks(t *testing.T, a *knapsack.Arena, inst *core.Instance, rng *rand.Rand) int {
	t.Helper()
	q, ok := inst.WeightQuantum()
	if !ok {
		t.Fatal("a Figure 2 instance has no weight quantum")
	}
	order := make([]int, 0, len(inst.Sensors))
	for i := range inst.Sensors {
		if inst.Sensors[i].Start >= 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(x, y int) int {
		sx, sy := &inst.Sensors[x], &inst.Sensors[y]
		return cmp.Or(cmp.Compare(sx.Start, sy.Start), cmp.Compare(sx.End, sy.End), cmp.Compare(x, y))
	})
	claim := make([]float64, inst.T)
	lambda := make([]float64, inst.T)
	for j := range lambda {
		if rng.Intn(2) == 0 {
			lambda[j] = rng.Float64() * 250e3 * inst.Tau
		}
	}
	calls := 0
	var slot []int
	var volume, profit []float64
	var wq, pwq []int32
	for _, i := range order {
		s := &inst.Sensors[i]
		slot, volume, wq = slot[:0], volume[:0], wq[:0]
		for k, r := range s.Rates {
			if p := s.Powers[k]; r > 0 && p > 0 && p*inst.Tau <= s.Budget {
				slot = append(slot, s.Start+k)
				volume = append(volume, r*inst.Tau)
				wq = append(wq, knapsack.QuantizeWeight(p*inst.Tau, q))
			}
		}
		capU := int(knapsack.QuantizeCapacity(s.Budget, q))
		for pass, shift := range [][]float64{claim, lambda, nil} {
			var pos []int
			profit, pwq = profit[:0], pwq[:0]
			for e, v := range volume {
				if shift != nil {
					v -= shift[slot[e]]
				}
				if v > 0 {
					profit, pwq, pos = append(profit, v), append(pwq, wq[e]), append(pos, e)
				}
			}
			picks := matchDense(t, a, profit, pwq, capU)
			calls++
			if pass == 0 { // the sweep: the picked slots are claimed
				for _, p := range picks {
					claim[slot[pos[p]]] = volume[pos[p]]
				}
			}
		}
	}
	return calls
}

// TestDPFlatMatchesDense holds DPFlat's picks and total bit for bit to
// the dense reference, on random knapsacks and on those Figure 2
// instances give the exact oracle. One arena serves every call, so no
// state may leak from one call into the next either.
func TestDPFlatMatchesDense(t *testing.T) {
	a := knapsack.NewArena()
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for trial := 0; trial < 20000; trial++ {
			profit, wq, capU := randomKnapsack(rng)
			matchDense(t, a, profit, wq, capU)
		}
	})
	// positive counts the candidates with a positive profit: those an
	// all-fit knapsack takes unless a profit is absorbed.
	positive := func(profit []float64) int {
		n := 0
		for _, p := range profit {
			if p > 0 {
				n++
			}
		}
		return n
	}
	// Every candidate fits, so the DP has no slack and each row keeps one
	// breakpoint; DPFlat must agree with the dense DP whether it takes
	// every candidate or a profit is absorbed (zero-weight and
	// non-positive candidates mixed in).
	t.Run("all-fit", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		taken, partial := 0, 0
		for trial := 0; trial < 20000; trial++ {
			profit, wq, capU := allFitKnapsack(rng)
			if picks := matchDense(t, a, profit, wq, capU); len(picks) == positive(profit) {
				taken++
			} else {
				partial++
			}
		}
		if taken == 0 || partial == 0 {
			t.Fatalf("all-fit draws: %d took every candidate, %d did not; want both kinds", taken, partial)
		}
	})
	// A 1 after 2^53 is absorbed by the float sum, and the dense DP drops
	// it though everything fits, so DPFlat must drop it too.
	t.Run("absorbed", func(t *testing.T) {
		for _, c := range []struct {
			profit []float64
			wq     []int32
			capU   int
		}{
			{[]float64{1 << 53, 1}, []int32{1, 1}, 2},
			{[]float64{1 << 53, 1, 0, 3}, []int32{1, 1, 0, 1}, 5},
			{[]float64{1, 1 << 53, 1, -2, 1 << 53}, []int32{2, 1, 1, 0, 3}, 7},
		} {
			if picks := matchDense(t, a, c.profit, c.wq, c.capU); len(picks) >= positive(c.profit) {
				t.Fatalf("profits %v: picks %v, want an absorbed 1 dropped", c.profit, picks)
			}
		}
		if picks := matchDense(t, a, []float64{1 << 53, 1}, []int32{1, 1}, 2); !slices.Equal(picks, []int32{0}) {
			t.Fatalf("picks %v, want [0]", picks)
		}
	})
	for _, c := range []struct {
		n          int
		speed, tau float64
	}{{100, 5, 1}, {300, 5, 1}, {100, 10, 2}, {100, 30, 4}} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("fig2/n=%d/speed=%v/tau=%v/seed=%d", c.n, c.speed, c.tau, seed), func(t *testing.T) {
				inst := fig2Instance(t, c.n, seed, c.speed, c.tau)
				if calls := fig2Knapsacks(t, a, inst, rand.New(rand.NewSource(seed))); calls < c.n {
					t.Fatalf("checked %d knapsacks on %d sensors", calls, c.n)
				}
			})
		}
	}
}

// FuzzDPFlatMatchesDense decodes a knapsack from the fuzzer's bytes and
// holds DPFlat to the dense reference on it. Each item takes three bytes:
// the first gives a weight of 0–63 quanta in its low six bits and the
// profit's form in its top two (integral, binary fraction, decimal
// fraction, or signed), the next two the profit's digits. A byte past
// the last item marks, bit i%8 for item i, the profits scaled by 2^44,
// beside which a later integral profit is absorbed by the float sum.
func FuzzDPFlatMatchesDense(f *testing.F) {
	f.Add(int16(3), []byte{1, 0, 1, 1, 0, 1, 1, 0, 1})
	f.Add(int16(-1), []byte{5, 0, 9})
	f.Add(int16(40), []byte{0x4c, 3, 0, 0x91, 200, 1, 0xff, 128, 7, 0x0c, 3, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, capU int16, data []byte) {
		n := min(len(data)/3, 64)
		var large byte
		if len(data) > 3*n {
			large = data[3*n]
		}
		profit, wq := make([]float64, n), make([]int32, n)
		for i := range profit {
			b := data[3*i : 3*i+3]
			wq[i] = int32(b[0] % 64)
			v := float64(int(b[1])<<8 | int(b[2]))
			switch b[0] >> 6 {
			case 0:
				profit[i] = v
			case 1:
				profit[i] = v / 256
			case 2:
				profit[i] = v / 100
			default:
				profit[i] = v - 32768
			}
			if large>>(i%8)&1 == 1 {
				profit[i] = math.Ldexp(profit[i], 44)
			}
		}
		matchDense(t, knapsack.NewArena(), profit, wq, int(capU)%1000)
	})
}
