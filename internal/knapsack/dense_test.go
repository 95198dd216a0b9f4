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
// fraction, or signed), the next two the profit's digits.
func FuzzDPFlatMatchesDense(f *testing.F) {
	f.Add(int16(3), []byte{1, 0, 1, 1, 0, 1, 1, 0, 1})
	f.Add(int16(-1), []byte{5, 0, 9})
	f.Add(int16(40), []byte{0x4c, 3, 0, 0x91, 200, 1, 0xff, 128, 7, 0x0c, 3, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, capU int16, data []byte) {
		n := min(len(data)/3, 64)
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
		}
		matchDense(t, knapsack.NewArena(), profit, wq, int(capU)%1000)
	})
}
