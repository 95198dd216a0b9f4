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
// fails unless their picks and totals agree bit for bit and the rows
// DPFlat kept hold their invariants, and returns the picks.
func matchDense(t *testing.T, a *knapsack.Arena, profit []float64, wq []int32, capU int) []int32 {
	t.Helper()
	picks, total, err := a.DPFlat(context.Background(), profit, wq, capU)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RowsError(capU); err != nil {
		t.Fatalf("%v (profit=%v wq=%v capU=%d)", err, profit, wq, capU)
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

// runKnapsack draws a knapsack made of runs: one to four classes (a
// profit and a weight of 1–12 quanta), and one to six runs, each a class
// listed 1–40 times in a row (neighbouring runs of one class make one
// longer run). Zero-weight, non-positive and oversized candidates fall
// inside runs; DPFlat skips them, so they do not end a run. Profits are
// small integers, integers of 2^52 and above (whose sums round), or
// binary or decimal fractions, and in a quarter of the draws a leading
// profit of 2^53 or more absorbs later ones. The capacity is the weight
// of the runs up to a run boundary, give or take one quantum, or any
// weight up to the total.
func runKnapsack(rng *rand.Rand) (profit []float64, wq []int32, capU int) {
	type class struct {
		p float64
		w int32
	}
	classes := make([]class, 1+rng.Intn(4))
	form := rng.Intn(4)
	for c := range classes {
		v := float64(1 + rng.Intn(1000))
		switch form {
		case 0:
			v = float64(1 + rng.Intn(20))
		case 1:
			v = math.Ldexp(float64(1+rng.Intn(16)), 52+rng.Intn(3))
		case 2:
			v /= 256
		default:
			v /= 100
		}
		classes[c] = class{v, int32(1 + rng.Intn(12))}
	}
	sumW := 0
	var bounds []int
	if rng.Intn(4) == 0 {
		w := int32(1 + rng.Intn(12))
		profit, wq = append(profit, math.Ldexp(1, 53+rng.Intn(8))), append(wq, w)
		sumW += int(w)
		bounds = append(bounds, sumW)
	}
	for range 1 + rng.Intn(6) {
		c := classes[rng.Intn(len(classes))]
		r := 1 + rng.Intn(40)
		if rng.Intn(3) == 0 {
			r = 1 + rng.Intn(3)
		}
		for range r {
			switch rng.Intn(16) {
			case 0:
				profit, wq = append(profit, c.p), append(wq, 0)
			case 1:
				profit, wq = append(profit, -c.p), append(wq, c.w)
			case 2:
				profit, wq = append(profit, 0), append(wq, c.w)
			case 3:
				profit, wq = append(profit, c.p), append(wq, 1<<20)
			}
			profit, wq = append(profit, c.p), append(wq, c.w)
			sumW += int(c.w)
		}
		bounds = append(bounds, sumW)
	}
	if rng.Intn(2) == 0 {
		return profit, wq, bounds[rng.Intn(len(bounds))] + rng.Intn(3) - 1
	}
	return profit, wq, rng.Intn(sumW + 2)
}

// fig2Instance builds a Figure 2 tour instance: the paper's deployment
// and radio, budgets as the experiments calibrate them.
func fig2Instance(t testing.TB, n int, seed int64, speed, tau float64) *core.Instance {
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
// exact oracle meets on inst (walkFig2) and returns how many it checked.
func fig2Knapsacks(t *testing.T, a *knapsack.Arena, inst *core.Instance, rng *rand.Rand) int {
	t.Helper()
	calls := 0
	walkFig2(t, inst, rng, func(_ int, profit []float64, wq []int32, capU int) []int32 {
		calls++
		return matchDense(t, a, profit, wq, capU)
	})
	return calls
}

// walkFig2 hands solve the knapsacks the exact oracle meets on inst:
// Offline_Appro's local-ratio sweep (pass 0: sensors by start then end
// slot, profits the rate-table volumes less the claims of earlier
// sensors, and the picked slots claimed), and each sensor's knapsack at
// random multipliers λ_j (pass 1: volumes shifted by λ, as the
// Lagrangian bound solves them) and at λ = 0 (pass 2). solve returns its
// picks; the arrays it gets are reused after it returns.
func walkFig2(t testing.TB, inst *core.Instance, rng *rand.Rand, solve func(pass int, profit []float64, wq []int32, capU int) []int32) {
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
	var slot []int
	var volume, profit []float64
	var wq, pwq []int32
	for _, i := range order {
		s := &inst.Sensors[i]
		slot, volume, wq = slot[:0], volume[:0], wq[:0]
		for j := s.Start; s.Start >= 0 && j <= s.End; j++ {
			if r, p := s.RateAt(j), s.PowerAt(j); r > 0 && p > 0 && p*inst.Tau <= s.Budget {
				slot = append(slot, j)
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
			picks := solve(pass, profit, pwq, capU)
			if pass == 0 { // the sweep: the picked slots are claimed
				for _, p := range picks {
					claim[slot[pos[p]]] = volume[pos[p]]
				}
			}
		}
	}
}

// runsOf counts the runs DPFlat cuts a knapsack into: maximal sequences
// of consecutive active candidates (positive profit, weight 1..capU)
// with equal profit and weight.
func runsOf(profit []float64, wq []int32, capU int) int {
	runs, lastP, lastW := 0, 0.0, int32(0)
	for i, p := range profit {
		if w := wq[i]; p > 0 && w > 0 && int(w) <= capU {
			if p != lastP || w != lastW {
				runs++
			}
			lastP, lastW = p, w
		}
	}
	return runs
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
	// Runs of equal candidates: DPFlat writes the first run's row in
	// closed form, builds none for the last, and takes each run's first c
	// items; every path must agree with the dense DP, at capacities on
	// and beside run boundaries, with ties among the run's choices and
	// with profits that round or are absorbed. The draws must reach
	// knapsacks of three runs or more, where rows are merged run by run.
	t.Run("runs", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		merged := 0
		for trial := 0; trial < 20000; trial++ {
			profit, wq, capU := runKnapsack(rng)
			matchDense(t, a, profit, wq, capU)
			if runsOf(profit, wq, capU) >= 3 {
				merged++
			}
		}
		if merged < 1000 {
			t.Fatalf("%d of 20000 draws had three runs or more", merged)
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

// TestDPRunsSplitRuns: DPRuns, called on runs of equal candidates cut at
// random points, so that consecutive runs may share profit and weight,
// takes the candidates the dense reference takes: its picks do not rest
// on DPFlat's maximal runs, only its row count does.
func TestDPRunsSplitRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := knapsack.NewArena()
	for trial := 0; trial < 20000; trial++ {
		profit, wq, capU := runKnapsack(rng)
		if capU < 0 {
			continue
		}
		// Run q is idx[start[q]:start[q+1]]: kept candidates cut where the
		// profit or weight changes, or where the draw cuts at random.
		var idx, start, free []int32
		var rp []float64
		var rw, rc []int32
		for i, p := range profit {
			switch w := wq[i]; {
			case p <= 0 || int(w) > capU:
			case w == 0:
				free = append(free, int32(i))
			default:
				if n := len(rp); n == 0 || rp[n-1] != p || rw[n-1] != w || rng.Intn(4) == 0 {
					start, rp, rw, rc = append(start, int32(len(idx))), append(rp, p), append(rw, w), append(rc, 0)
				}
				idx = append(idx, int32(i))
				rc[len(rc)-1]++
			}
		}
		take, err := a.DPRuns(context.Background(), rp, rw, rc, capU)
		if err != nil {
			t.Fatal(err)
		}
		picks := free
		for q, c := range take {
			picks = append(picks, idx[start[q]:start[q]+c]...)
		}
		slices.Sort(picks)
		if want, _ := knapsack.DenseDP(profit, wq, capU); !slices.Equal(picks, want) {
			t.Fatalf("split runs take %v, dense %v (profit=%v wq=%v capU=%d)", picks, want, profit, wq, capU)
		}
	}
}

// FuzzDPFlatMatchesDense decodes a knapsack from the fuzzer's bytes and
// holds DPFlat to the dense reference on it. Each item takes three bytes:
// the first gives a weight of 0–63 quanta in its low six bits and the
// profit's form in its top two (integral, binary fraction, decimal
// fraction, or signed), the next two the profit's digits. A byte past
// the last item marks, bit i%8 for item i, the profits scaled by 2^44,
// beside which a later integral profit is absorbed by the float sum. A
// second byte past it, R, repeats items into runs of equal candidates:
// item i is listed 1 + R·(i+1) mod 40 times in a row, up to 256
// candidates in all. Inputs without it decode as they did before runs.
func FuzzDPFlatMatchesDense(f *testing.F) {
	f.Add(int16(3), []byte{1, 0, 1, 1, 0, 1, 1, 0, 1})
	f.Add(int16(-1), []byte{5, 0, 9})
	f.Add(int16(40), []byte{0x4c, 3, 0, 0x91, 200, 1, 0xff, 128, 7, 0x0c, 3, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, capU int16, data []byte) {
		n := min(len(data)/3, 64)
		var large, repeat byte
		if len(data) > 3*n {
			large = data[3*n]
		}
		if len(data) > 3*n+1 {
			repeat = data[3*n+1]
		}
		var profit []float64
		var wq []int32
		for i := 0; i < n; i++ {
			b := data[3*i : 3*i+3]
			w := int32(b[0] % 64)
			v := float64(int(b[1])<<8 | int(b[2]))
			var p float64
			switch b[0] >> 6 {
			case 0:
				p = v
			case 1:
				p = v / 256
			case 2:
				p = v / 100
			default:
				p = v - 32768
			}
			if large>>(i%8)&1 == 1 {
				p = math.Ldexp(p, 44)
			}
			for k := 1 + int(repeat)*(i+1)%40; k > 0 && len(profit) < 256; k-- {
				profit, wq = append(profit, p), append(wq, w)
			}
		}
		matchDense(t, knapsack.NewArena(), profit, wq, int(capU)%1000)
	})
}

// BenchmarkDPFlatFig2 replays the knapsacks of one Offline_Appro sweep on
// a Figure 2 instance (n = 300, 5 m/s, τ = 1 s), as walkFig2 walks them:
// its pass 0, the local-ratio sweep's knapsacks with residual profits,
// whose windows make runs of equal candidates. One op solves them all in
// order on one arena.
func BenchmarkDPFlatFig2(b *testing.B) {
	type input struct {
		profit []float64
		wq     []int32
		capU   int
	}
	var sweep []input
	rec := knapsack.NewArena()
	walkFig2(b, fig2Instance(b, 300, 1, 5, 1), rand.New(rand.NewSource(1)), func(pass int, profit []float64, wq []int32, capU int) []int32 {
		picks, _, err := rec.DPFlat(context.Background(), profit, wq, capU)
		if err != nil {
			b.Fatal(err)
		}
		if pass == 0 {
			sweep = append(sweep, input{slices.Clone(profit), slices.Clone(wq), capU})
		}
		return picks
	})
	a := knapsack.NewArena()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range sweep {
			if _, _, err := a.DPFlat(ctx, k.profit, k.wq, k.capU); err != nil {
				b.Fatal(err)
			}
		}
	}
}
