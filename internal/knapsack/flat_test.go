package knapsack

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteFlat exhaustively maximizes profit over subsets with quantized
// weight ≤ capU (free items included automatically via wq = 0).
func bruteFlat(profit []float64, wq []int32, capU int) float64 {
	n := len(profit)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		p, w := 0.0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				if profit[i] <= 0 {
					p = math.Inf(-1) // never optimal to force a useless item
					break
				}
				p += profit[i]
				w += int(wq[i])
			}
		}
		if w <= capU && p > best {
			best = p
		}
	}
	return best
}

// bruteFlatCapped maximizes profit under weight ≤ capacity and profit ≤ cap.
func bruteFlatCapped(profit, weight []float64, capacity, profitCap float64) float64 {
	n := len(profit)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		p, w := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p += profit[i]
				w += weight[i]
			}
		}
		if Fits(w, capacity) && p <= profitCap+1e-9 && p > best {
			best = p
		}
	}
	return best
}

// denseDP is the dense-band kernel that DPFlat's breakpoint lists
// replaced, kept as the reference DPFlat must match bit for bit. It fills
// each DP row cell by cell on its live band only: above the prefix weight
// sum the row is flat and "take" always wins, so the traceback re-derives
// that choice instead of storing it; below capQ − suffix weight sum no
// traceback state can land. Its tables are allocated per call.
func denseDP(profit []float64, wq []int32, capU int) ([]int32, float64) {
	if capU < 0 {
		return []int32{}, 0
	}
	var idx, free []int32
	sumQ := 0
	for i := range profit {
		if profit[i] <= 0 {
			continue
		}
		w := int(wq[i])
		if w == 0 {
			free = append(free, int32(i))
			continue
		}
		if w > capU {
			continue
		}
		idx = append(idx, int32(i))
		sumQ += w
	}
	picks := []int32{}
	total := 0.0
	if m := len(idx); m > 0 {
		capQ := min(capU, sumQ)
		width := capQ + 1
		dp := make([]float64, width)
		rows := make([]bool, m*width)
		pre := make([]int, m)
		run := 0
		slack := sumQ - capQ
		prevHi := capQ
		for k := 0; k < m; k++ {
			i := idx[k]
			wk := int(wq[i])
			p := profit[i]
			run += wk
			pre[k] = run
			hi := min(capQ, run)
			// Extend the flat tail value over the new band (prevHi, hi].
			if hi > prevHi {
				flat := dp[prevHi]
				for x := prevHi + 1; x <= hi; x++ {
					dp[x] = flat
				}
			}
			prevHi = hi
			lo := max(run-slack, wk)
			for x := hi; x >= lo; x-- {
				cand := dp[x-wk] + p
				if cand > dp[x] {
					dp[x] = cand
					rows[k*width+x] = true
				}
			}
		}
		w := capQ
		for k := m - 1; k >= 0; k-- {
			i := idx[k]
			wk := int(wq[i])
			if w > pre[k] || (w >= wk && rows[k*width+w]) {
				picks = append(picks, i)
				total += profit[i]
				w -= wk
			}
		}
		slices.Reverse(picks)
	}
	freeTotal := 0.0
	for _, i := range free {
		freeTotal += profit[i]
	}
	picks = append(picks, free...)
	slices.Sort(picks)
	return picks, total + freeTotal
}

func checkPicks(t *testing.T, picks []int32, profit []float64, wq []int32, capU int, total float64) {
	t.Helper()
	sumP, sumW := 0.0, 0
	for i, p := range picks {
		if i > 0 && picks[i-1] >= p {
			t.Fatalf("picks not strictly ascending: %v", picks)
		}
		sumP += profit[p]
		sumW += int(wq[p])
	}
	if sumW > capU {
		t.Fatalf("picks weigh %d > capU %d", sumW, capU)
	}
	if math.Abs(sumP-total) > 1e-9 {
		t.Fatalf("reported profit %v != sum of picks %v", total, sumP)
	}
}

func TestDPFlatMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewArena()
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		profit := make([]float64, n)
		wq := make([]int32, n)
		for i := range profit {
			profit[i] = math.Round(rng.Float64()*100) / 10 // some exact ties
			if rng.Intn(8) == 0 {
				profit[i] = -profit[i] // dead candidate
			}
			wq[i] = int32(rng.Intn(9)) // includes zero-weight freebies
		}
		capU := rng.Intn(20)
		picks, total, err := a.DPFlat(context.Background(), profit, wq, capU)
		if err != nil {
			t.Fatal(err)
		}
		checkPicks(t, picks, profit, wq, capU, total)
		if want := bruteFlat(profit, wq, capU); math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: DPFlat %v != brute %v (profit=%v wq=%v capU=%d)",
				trial, total, want, profit, wq, capU)
		}
	}
}

func TestDPFlatTakeAllWhenRoomy(t *testing.T) {
	// Capacity at least the total weight: the suffix clamp collapses every
	// row to a single cell and the traceback must still take everything.
	a := NewArena()
	profit := []float64{1, 2, 3, 4, 5}
	wq := []int32{3, 1, 4, 1, 5}
	picks, total, err := a.DPFlat(context.Background(), profit, wq, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 5 || total != 15 {
		t.Fatalf("want all 5 items (profit 15), got picks=%v total=%v", picks, total)
	}
}

func TestDPFlatEdgeCases(t *testing.T) {
	a := NewArena()
	ctx := context.Background()
	if picks, total, _ := a.DPFlat(ctx, nil, nil, 10); len(picks) != 0 || total != 0 {
		t.Fatalf("empty input: got %v/%v", picks, total)
	}
	// Everything too heavy.
	if picks, _, _ := a.DPFlat(ctx, []float64{5, 5}, []int32{9, 9}, 4); len(picks) != 0 {
		t.Fatalf("over-capacity items picked: %v", picks)
	}
	// capU = 0 still packs zero-weight items.
	picks, total, _ := a.DPFlat(ctx, []float64{5, 7, 3}, []int32{0, 2, 0}, 0)
	if len(picks) != 2 || picks[0] != 0 || picks[1] != 2 || total != 8 {
		t.Fatalf("free items under capU=0: picks=%v total=%v", picks, total)
	}
	// Negative capacity is an empty solve, not a panic.
	if picks, _, _ := a.DPFlat(ctx, []float64{5}, []int32{1}, -1); len(picks) != 0 {
		t.Fatalf("capU<0 picked %v", picks)
	}
}

func TestFPTASFlatGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewArena()
	const eps = 0.2
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		profit := make([]float64, n)
		weight := make([]float64, n)
		wq := make([]int32, n)
		for i := range profit {
			profit[i] = 0.5 + rng.Float64()*10
			wq[i] = int32(1 + rng.Intn(8))
			weight[i] = float64(wq[i])
		}
		capacity := float64(rng.Intn(20))
		picks, total, err := a.FPTASFlat(context.Background(), eps, profit, weight, capacity)
		if err != nil {
			t.Fatal(err)
		}
		checkPicks(t, picks, profit, wq, int(capacity), total)
		opt := bruteFlat(profit, wq, int(capacity))
		if total < (1-eps)*opt-1e-9 {
			t.Fatalf("trial %d: FPTAS %v < (1-eps)*OPT %v", trial, total, (1-eps)*opt)
		}
	}
}

func TestMaxProfitUnderFlatMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewArena()
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		profit := make([]float64, n)
		weight := make([]float64, n)
		for i := range profit {
			profit[i] = float64(1 + rng.Intn(10)) // integral: quantum 1 is exact
			weight[i] = float64(rng.Intn(8))
		}
		capacity := float64(rng.Intn(18))
		profitCap := float64(1 + rng.Intn(25))
		_, total, err := a.MaxProfitUnderFlat(context.Background(), profit, weight, capacity, profitCap, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFlatCapped(profit, weight, capacity, profitCap); math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: MaxProfitUnderFlat %v != brute %v", trial, total, want)
		}
	}
}

func TestBranchAndBoundFlatMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewArena()
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		profit := make([]float64, n)
		weight := make([]float64, n)
		wq := make([]int32, n)
		for i := range profit {
			profit[i] = 0.25 + rng.Float64()*8
			wq[i] = int32(rng.Intn(7))
			weight[i] = float64(wq[i])
		}
		capacity := float64(rng.Intn(16))
		picks, total, err := a.BranchAndBoundFlat(context.Background(), profit, weight, capacity)
		if err != nil {
			t.Fatal(err)
		}
		checkPicks(t, picks, profit, wq, int(capacity), total)
		if want := bruteFlat(profit, wq, int(capacity)); math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: B&B %v != brute %v", trial, total, want)
		}
	}
}

// TestExactFitPackings: weights that fill the capacity exactly sum an ulp
// above it in float64 (8.4 + 5.7 = 14.100000000000001 > 14.1). Fits
// accepts that sum, so every float kernel must pack both items.
func TestExactFitPackings(t *testing.T) {
	profit, weight := []float64{3, 2}, []float64{8.4, 5.7}
	const capacity = 14.1
	if weight[0]+weight[1] <= capacity || !Fits(weight[0]+weight[1], capacity) {
		t.Fatal("fixture must sum an ulp above the capacity, within Fits")
	}
	if Fits(capacity+1e-8, capacity) {
		t.Fatal("Fits must refuse a weight 1e-8 over the capacity")
	}
	a := NewArena()
	ctx := context.Background()
	for _, k := range []struct {
		name string
		run  func() ([]int32, float64, error)
	}{
		{"bb", func() ([]int32, float64, error) { return a.BranchAndBoundFlat(ctx, profit, weight, capacity) }},
		{"fptas", func() ([]int32, float64, error) { return a.FPTASFlat(ctx, 0.2, profit, weight, capacity) }},
		{"capped", func() ([]int32, float64, error) { return a.MaxProfitUnderFlat(ctx, profit, weight, capacity, 10, 1) }},
	} {
		picks, total, err := k.run()
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) != 2 || total != 5 {
			t.Errorf("%s: picks %v worth %v, want both items worth 5", k.name, picks, total)
		}
	}
}

// kernelFixture is a mid-size instance used by the allocation gates below:
// big enough that a lazily grown buffer would show up, small enough to run
// thousands of times.
func kernelFixture(n int, seed int64) (profit, weight []float64, wq []int32) {
	rng := rand.New(rand.NewSource(seed))
	profit = make([]float64, n)
	weight = make([]float64, n)
	wq = make([]int32, n)
	for i := range profit {
		profit[i] = 0.1 + rng.Float64()*5
		wq[i] = int32(rng.Intn(12))
		weight[i] = float64(wq[i])
	}
	return
}

func TestNoAllocsDPFlat(t *testing.T) {
	a := NewArena()
	profit, _, wq := kernelFixture(64, 1)
	// runProfit/runWQ: four runs of equal candidates, so the closed-form
	// row, the merged middle runs and the per-run traceback run too.
	var runProfit []float64
	var runWQ []int32
	for _, r := range []struct {
		p    float64
		w, n int32
	}{{5, 3, 20}, {3, 2, 15}, {5, 4, 10}, {2, 1, 12}} {
		for range r.n {
			runProfit, runWQ = append(runProfit, r.p), append(runWQ, r.w)
		}
	}
	run := func() {
		if _, _, err := a.DPFlat(context.Background(), profit, wq, 100); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.DPFlat(context.Background(), runProfit, runWQ, 60); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("DPFlat allocates %v per run after warmup", n)
	}
}

// TestNoAllocsDPRuns: the run kernel, called on runs directly as the GAP
// sweep calls it, allocates nothing on a warm arena.
func TestNoAllocsDPRuns(t *testing.T) {
	a := NewArena()
	profit := []float64{5, 3, 5, 2, 5}
	wq := []int32{3, 2, 4, 1, 3}
	count := []int32{20, 15, 10, 12, 6}
	run := func() {
		if _, err := a.DPRuns(context.Background(), profit, wq, count, 60); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("DPRuns allocates %v per run after warmup", n)
	}
}

// TestArenaTrimBreakpoints: Trim keeps the breakpoint and run buffers an
// ordinary DPFlat call grew, and drops each one grown past arenaMax.
func TestArenaTrimBreakpoints(t *testing.T) {
	a := NewArena()
	profit, _, wq := kernelFixture(64, 1)
	if _, _, err := a.DPFlat(context.Background(), profit, wq, 100); err != nil {
		t.Fatal(err)
	}
	a.Trim()
	if cap(a.bw) == 0 || cap(a.bv) == 0 || cap(a.boff) == 0 || cap(a.rs) == 0 {
		t.Fatalf("Trim dropped an ordinary call's buffers: caps %d, %d, %d, %d", cap(a.bw), cap(a.bv), cap(a.boff), cap(a.rs))
	}
	a.bw = make([]int, 0, arenaMax+1)
	a.bv = make([]float64, 0, arenaMax+1)
	a.boff = make([]int, 0, arenaMax+1)
	a.rs = make([]int32, 0, arenaMax+1)
	a.Trim()
	if a.bw != nil || a.bv != nil || a.boff != nil || a.rs != nil {
		t.Fatalf("Trim kept oversized buffers: caps %d, %d, %d, %d", cap(a.bw), cap(a.bv), cap(a.boff), cap(a.rs))
	}
}

func TestNoAllocsFPTASFlat(t *testing.T) {
	a := NewArena()
	profit, weight, _ := kernelFixture(48, 2)
	run := func() {
		if _, _, err := a.FPTASFlat(context.Background(), 0.3, profit, weight, 80); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("FPTASFlat allocates %v per run after warmup", n)
	}
}

func TestNoAllocsMaxProfitUnderFlat(t *testing.T) {
	a := NewArena()
	profit, weight, _ := kernelFixture(48, 3)
	run := func() {
		if _, _, err := a.MaxProfitUnderFlat(context.Background(), profit, weight, 80, 40, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("MaxProfitUnderFlat allocates %v per run after warmup", n)
	}
}

func TestNoAllocsBranchAndBoundFlat(t *testing.T) {
	a := NewArena()
	profit, weight, _ := kernelFixture(20, 4)
	run := func() {
		if _, _, err := a.BranchAndBoundFlat(context.Background(), profit, weight, 30); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("BranchAndBoundFlat allocates %v per run after warmup", n)
	}
}

// TestArenaKernelInterleaving reuses one arena across kernels of different
// shapes and sizes — stale buffer contents from one call must never leak
// into the next.
func TestArenaKernelInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := NewArena()
	fresh := NewArena()
	ctx := context.Background()
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(14)
		profit, weight, wq := kernelFixture(n, rng.Int63())
		capU := rng.Intn(24)
		var got, want float64
		switch trial % 3 {
		case 0:
			_, got, _ = a.DPFlat(ctx, profit, wq, capU)
			_, want, _ = fresh.DPFlat(ctx, profit, wq, capU)
		case 1:
			_, got, _ = a.FPTASFlat(ctx, 0.25, profit, weight, float64(capU))
			_, want, _ = fresh.FPTASFlat(ctx, 0.25, profit, weight, float64(capU))
		default:
			_, got, _ = a.BranchAndBoundFlat(ctx, profit, weight, float64(capU))
			_, want, _ = fresh.BranchAndBoundFlat(ctx, profit, weight, float64(capU))
		}
		if got != want {
			t.Fatalf("trial %d: interleaved arena %v != fresh arena %v", trial, got, want)
		}
	}
}

func TestFlatKernelsCancel(t *testing.T) {
	a := NewArena()
	profit, weight, wq := kernelFixture(32, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := a.DPFlat(ctx, profit, wq, 50); err == nil {
		t.Error("DPFlat ignored canceled context")
	}
	if _, _, err := a.FPTASFlat(ctx, 0.2, profit, weight, 50); err == nil {
		t.Error("FPTASFlat ignored canceled context")
	}
	if _, _, err := a.MaxProfitUnderFlat(ctx, profit, weight, 50, 20, 1); err == nil {
		t.Error("MaxProfitUnderFlat ignored canceled context")
	}
	if _, _, err := a.BranchAndBoundFlat(ctx, profit, weight, 50); err == nil {
		t.Error("BranchAndBoundFlat ignored canceled context")
	}
}
