package matching

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bruteMaxWeight enumerates degree-constrained matchings on tiny graphs.
func bruteMaxWeight(nl, nr int, leftCap []int, edges [][3]float64) float64 {
	best := 0.0
	// Each right node picks one of its incident edges or none.
	incident := make([][]int, nr)
	for ei, e := range edges {
		incident[int(e[1])] = append(incident[int(e[1])], ei)
	}
	deg := make([]int, nl)
	var dfs func(r int, w float64)
	dfs = func(r int, w float64) {
		if w > best {
			best = w
		}
		if r == nr {
			return
		}
		dfs(r+1, w) // leave r unmatched
		for _, ei := range incident[r] {
			l := int(edges[ei][0])
			if deg[l] < leftCap[l] && edges[ei][2] > 0 {
				deg[l]++
				dfs(r+1, w+edges[ei][2])
				deg[l]--
			}
		}
	}
	dfs(0, 0)
	return best
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(-1, 2); err == nil {
		t.Error("expected error for negative size")
	}
	g, err := NewGraph(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 0, 1); err == nil {
		t.Error("expected range error")
	}
	if err := g.AddEdge(0, -1, 1); err == nil {
		t.Error("expected range error")
	}
	if err := g.SetLeftCap(5, 1); err == nil {
		t.Error("expected range error")
	}
	if err := g.SetLeftCap(0, -1); err == nil {
		t.Error("expected negative-capacity error")
	}
}

func TestMaxWeightSimple(t *testing.T) {
	g, _ := NewGraph(2, 2)
	mustAdd(t, g, 0, 0, 10)
	mustAdd(t, g, 0, 1, 2)
	mustAdd(t, g, 1, 0, 8)
	mustAdd(t, g, 1, 1, 7)
	res := g.MaxWeight()
	if res.Weight != 17 { // 0-0 (10) + 1-1 (7)
		t.Fatalf("weight = %v, want 17", res.Weight)
	}
	if res.RightMatch[0] != 0 || res.RightMatch[1] != 1 {
		t.Errorf("matches = %v", res.RightMatch)
	}
	if res.LeftDegree[0] != 1 || res.LeftDegree[1] != 1 {
		t.Errorf("degrees = %v", res.LeftDegree)
	}
}

func TestMaxWeightSkipsBadEdges(t *testing.T) {
	g, _ := NewGraph(1, 2)
	mustAdd(t, g, 0, 0, -5)
	mustAdd(t, g, 0, 1, 0)
	res := g.MaxWeight()
	if res.Weight != 0 || res.RightMatch[0] != -1 || res.RightMatch[1] != -1 {
		t.Errorf("non-positive edges must not match: %+v", res)
	}
}

func TestMaxWeightCapacities(t *testing.T) {
	// One sensor with capacity 2 sees three slots.
	g, _ := NewGraph(1, 3)
	if err := g.SetLeftCap(0, 2); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, g, 0, 0, 5)
	mustAdd(t, g, 0, 1, 9)
	mustAdd(t, g, 0, 2, 7)
	res := g.MaxWeight()
	if res.Weight != 16 { // slots 1 and 2
		t.Fatalf("weight = %v, want 16", res.Weight)
	}
	if res.LeftDegree[0] != 2 {
		t.Errorf("degree = %d, want 2", res.LeftDegree[0])
	}
	// Zero capacity: nothing matched.
	g2, _ := NewGraph(1, 1)
	_ = g2.SetLeftCap(0, 0)
	mustAdd(t, g2, 0, 0, 5)
	if res := g2.MaxWeight(); res.Weight != 0 {
		t.Errorf("zero-capacity weight = %v", res.Weight)
	}
}

func TestMaxWeightAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		nl := 1 + rng.Intn(4)
		nr := 1 + rng.Intn(5)
		caps := make([]int, nl)
		g, _ := NewGraph(nl, nr)
		for l := range caps {
			caps[l] = 1 + rng.Intn(2)
			_ = g.SetLeftCap(l, caps[l])
		}
		var edges [][3]float64
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.6 {
					w := math.Floor(rng.Float64()*100) / 10
					edges = append(edges, [3]float64{float64(l), float64(r), w})
					mustAdd(t, g, l, r, w)
				}
			}
		}
		want := bruteMaxWeight(nl, nr, caps, edges)
		res := g.MaxWeight()
		if math.Abs(res.Weight-want) > 1e-6 {
			t.Fatalf("trial %d: flow weight %v != brute %v (nl=%d nr=%d edges=%v caps=%v)",
				trial, res.Weight, want, nl, nr, edges, caps)
		}
		validateResult(t, g, res)
	}
}

func validateResult(t *testing.T, g *Graph, res *Result) {
	t.Helper()
	deg := make([]int, g.nL)
	total := 0.0
	for r, l := range res.RightMatch {
		if l == -1 {
			continue
		}
		found := false
		for _, e := range g.edges {
			if e.l == l && e.r == r {
				total += e.w
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("matched pair (%d,%d) has no edge", l, r)
		}
		deg[l]++
	}
	for l := range deg {
		if deg[l] > g.leftCap[l] {
			t.Fatalf("left %d over capacity: %d > %d", l, deg[l], g.leftCap[l])
		}
		if deg[l] != res.LeftDegree[l] {
			t.Fatalf("left degree mismatch at %d", l)
		}
	}
	if math.Abs(total-res.Weight) > 1e-6 {
		t.Fatalf("weight mismatch: reported %v actual %v", res.Weight, total)
	}
}

func TestHungarianMatchesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		nl := 1 + rng.Intn(6)
		nr := 1 + rng.Intn(6)
		w := make([][]float64, nl)
		g, _ := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			w[l] = make([]float64, nr)
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.7 {
					w[l][r] = math.Floor(rng.Float64()*100) / 10
					if w[l][r] > 0 {
						mustAdd(t, g, l, r, w[l][r])
					}
				}
			}
		}
		matchL, totalH, err := hungarian(w)
		if err != nil {
			t.Fatal(err)
		}
		res := g.MaxWeight()
		if math.Abs(totalH-res.Weight) > 1e-6 {
			t.Fatalf("trial %d: hungarian %v != flow %v (w=%v)", trial, totalH, res.Weight, w)
		}
		// Validate the Hungarian matching itself.
		usedR := map[int]bool{}
		sum := 0.0
		for l, r := range matchL {
			if r == -1 {
				continue
			}
			if usedR[r] {
				t.Fatalf("right node %d matched twice", r)
			}
			usedR[r] = true
			sum += w[l][r]
		}
		if math.Abs(sum-totalH) > 1e-6 {
			t.Fatalf("hungarian reported %v but edges sum to %v", totalH, sum)
		}
	}
}

func TestHungarianEdgeCases(t *testing.T) {
	m, total, err := hungarian(nil)
	if err != nil || len(m) != 0 || total != 0 {
		t.Errorf("empty: %v %v %v", m, total, err)
	}
	if _, _, err := hungarian([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected ragged-matrix error")
	}
	// All-nonpositive weights: empty matching.
	m, total, err = hungarian([][]float64{{-1, 0}, {0, -2}})
	if err != nil || total != 0 {
		t.Errorf("nonpositive: total = %v err = %v", total, err)
	}
	for _, r := range m {
		if r != -1 {
			t.Error("nonpositive weights must stay unmatched")
		}
	}
}

// Sensor-copy equivalence (paper §VI): capacity c on a left node must equal
// c identical unit-capacity copies.
func TestCapacityEqualsCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		nl := 1 + rng.Intn(3)
		nr := 2 + rng.Intn(5)
		caps := make([]int, nl)
		g, _ := NewGraph(nl, nr)
		var wRows [][]float64
		for l := 0; l < nl; l++ {
			caps[l] = 1 + rng.Intn(3)
			_ = g.SetLeftCap(l, caps[l])
			row := make([]float64, nr)
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.7 {
					row[r] = math.Floor(rng.Float64()*50) / 10
					if row[r] > 0 {
						mustAdd(t, g, l, r, row[r])
					}
				}
			}
			for c := 0; c < caps[l]; c++ {
				wRows = append(wRows, row)
			}
		}
		_, totalCopies, err := hungarian(wRows)
		if err != nil {
			t.Fatal(err)
		}
		res := g.MaxWeight()
		if math.Abs(totalCopies-res.Weight) > 1e-6 {
			t.Fatalf("trial %d: copies %v != capacities %v", trial, totalCopies, res.Weight)
		}
	}
}

func mustAdd(t *testing.T, g *Graph, l, r int, w float64) {
	t.Helper()
	if err := g.AddEdge(l, r, w); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMaxWeightOfflineScale(b *testing.B) {
	// Offline special case at n=600: ~48k edges, T=2000 slots.
	rng := rand.New(rand.NewSource(1))
	nl, nr := 600, 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _ := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			_ = g.SetLeftCap(l, 6)
			start := rng.Intn(nr - 80)
			for r := start; r < start+80; r++ {
				_ = g.AddEdge(l, r, rng.Float64()*250)
			}
		}
		b.StartTimer()
		g.MaxWeight()
	}
}

// hungarian computes a maximum-weight (not necessarily perfect) matching on
// a dense weight matrix w[l][r] (weights ≤ 0 mean "no useful edge") with
// unit capacities, via the O(n³) potential-based algorithm on the padded
// square matrix. Returns per-left matches (index into right side or -1) and
// the total weight. It is the reference the flow solver is checked
// against.
func hungarian(w [][]float64) ([]int, float64, error) {
	nl := len(w)
	nr := 0
	for _, row := range w {
		if len(row) > nr {
			nr = len(row)
		}
	}
	for i, row := range w {
		if len(row) != nr && len(row) != 0 {
			return nil, 0, fmt.Errorf("matching: ragged weight matrix at row %d", i)
		}
	}
	n := nl
	if nr > n {
		n = nr
	}
	if n == 0 {
		return nil, 0, nil
	}
	// Build a square min-cost matrix: cost = -max(w, 0); dummy cells cost 0.
	cost := make([][]float64, n+1)
	for i := range cost {
		cost[i] = make([]float64, n+1)
	}
	for i := 0; i < nl; i++ {
		for j := 0; j < len(w[i]); j++ {
			if w[i][j] > 0 {
				cost[i+1][j+1] = -w[i][j]
			}
		}
	}
	// Classic 1-indexed Hungarian with potentials u, v.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0][j] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	matchL := make([]int, nl)
	for i := range matchL {
		matchL[i] = -1
	}
	total := 0.0
	for j := 1; j <= n; j++ {
		i := p[j]
		if i == 0 || i > nl || j > nr {
			continue
		}
		if len(w[i-1]) >= j && w[i-1][j-1] > 0 && cost[i][j] < 0 {
			matchL[i-1] = j - 1
			total += w[i-1][j-1]
		}
	}
	return matchL, total, nil
}
