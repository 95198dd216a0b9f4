package knapsack

// Flat kernels: every solver in this package. Each kernel operates on
// parallel candidate arrays (profits, weights), draws every table from a
// caller-held Arena, and appends its picks to an arena-backed buffer —
// after the arena has warmed up, a kernel call performs no heap
// allocation at all (gated by TestNoAllocs* in flat_test.go).
//
// DPFlat keeps each row of its DP as the row's breakpoints, not as a
// dense array of capacity+1 cells: a row, the best profit within weight
// x, is a step function of x with far fewer steps than cells on the
// knapsacks the GAP sweep meets. The min-weight DP behind FPTASFlat and
// MaxProfitUnderFlat fills dense rows, clamped to the prefix sum of the
// scaled profits so far, and skips the per-call clearing of its choice
// matrix: rows are written unconditionally inside the reachable range and
// the traceback re-derives the (provably constant) choice outside it, so
// it returns bit-identical picks to the classic full-range formulation
// while touching a fraction of the memory.

import (
	"context"
	"math"
	"slices"
)

// Arena is the reusable scratch shared by the flat kernels. The zero
// value is ready to use; buffers grow on demand and are retained across
// calls. An Arena must not be used concurrently; concurrent callers hold
// one arena each (gap.Scratch embeds one).
type Arena struct {
	dp    []float64 // minimum-weight row
	rows  []bool    // min-weight DP's choice matrix, never cleared
	pre   []int     // prefix sums of quantized weights / scaled profits
	bw    []int     // DP breakpoint weights, row after row
	bv    []float64 // DP breakpoint values, parallel to bw
	boff  []int     // start of each DP row in bw and bv
	sq    []int32   // scaled profits (FPTAS / profit-capped DP)
	idx   []int32   // active candidate positions
	free  []int32   // zero-weight always-picked candidates
	picks []int32   // traceback output, reused across calls
	ord   []int32   // branch-and-bound density order
	cur   []int32   // branch-and-bound current set
	best  []int32   // branch-and-bound incumbent set
	mark  []bool    // branch-and-bound pick marks
}

// NewArena returns an empty arena (equivalent to new(Arena); provided for
// discoverability).
func NewArena() *Arena { return new(Arena) }

// floats returns a length-n slice backed by the arena without
// clearing it; callers overwrite every element they read.
func (a *Arena) floats(n int) []float64 {
	if cap(a.dp) < n {
		a.dp = make([]float64, n)
	}
	return a.dp[:n]
}

func (a *Arena) bools(n int) []bool {
	if cap(a.rows) < n {
		a.rows = make([]bool, n)
	}
	return a.rows[:n]
}

func (a *Arena) ints(n int) []int {
	if cap(a.pre) < n {
		a.pre = make([]int, n)
	}
	return a.pre[:n]
}

func (a *Arena) int32s(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// nodeCheckInterval is how many branch-and-bound nodes are expanded
// between context polls; the DP kernels poll once per item layer instead.
const nodeCheckInterval = 4096

// arenaMax bounds how large a retained buffer may grow; a one-off huge
// instance does not pin its tables forever.
const arenaMax = 1 << 22

// Trim drops oversized buffers so pooled arenas do not pin memory from a
// one-off huge instance.
func (a *Arena) Trim() {
	if cap(a.dp) > arenaMax {
		a.dp = nil
	}
	if cap(a.rows) > arenaMax {
		a.rows = nil
	}
	if cap(a.pre) > arenaMax {
		a.pre = nil
	}
	if cap(a.bw) > arenaMax {
		a.bw = nil
	}
	if cap(a.bv) > arenaMax {
		a.bv = nil
	}
	if cap(a.boff) > arenaMax {
		a.boff = nil
	}
}

// mergeFree merges the ascending free-item positions into the ascending
// picks, keeping the combined sequence ascending, and returns the summed
// profit of the free items.
func (a *Arena) mergeFree(profit []float64) float64 {
	if len(a.free) == 0 {
		return 0
	}
	total := 0.0
	for _, i := range a.free {
		total += profit[i]
	}
	merged := append(a.picks, a.free...) // may grow; reuse backing next call
	// Both runs are ascending; a single backward merge keeps it in place.
	i, j := len(a.picks)-1, len(a.free)-1
	for k := len(merged) - 1; j >= 0; k-- {
		if i >= 0 && a.picks[i] > a.free[j] {
			merged[k] = a.picks[i]
			i--
		} else {
			merged[k] = a.free[j]
			j--
		}
	}
	a.picks = merged
	return total
}

// DPFlat solves the 0/1 knapsack exactly over quantized weights: candidate
// i has profit[i] and integral weight wq[i], the capacity is capU quanta.
// Candidates with non-positive profit or wq > capU are skipped; zero-weight
// positive-profit candidates are always packed. It returns the picked
// candidate positions in ascending order (backed by the arena — valid only
// until its next kernel call) and their summed profit. The context is
// polled once per item layer.
//
// The picks are bit-identical to the textbook full-range DP with strict
// improvement ('>') and a descending traceback. Each row of that DP, the
// best profit within weight x over the first k items, is a nondecreasing
// step function of x; DPFlat keeps only its breakpoints (Nemhauser and
// Ullmann's list form) and builds row k by one linear merge of row k−1
// with row k−1 shifted by (w_k, p_k). Every value it keeps is the float
// the dense table holds at that weight (an earlier value, or one plus
// p_k), and the traceback reads the two values the dense DP compared, by
// binary search in row k−1, so it makes every choice the dense DP made.
// A row costs time in its breakpoints, not in the capacity: few on
// rate-table profits, but random float profits over small weights make
// nearly every weight a breakpoint, and then the merge is several times
// slower than the dense band it replaced (BenchmarkDP80DenseRows).
func (a *Arena) DPFlat(ctx context.Context, profit []float64, wq []int32, capU int) ([]int32, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	a.idx = a.idx[:0]
	a.free = a.free[:0]
	a.picks = a.picks[:0]
	if capU < 0 {
		return a.picks, 0, nil
	}
	pre := a.pre[:0] // prefix sums of the active candidates' weights
	sumQ := 0
	for i := range profit {
		if profit[i] <= 0 {
			continue
		}
		w := int(wq[i])
		if w == 0 {
			a.free = append(a.free, int32(i))
			continue
		}
		if w > capU {
			continue
		}
		a.idx = append(a.idx, int32(i))
		sumQ += w
		pre = append(pre, sumQ)
	}
	a.pre = pre
	m := len(a.idx)
	if m == 0 {
		total := a.mergeFree(profit)
		return a.picks, total, nil
	}
	capQ := min(capU, sumQ)
	slack := sumQ - capQ
	// Row k−1, the step function before item k, is bw/bv[off[k]:off[k+1]]:
	// weights and values both strictly increasing, weights ≤ capQ, the
	// first at or below every weight the row is read at. Row −1 (no
	// items) is {(0, 0)}. The traceback never reads row m−1, so it is not
	// built.
	bw := append(a.bw[:0], 0)
	bv := append(a.bv[:0], 0)
	off := append(a.boff[:0], 0, 1)
	for k := 0; k < m-1; k++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		i := a.idx[k]
		wk, p := int(wq[i]), profit[i]
		lo, hi := off[k], off[k+1]
		n := hi - lo
		base := len(bw)
		bw = slices.Grow(bw, 2*n)[:base+2*n]
		bv = slices.Grow(bv, 2*n)[:base+2*n]
		gw, gv := bw[lo:hi], bv[lo:hi]
		ow, ov := bw[base:], bv[base:]
		// Merge g(x) = row k−1 with s(x) = g(x−wk)+p in weight order,
		// keeping the upper envelope. last, the envelope's value so far,
		// is at least the value of g and of s in force, so a breakpoint
		// of either raises the envelope iff its value exceeds last. At a
		// shared weight s wins only when strictly greater, as in the
		// dense DP. Row k is read only at weights of at least
		// dead = capQ − (weight of items k+1..m−1): no traceback state
		// lands lower. So a breakpoint at or below dead replaces the one
		// before it, and row k+1, built from it, is exact from its own
		// dead weight on.
		dead := pre[k] - slack
		o, x, y := 0, 0, 0
		last := math.Inf(-1)
		for x < n && y < n {
			xw, yw := gw[x], gw[y]+wk
			if yw > capQ {
				break
			}
			var w int
			var v float64
			switch {
			case xw < yw:
				w, v = xw, gv[x]
				x++
			case yw < xw:
				w, v = yw, gv[y]+p
				y++
			default:
				w, v = xw, gv[x]
				if sv := gv[y] + p; sv > v {
					v = sv
				}
				x++
				y++
			}
			if v > last {
				if w <= dead {
					o = 0
				}
				ow[o], ov[o] = w, v
				o++
				last = v
			}
		}
		// One list is spent (or s has passed capQ); the other's values
		// rise, so from its first value above last on it is copied whole.
		for ; x < n; x++ {
			if gv[x] > last {
				o += copy(ow[o:], gw[x:n])
				copy(ov[o-(n-x):], gv[x:n])
				break
			}
		}
		for ; y < n && gw[y]+wk <= capQ; y++ {
			if v := gv[y] + p; v > last {
				if gw[y]+wk <= dead {
					o = 0
				}
				ow[o], ov[o] = gw[y]+wk, v
				o++
				last = v
			}
		}
		bw, bv = bw[:base+o], bv[:base+o]
		off = append(off, base+o)
	}
	a.bw, a.bv, a.boff = bw, bv, off
	// Traceback, picks emitted in descending k then reversed to ascending.
	w := capQ
	total := 0.0
	for k := m - 1; k >= 0; k-- {
		i := a.idx[k]
		wk := int(wq[i])
		// Above the prefix weight sum every item so far fits, so the DP is
		// in its flat value region where adding item k (positive profit)
		// improves: take it without a lookup. Otherwise take it iff
		// row(w−wk) + p > row(w), the dense DP's strict rule.
		take := w > pre[k]
		if !take && w >= wk {
			gw, gv := bw[off[k]:off[k+1]], bv[off[k]:off[k+1]]
			take = stepAt(gw, gv, w-wk)+profit[i] > stepAt(gw, gv, w)
		}
		if take {
			a.picks = append(a.picks, i)
			total += profit[i]
			w -= wk
		}
	}
	slices.Reverse(a.picks)
	total += a.mergeFree(profit)
	return a.picks, total, nil
}

// stepAt returns a DP row's value at weight x: the value of its last
// breakpoint at or below x, which must exist (bw[0] ≤ x). The search
// halves the range without an early exit, so it compiles to few branches.
func stepAt(bw []int, bv []float64, x int) float64 {
	lo, n := 0, len(bw)
	for n > 1 {
		half := n / 2
		if bw[lo+half] <= x {
			lo += half
		}
		n -= half
	}
	return bv[lo]
}

// minWeightDP is the shared min-weight-per-scaled-profit dynamic program
// behind FPTASFlat and MaxProfitUnderFlat: a.idx holds the active
// candidate positions, a.sq their positive scaled profits, capS the
// scaled-profit table bound. It fills a.picks (ascending) and returns the
// summed real profit of the picks.
func (a *Arena) minWeightDP(ctx context.Context, profit, weight []float64, capacity float64, capS int) (float64, error) {
	m := len(a.idx)
	width := capS + 1
	minW := a.floats(width)
	const inf = math.MaxFloat64
	minW[0] = 0
	for q := 1; q < width; q++ {
		minW[q] = inf
	}
	rows := a.bools(m * width) // never cleared: see traceback guards
	pre := a.ints(m)
	run := 0
	for k := 0; k < m; k++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		i := a.idx[k]
		s := int(a.sq[k])
		w := weight[i]
		run += s
		pre[k] = run
		hi := capS
		if run < hi {
			hi = run
		}
		if s > hi {
			// The item's scaled profit alone exceeds the table bound; the
			// full DP's update loop is empty here.
			continue
		}
		dst := minW[s : hi+1]
		src := minW[:hi+1-s]
		rw := rows[k*width+s : k*width+hi+1]
		src = src[:len(dst)]
		rw = rw[:len(dst)]
		for x := len(dst) - 1; x >= 0; x-- {
			cand := src[x] + w // inf stays inf: unreachable sources never win
			d := dst[x]
			rw[x] = cand < d
			dst[x] = min(d, cand)
		}
	}
	bestQ := 0
	for q := capS; q > 0; q-- {
		if Fits(minW[q], capacity) {
			bestQ = q
			break
		}
	}
	a.picks = a.picks[:0]
	total := 0.0
	q := bestQ
	for k := m - 1; k >= 0 && q > 0; k-- {
		s := int(a.sq[k])
		if q > pre[k] {
			// Beyond the prefix sum every source is unreachable (inf), so
			// the full DP never marks "take" here.
			continue
		}
		if q >= s && rows[k*width+q] {
			i := a.idx[k]
			a.picks = append(a.picks, i)
			total += profit[i]
			q -= s
		}
	}
	slices.Reverse(a.picks)
	return total, nil
}

// FPTASFlat is the Lawler profit-scaling FPTAS over candidate arrays:
// profit ≥ (1−eps)·OPT, picks ascending and arena-backed, zero
// steady-state allocation. Candidates must already satisfy the float
// feasibility filter the caller owns (weight ≥ 0); non-positive profits
// and weights exceeding the capacity are skipped here.
func (a *Arena) FPTASFlat(ctx context.Context, eps float64, profit, weight []float64, capacity float64) ([]int32, float64, error) {
	if eps <= 0 || eps >= 1 {
		panic("knapsack: FPTAS epsilon must be in (0,1)")
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	a.idx = a.idx[:0]
	a.picks = a.picks[:0]
	pmax := 0.0
	for i := range profit {
		if profit[i] > 0 && weight[i] >= 0 && Fits(weight[i], capacity) {
			a.idx = append(a.idx, int32(i))
			if profit[i] > pmax {
				pmax = profit[i]
			}
		}
	}
	m := len(a.idx)
	if m == 0 {
		return a.picks, 0, nil
	}
	k := eps * pmax / float64(m)
	sq := a.int32s(&a.sq, m)
	capS := 0
	for j, i := range a.idx {
		sq[j] = int32(math.Floor(profit[i] / k))
		capS += int(sq[j])
	}
	total, err := a.minWeightDP(ctx, profit, weight, capacity, capS)
	if err != nil {
		return nil, 0, err
	}
	return a.picks, total, nil
}

// MaxProfitUnderFlat solves the doubly constrained 0/1 knapsack: maximize
// total profit subject to total weight ≤ capacity AND total profit ≤
// profitCap. It is the per-sensor subproblem when sensors hold a finite
// amount of sensed data (the paper assumes unbounded data; this lifts
// that assumption): profit is exactly the data uploaded, so the data
// queue is a cap on total profit.
//
// Profits are quantized to multiples of profitQuantum (each candidate's
// profit rounds UP, the cap rounds DOWN; a non-positive quantum means 1),
// so the packing is always feasible for the true cap and its true profit
// is within len(profit)·profitQuantum of the constrained optimum; with a
// quantum that exactly divides every profit (the discrete rate table) the
// result is exact. The weight dimension is exact, by a minimum-weight DP
// per quantized profit. Picks ascending, arena-backed.
func (a *Arena) MaxProfitUnderFlat(ctx context.Context, profit, weight []float64, capacity, profitCap, profitQuantum float64) ([]int32, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	a.idx = a.idx[:0]
	a.picks = a.picks[:0]
	if profitCap <= 0 {
		return a.picks, 0, nil
	}
	if profitQuantum <= 0 {
		profitQuantum = 1
	}
	for i := range profit {
		if profit[i] >= profitQuantum && weight[i] >= 0 && Fits(weight[i], capacity) {
			a.idx = append(a.idx, int32(i))
		}
	}
	m := len(a.idx)
	if m == 0 {
		return a.picks, 0, nil
	}
	sq := a.int32s(&a.sq, m)
	sumS := 0
	for j, i := range a.idx {
		sq[j] = int32(math.Ceil(profit[i]/profitQuantum - 1e-9))
		sumS += int(sq[j])
	}
	capS := sumS
	if ratio := profitCap / profitQuantum; ratio < float64(sumS) {
		capS = int(math.Floor(ratio + 1e-9))
	}
	if capS <= 0 {
		return a.picks, 0, nil
	}
	total, err := a.minWeightDP(ctx, profit, weight, capacity, capS)
	if err != nil {
		return nil, 0, err
	}
	return a.picks, total, nil
}

// bbState carries the branch-and-bound search state so the recursion
// needs no closure (closures allocate; a stack-resident state struct does
// not).
type bbState struct {
	ctx        context.Context
	profit     []float64
	weight     []float64
	ord        []int32
	cur        []int32
	best       []int32
	bestProfit float64
	nodes      int
	canceled   bool
}

func (st *bbState) dfs(k int, left, profit float64) {
	if st.canceled {
		return
	}
	st.nodes++
	if st.nodes%nodeCheckInterval == 0 && st.ctx.Err() != nil {
		st.canceled = true
		return
	}
	if profit > st.bestProfit {
		st.bestProfit = profit
		st.best = append(st.best[:0], st.cur...)
	}
	if k == len(st.ord) {
		return
	}
	// Fractional (LP relaxation) bound on the remaining items.
	bound := 0.0
	rem := left
	for _, oi := range st.ord[k:] {
		w := st.weight[oi]
		if w <= rem {
			bound += st.profit[oi]
			rem -= w
		} else {
			if w > 0 {
				bound += st.profit[oi] * rem / w
			}
			break
		}
	}
	if profit+bound+1e-12 <= st.bestProfit {
		return
	}
	it := st.ord[k]
	if w := st.weight[it]; w <= left {
		st.cur = append(st.cur, it)
		st.dfs(k+1, left-w, profit+st.profit[it])
		st.cur = st.cur[:len(st.cur)-1]
	}
	st.dfs(k+1, left, profit)
}

// BranchAndBoundFlat solves the knapsack exactly over candidate arrays by
// depth-first search over density-sorted candidates with a fractional
// (LP relaxation) upper bound, all state arena-backed; the context is
// polled every nodeCheckInterval search nodes. Picks ascending.
func (a *Arena) BranchAndBoundFlat(ctx context.Context, profit, weight []float64, capacity float64) ([]int32, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	a.picks = a.picks[:0]
	ord := a.int32s(&a.ord, 0)[:0]
	for i := range profit {
		if profit[i] > 0 && weight[i] >= 0 && Fits(weight[i], capacity) {
			ord = append(ord, int32(i))
		}
	}
	a.ord = ord
	if len(ord) == 0 {
		return a.picks, 0, nil
	}
	slices.SortFunc(ord, func(x, y int32) int {
		dx, dy := math.Inf(1), math.Inf(1)
		if weight[x] > 0 {
			dx = profit[x] / weight[x]
		}
		if weight[y] > 0 {
			dy = profit[y] / weight[y]
		}
		if dx != dy {
			if dx > dy {
				return -1
			}
			return 1
		}
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
		return 0
	})
	if cap(a.cur) < len(ord) {
		a.cur = make([]int32, 0, len(ord))
		a.best = make([]int32, 0, len(ord))
	}
	st := bbState{
		ctx: ctx, profit: profit, weight: weight,
		ord: ord, cur: a.cur[:0], best: a.best[:0],
		bestProfit: -1,
	}
	st.dfs(0, limit(capacity), 0)
	a.cur, a.best = st.cur[:0], st.best // retain grown backing arrays
	if st.canceled {
		return nil, 0, context.Cause(ctx)
	}
	// Emit the incumbent ascending without sorting: mark and scan.
	marks := a.mark
	if cap(marks) < len(profit) {
		marks = make([]bool, len(profit))
		a.mark = marks
	}
	marks = marks[:len(profit)]
	for _, i := range st.best {
		marks[i] = true
	}
	total := 0.0
	for i := range marks {
		if marks[i] {
			a.picks = append(a.picks, int32(i))
			total += profit[i]
			marks[i] = false
		}
	}
	return a.picks, total, nil
}
