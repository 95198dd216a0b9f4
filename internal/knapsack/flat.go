package knapsack

// Flat kernels: every solver in this package. Each kernel operates on
// parallel candidate arrays (profits, weights), draws every table from a
// caller-held Arena, and appends its picks to an arena-backed buffer —
// after the arena has warmed up, a kernel call performs no heap
// allocation at all (gated by TestNoAllocs* in flat_test.go).
//
// DPRuns keeps each row of its DP as the row's breakpoints, not as a
// dense array of capacity+1 cells: a row, the best profit within weight
// x, is a step function of x with far fewer steps than cells on the
// knapsacks the GAP sweep meets. It works per run of equal candidates
// (one profit P, one weight W), which the rate table makes common:
// rounding is monotone, so fl(max(a,b)+P) = max(fl(a+P), fl(b+P)), and
// the row after j items of a run is the largest of g(x−yW) plus P added
// y times, over y ≤ j, for g the row before the run. It writes the first
// run's row in closed form, keeps only the row before each run, builds
// none for the last, and takes a run's first c items in one traceback
// scan. DPFlat is its per-candidate adapter: it cuts the candidates into
// runs and lists the items DPRuns takes. The min-weight DP behind
// FPTASFlat and MaxProfitUnderFlat fills dense rows, clamped to the
// prefix sum of the scaled profits so far, and skips the per-call
// clearing of its choice matrix: rows are written unconditionally inside
// the reachable range and the traceback re-derives the (provably
// constant) choice outside it, so it returns bit-identical picks to the
// classic full-range formulation while touching a fraction of the
// memory.

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
	rs    []int32   // DPFlat: start of each run of equal candidates in idx
	rp    []float64 // DPFlat: each run's profit
	rw    []int32   // DPFlat: each run's weight
	rc    []int32   // DPFlat: each run's candidate count
	take  []int32   // DPRuns: how many of each run's candidates it takes
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
	if cap(a.rs) > arenaMax {
		a.rs = nil
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
// polled once per row it merges.
//
// The picks are bit-identical to the textbook full-range DP with strict
// improvement ('>') and a descending traceback. DPFlat is the per-candidate
// adapter of DPRuns, which does the DP: it cuts the candidates it keeps
// into runs, maximal sequences of consecutive kept candidates with one
// profit and one weight (a skipped or free candidate does not end a run),
// has DPRuns choose how many of each run's first candidates to take, and
// lists them. The total sums the picks' profits from the last pick down,
// then adds the free candidates' sum.
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
	// Run q is a.idx[rs[q]:rs[q+1]], of profit rp[q], weight rw[q] and
	// rc[q] candidates. A profit is positive here, so equal values are
	// equal bits; a NaN ends a run.
	rs, rp, rw, rc := a.rs[:0], a.rp[:0], a.rw[:0], a.rc[:0]
	lastW, lastP := int32(0), 0.0
	for i := range profit {
		p, w := profit[i], wq[i]
		switch {
		case p <= 0 || int(w) > capU:
		case w == 0:
			a.free = append(a.free, int32(i))
		default:
			if w != lastW || p != lastP {
				rs, rp, rw, rc = append(rs, int32(len(a.idx))), append(rp, p), append(rw, w), append(rc, 0)
				lastW, lastP = w, p
			}
			a.idx = append(a.idx, int32(i))
			rc[len(rc)-1]++
		}
	}
	a.rs, a.rp, a.rw, a.rc = append(rs, int32(len(a.idx))), rp, rw, rc
	take, err := a.DPRuns(ctx, rp, rw, rc, capU)
	if err != nil {
		return nil, 0, err
	}
	total := 0.0
	for q := len(take) - 1; q >= 0; q-- {
		for k := a.rs[q] + take[q] - 1; k >= a.rs[q]; k-- {
			a.picks = append(a.picks, a.idx[k])
			total += rp[q]
		}
	}
	slices.Reverse(a.picks)
	total += a.mergeFree(profit)
	return a.picks, total, nil
}

// DPRuns is the exact knapsack DP over runs of equal candidates: run q is
// count[q] candidates of profit[q] > 0 and weight wq[q] quanta, with
// 1 ≤ wq[q] ≤ capU. It returns how many of each run's first candidates
// the textbook full-range DP over the listed candidates takes, with
// strict improvement ('>') and a descending traceback (backed by the
// arena — valid only until its next kernel call). The context is polled
// once per row it merges. DPFlat, the per-candidate adapter, and the GAP
// sweep, whose compiled form holds runs, both call it. Two consecutive
// runs of one profit and weight take the items one merged run would;
// merging them saves a row.
//
// Each row of the DP, the best profit within weight x over the first k
// candidates, is a nondecreasing step function of x; DPRuns keeps only
// its breakpoints (Nemhauser and Ullmann's list form) and builds row k by
// one linear merge of row k−1 with row k−1 shifted by (w_k, p_k). Every
// value it keeps is the float the dense table holds at that weight (an
// earlier value, or one plus p_k).
//
// It works run by run, as the rate table makes a window's slots at one
// rate and power. Float rounding is monotone, so fl(max(a,b)+P) =
// max(fl(a+P), fl(b+P)), and by induction row j of a run of profit P and
// weight W, at weight x, is the largest T_y(g(x−yW)) over y ≤ j: g is the
// row before the run and T_y adds P y times in sequence. Hence:
//   - through the first run (g is 0) the row is T_y(0) from weight yW
//     on, written in closed form;
//   - only the row before each run is kept, and none is built for the
//     last run;
//   - the traceback takes a run's first c items and no others. Read from
//     the run's last item down, the dense DP skips items until the y-th,
//     for y the smallest maximizer of T_y(g(w−yW)) over y ≤ min(r, w/W),
//     then takes that item and every one below it; an item also goes in
//     without a lookup where every item so far fits. So c is the larger
//     of y and the count of such items, found in one scan of g.
//
// A row costs time in its breakpoints, not in the capacity: few on
// rate-table profits, but random float profits over small weights make
// nearly every weight a breakpoint, and then the merge is several times
// slower than the dense band it replaced (BenchmarkDP80DenseRows).
func (a *Arena) DPRuns(ctx context.Context, profit []float64, wq, count []int32, capU int) ([]int32, error) {
	nr := len(profit)
	take := a.int32s(&a.take, nr)
	// pre[q] is the summed weight of the runs before run q.
	pre := a.pre[:0]
	sumQ := 0
	for q := range nr {
		pre = append(pre, sumQ)
		sumQ += int(count[q]) * int(wq[q])
	}
	a.pre = append(pre, sumQ)
	pre = a.pre
	if nr == 0 {
		return take, nil
	}
	capQ := min(capU, sumQ)
	slack := sumQ - capQ
	// The row before run q is bw/bv[off[q]:off[q+1]]: weights and values
	// both strictly increasing, weights ≤ capQ, the first at or below
	// every weight the row is read at. The row before run 0 (no items)
	// is {(0, 0)}. A row is read only at weights of at least its dead
	// weight, capQ − (weight of the runs from its own on): no traceback
	// state lands lower. So it keeps no breakpoint below the last one at
	// or below that weight.
	bw := append(a.bw[:0], 0)
	bv := append(a.bv[:0], 0)
	off := append(a.boff[:0], 0, 1)
	if nr > 1 {
		// The row after run 0 is T_y(0) from weight yW on, y ≤ r.
		r, wk, p := int(count[0]), int(wq[0]), profit[0]
		dead := pre[1] - slack
		w, v, last := 0, 0.0, math.Inf(-1)
		for y := 0; y <= r && w <= capQ; y++ {
			if v > last {
				if w <= dead {
					bw, bv = bw[:1], bv[:1]
				}
				bw, bv = append(bw, w), append(bv, v)
				last = v
			}
			w += wk
			v += p
		}
		off = append(off, len(bw))
	}
	for q := 1; q < nr-1; q++ {
		// The row after run q: r merges, each from the last, then moved
		// down to follow the row before the run.
		r, wk, p := int(count[q]), int(wq[q]), profit[q]
		lo, hi := off[q], off[q+1]
		for j := 1; j <= r; j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n := hi - lo
			base := len(bw)
			bw = slices.Grow(bw, 2*n)[:base+2*n]
			bv = slices.Grow(bv, 2*n)[:base+2*n]
			o := shiftMerge(bw[lo:hi], bv[lo:hi], bw[base:], bv[base:], wk, p, capQ, pre[q]+j*wk-slack)
			bw, bv = bw[:base+o], bv[:base+o]
			lo, hi = base, base+o
		}
		if at := off[q+1]; lo != at {
			n := copy(bw[at:], bw[lo:hi])
			copy(bv[at:], bv[lo:hi])
			bw, bv = bw[:at+n], bv[:at+n]
		}
		off = append(off, len(bw))
	}
	a.bw, a.bv, a.boff = bw, bv, off
	// Traceback, run by run from the last.
	w := capQ
	for q := nr - 1; q >= 0; q-- {
		r, wk, p := int(count[q]), int(wq[q]), profit[q]
		// Item j of the run (1-based) goes in without a lookup iff
		// w > pre[q] + j·wk: above the prefix weight sum every item so
		// far fits, so the DP is in its flat value region where adding
		// it (positive profit) improves.
		c := 0
		if w > pre[q] {
			c = min(r, (w-pre[q]-1)/wk)
		}
		if y := min(r, w/wk); c < y {
			c = runTake(bw[off[q]:off[q+1]], bv[off[q]:off[q+1]], w, wk, p, c, y)
		}
		take[q] = int32(c)
		w -= c * wk
	}
	return take, nil
}

// shiftMerge writes into ow/ov, which hold 2·len(gw) entries, the DP
// row after an item of weight wk and profit p, given the row g = (gw, gv)
// before it, and returns its length. The new row is the upper envelope
// of g(x) and s(x) = g(x−wk)+p up to weight capQ, read only at weights
// of at least dead.
func shiftMerge(gw []int, gv []float64, ow []int, ov []float64, wk int, p float64, capQ, dead int) int {
	n := len(gw)
	gv = gv[:n]
	// Merge g and s in weight order, keeping the upper envelope. last,
	// the envelope's value so far, is at least the value of g and of s
	// in force, so a breakpoint of either raises the envelope iff its
	// value exceeds last. At a shared weight s wins only when strictly
	// greater, as in the dense DP. A breakpoint at or below dead
	// replaces the one before it, and the next row, built from this one,
	// is exact from its own dead weight on.
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
	// One list is spent (or s has passed capQ); the other's values rise,
	// so from its first value above last on it is copied whole, from the
	// last of its breakpoints at or below dead if that is later.
	for ; x < n; x++ {
		if gv[x] > last {
			for ; x+1 < n && gw[x+1] <= dead; x++ {
			}
			if gw[x] <= dead {
				o = 0
			}
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
	return o
}

// runTake returns how many of a run's items the traceback takes: s, the
// count it takes without a lookup, or more. g = (gw, gv) is the row
// before the run, w the weight left, wk and p the run's weight and
// profit, and ymax = min(r, w/wk). It returns the smallest y in
// (s, ymax] whose T_y(g(w−y·wk)) exceeds T_s(g(w−s·wk)) and every value
// before it, or s if none does. The weights w−y·wk fall, so each is
// found by binary search below the last; while they stay on one
// breakpoint, T_y is T_{y−1} plus p.
func runTake(gw []int, gv []float64, w, wk int, p float64, s, ymax int) int {
	x := w - s*wk
	at := stepIndex(gw, x)
	best := addN(gv[at], p, s)
	v, c := best, s
	for y := s + 1; y <= ymax; y++ {
		x -= wk
		if gw[at] > x {
			at = stepIndex(gw[:at], x)
			v = addN(gv[at], p, y)
		} else {
			v += p
		}
		if v > best {
			best, c = v, y
		}
	}
	return c
}

// addN returns v with p added n times in sequence: T_n(v).
func addN(v, p float64, n int) float64 {
	for ; n > 0; n-- {
		v += p
	}
	return v
}

// stepIndex returns the index of a DP row's last breakpoint at or below
// weight x, which must exist (bw[0] ≤ x). The search halves the range
// without an early exit, so it compiles to few branches.
func stepIndex(bw []int, x int) int {
	lo, n := 0, len(bw)
	for n > 1 {
		half := n / 2
		if bw[lo+half] <= x {
			lo += half
		}
		n -= half
	}
	return lo
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
