// Package gap solves the Generalized Assignment Problem (GAP): pack items
// into capacitated bins where each (bin, item) pair has its own profit and
// weight, maximizing total profit. The data collection maximization problem
// reduces to GAP with bins = sensors (capacity = per-tour energy budget) and
// items = time slots (paper Thm 1).
//
// A Builder writes an instance bin by bin into the compiled form
// (Compiled), which runs the Cohen-Katzir-Raz local-ratio algorithm the
// paper adopts (its ref. [3]; Compiled.SolveInto), a density-greedy
// baseline (Compiled.Greedy) and the sequential packer of the data-cap
// extension (Compiled.Sequential). A pooled Workspace holds everything
// one solve reuses: the Builder, the passes' Scratch and the arrays the
// caller fills.
package gap

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"mobisink/internal/knapsack"
)

// Compiled is the solving form of a GAP instance. Its entries, one per
// (bin, item) pair, are kept as runs: a run is Count[k] entries of one
// bin for the consecutive items First[k], First[k]+1, …, each of profit
// Profit[k] and weight Weight[k] there, as the rate table makes a
// window's slots at one link. Runs live in contiguous bin-major CSR
// arrays, with weights pre-quantized for the exact DP oracle. A Builder
// writes it bin by bin, validating as it goes; SolveInto, Greedy and
// Sequential then run on it any number of times, and are safe for
// concurrent use.
//
// The runs are the entries' canonical form: the Builder folds an entry
// that continues the bin's last run, same profit and weight on the next
// item, into that run, so listing a bin slot by slot or run by run
// compiles alike. Under conflict groups every run is one entry, so the
// group reduction stays per item.
//
// Entries that can never be assigned — non-positive profit, or weight
// exceeding the bin capacity — are not kept; the local-ratio sweep's
// knapsacks would never take them. A zero weight means no entry, not a
// free item: the engine keeps the GAP reduction's rule that a slot with
// no transmit power is no link, so an entry of zero weight is not kept
// whatever its profit (Builder.Run).
type Compiled struct {
	NumItems int

	Off    []int32   // CSR bin offsets into the runs, len(Bins)+1
	First  []int32   // first item per run
	Count  []int32   // items per run
	Profit []float64 // profit of each of a run's entries
	Weight []float64 // weight of each of a run's entries
	Cap    []float64 // capacity per bin

	// Exact-DP oracle tables, present when Quantum > 0: WQ is a run's
	// entry weight in quanta (rounded up, keeping every packing
	// feasible), CapU the bin capacity in quanta (rounded down).
	WQ   []int32
	CapU []int32

	Quantum float64 // weight quantum; > 0 selects the exact DP oracle
	Eps     float64 // FPTAS accuracy, used when Quantum == 0

	maxBin int // max compiled entries in one bin
}

// Typed validation errors of Builder.Reset (and, via wrapping, of the
// core and online solvers that compile into a Builder).
var (
	// ErrBadQuantum rejects a negative, NaN, or infinite weight quantum
	// (zero is valid and selects the FPTAS oracle).
	ErrBadQuantum = errors.New("gap: quantum must be zero or a positive finite value")
	// ErrBadEps rejects a NaN eps or eps ≥ 1 (eps ≤ 0 keeps the documented
	// 0.1 default).
	ErrBadEps = errors.New("gap: eps must be below 1 and not NaN")
)

// Builder writes a Compiled bin by bin: Reset, then Bin for each bin in
// the local-ratio order, each followed by one Run per run of consecutive
// items of one profit and weight (Add for a single one), then Compiled.
// It makes every check of a GAP instance as the entries arrive: items in
// range and listed at most once per bin, no negative capacity or weight.
// The first error sticks; Compiled returns it.
//
// With conflict groups, each bin keeps at most one entry per group: the
// dominant one — max profit, then min weight, then lowest item. So the
// sweep honours the fleet's "one sink per absolute slot" constraint with
// no per-candidate group bookkeeping.
//
// A Builder is reusable: Reset keeps the previous form's arrays, so a
// pooled Builder compiles without allocating in steady state. The
// Compiled it returns shares those arrays and is valid until the next
// Reset.
type Builder struct {
	c     Compiled
	group []int   // per-item conflict group, or nil
	seen  []int32 // seen[j] == len(c.Cap) ⇔ the open bin lists item j
	win   []int32 // win[g]: the open bin's dominant entry of group g,
	stamp []int32 // valid iff stamp[g] == len(c.Cap)
	err   error
}

// Reset starts a new compiled form of numItems items. quantum > 0 selects
// the exact quantized-weight DP oracle; otherwise the (1−eps)-FPTAS
// oracle is used (eps ≤ 0 means 0.1). itemGroup, when non-nil (len
// numItems), assigns each item a conflict group: within any one bin, at
// most one item per group may be assigned; negative ids are
// unconstrained.
func (b *Builder) Reset(numItems int, itemGroup []int, quantum, eps float64) {
	c := &b.c
	*c = Compiled{
		NumItems: numItems,
		Off:      append(c.Off[:0], 0),
		First:    c.First[:0], Count: c.Count[:0], Profit: c.Profit[:0], Weight: c.Weight[:0], Cap: c.Cap[:0],
		WQ: c.WQ[:0], CapU: c.CapU[:0],
		Quantum: quantum, Eps: eps,
	}
	b.group, b.err = itemGroup, nil
	switch {
	case math.IsNaN(quantum) || math.IsInf(quantum, 0) || quantum < 0:
		b.err = fmt.Errorf("%w (got %v)", ErrBadQuantum, quantum)
	case math.IsNaN(eps) || eps >= 1:
		b.err = fmt.Errorf("%w (got %v)", ErrBadEps, eps)
	case numItems < 0:
		b.err = fmt.Errorf("gap: negative item count %d", numItems)
	case itemGroup != nil && len(itemGroup) != numItems:
		b.err = fmt.Errorf("gap: ItemGroup covers %d items, instance has %d", len(itemGroup), numItems)
	}
	if b.err != nil {
		return
	}
	if eps <= 0 {
		c.Eps = 0.1
	}
	if cap(b.seen) < numItems {
		b.seen = make([]int32, numItems)
	}
	b.seen = b.seen[:numItems]
	clear(b.seen)
	if itemGroup != nil {
		groups := 0
		for _, g := range itemGroup {
			groups = max(groups, g+1)
		}
		b.win, b.stamp = grow(b.win, groups), grow(b.stamp, groups)
		clear(b.stamp)
	}
}

// Bin closes the open bin, if any, and opens the next one.
func (b *Builder) Bin(capacity float64) {
	if b.err != nil {
		return
	}
	b.closeBin()
	c := &b.c
	if capacity < 0 {
		b.err = fmt.Errorf("gap: bin %d has negative capacity", len(c.Cap))
		return
	}
	c.Cap = append(c.Cap, capacity)
	if c.Quantum > 0 {
		c.CapU = append(c.CapU, knapsack.QuantizeCapacity(capacity, c.Quantum))
	}
}

// Run lists a run of count consecutive items in the open bin, items
// first through first+count−1, each with the same profit and weight
// there. The GAP reduction lists a sensor's window one run of one link
// at a time: the run's rate and power scaled by the slot length τ. The
// entries are kept only if the profit and weight are positive and the
// weight fits the bin; a kept run's weight is quantized once. A zero
// weight means no entry, not a free one: a slot with no transmit power
// is no link, so a run of positive profit and zero weight is listed and
// dropped. Every item of the run counts as listed, so none may already
// be listed in the bin. A kept run that continues the bin's last one,
// same profit and weight from the item after it on, is folded into it;
// under conflict groups each item is kept as a run of its own.
func (b *Builder) Run(first, count int, profit, weight float64) {
	if b.err != nil {
		return
	}
	c := &b.c
	bin := len(c.Cap) - 1
	switch {
	case len(c.Off) > len(c.Cap):
		b.err = errors.New("gap: entry added with no open bin")
	case count < 0 || first < 0 || first+count > c.NumItems:
		b.err = fmt.Errorf("gap: bin %d references items %d..%d out of range", bin, first, first+count-1)
	case count > 0 && weight < 0:
		b.err = fmt.Errorf("gap: bin %d item %d has negative weight", bin, first)
	}
	if b.err != nil {
		return
	}
	mark, seen := int32(bin+1), b.seen[first:first+count]
	for k := range seen {
		if seen[k] == mark {
			b.err = fmt.Errorf("gap: bin %d lists item %d twice", bin, first+k)
			return
		}
		seen[k] = mark
	}
	if count == 0 || !(profit > 0 && weight > 0 && weight <= c.Cap[bin]) {
		return // nothing listed, never assignable, or no link
	}
	if b.group != nil {
		for j := first; j < first+count; j++ {
			b.push(j, 1, profit, weight)
		}
		return
	}
	if k := len(c.First) - 1; k >= int(c.Off[bin]) && int(c.First[k]+c.Count[k]) == first &&
		c.Profit[k] == profit && c.Weight[k] == weight {
		c.Count[k] += int32(count)
		return
	}
	b.push(first, count, profit, weight)
}

// push appends a run to the open bin.
func (b *Builder) push(first, count int, profit, weight float64) {
	c := &b.c
	c.First, c.Count = append(c.First, int32(first)), append(c.Count, int32(count))
	c.Profit, c.Weight = append(c.Profit, profit), append(c.Weight, weight)
	if c.Quantum > 0 {
		c.WQ = append(c.WQ, knapsack.QuantizeWeight(weight, c.Quantum))
	}
}

// Add lists item in the open bin with its profit and weight there: the
// one-entry case of Run, so a zero weight keeps nothing.
func (b *Builder) Add(item int, profit, weight float64) { b.Run(item, 1, profit, weight) }

// Compiled closes the open bin and returns the compiled form, or the
// first error any call since Reset met.
func (b *Builder) Compiled() (*Compiled, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.closeBin()
	return &b.c, nil
}

// closeBin ends the open bin's runs, after the group reduction.
func (b *Builder) closeBin() {
	c := &b.c
	if len(c.Off) > len(c.Cap) {
		return // no open bin
	}
	lo := int(c.Off[len(c.Off)-1])
	if b.group != nil {
		b.reduceGroups(lo)
	}
	c.Off = append(c.Off, int32(len(c.First)))
	entries := 0
	for _, n := range c.Count[lo:] {
		entries += int(n)
	}
	c.maxBin = max(c.maxBin, entries)
}

// reduceGroups keeps, among the open bin's entries from run lo on (each
// a run of one item) whose items share a conflict group, only the
// dominant one. The reduction is exact when every dropped entry is
// weakly dominated (profit ≤, weight ≥) by its group's winner, which
// holds for monotone link models where the closer sink offers both the
// higher rate and the lower (or equal) energy cost. An inexact reduction still yields feasible assignments; only the
// approximation guarantee versus the unreduced optimum may degrade.
func (b *Builder) reduceGroups(lo int) {
	c := &b.c
	bin := int32(len(c.Cap))
	for k := lo; k < len(c.First); k++ {
		g := b.group[c.First[k]]
		if g < 0 {
			continue
		}
		if w := b.win[g]; b.stamp[g] != bin || c.Profit[k] > c.Profit[w] ||
			(c.Profit[k] == c.Profit[w] && c.Weight[k] < c.Weight[w]) ||
			(c.Profit[k] == c.Profit[w] && c.Weight[k] == c.Weight[w] && c.First[k] < c.First[w]) {
			b.win[g], b.stamp[g] = int32(k), bin
		}
	}
	n := lo
	for k := lo; k < len(c.First); k++ {
		if g := b.group[c.First[k]]; g >= 0 && int(b.win[g]) != k {
			continue
		}
		c.First[n], c.Profit[n], c.Weight[n] = c.First[k], c.Profit[k], c.Weight[k]
		if c.Quantum > 0 {
			c.WQ[n] = c.WQ[k]
		}
		n++
	}
	c.First, c.Count, c.Profit, c.Weight = c.First[:n], c.Count[:n], c.Profit[:n], c.Weight[:n]
	if c.Quantum > 0 {
		c.WQ = c.WQ[:n]
	}
}

// Scratch is the reusable per-solve state of a Compiled pass: the
// residual-claim array plus the candidate buffers and knapsack arena. The
// zero value is ready to use; buffers grow on demand and are retained, so
// a reused Scratch makes every pass allocation-free in steady state. A
// Scratch must not be used concurrently.
type Scratch struct {
	claim []float64
	// A bin's knapsack candidates: profit, weight and quantized weight,
	// and each one's item and compiled run src. The DP sweep's
	// candidates are the kernel's runs instead, m of profit prof[m] and
	// weight wq[m], cnt[m] items from piece head[m] on; piece x is items
	// item[x] to item[x]+span[x]−1 of compiled run src[x].
	prof []float64
	w    []float64
	wq   []int32
	item []int32
	src  []int32
	span []int32
	cnt  []int32
	head []int32
	at   []int32 // Sequential: per conflict group, its candidate or -1
	ar   knapsack.Arena
}

func (s *Scratch) prepare(numItems, maxBin int, dpMode bool) {
	s.claim = grow(s.claim, numItems)
	clear(s.claim)
	s.prof, s.item, s.src = grow(s.prof, maxBin), grow(s.item, maxBin), grow(s.src, maxBin)
	if dpMode {
		s.wq, s.span, s.cnt, s.head = grow(s.wq, maxBin), grow(s.span, maxBin), grow(s.cnt, maxBin), grow(s.head, maxBin)
	} else {
		s.w = grow(s.w, maxBin)
	}
}

// sweep runs the residual-profit local-ratio pass over every bin in
// order, claiming items into s.claim/itemBin. claim[j] is the original
// profit of (l, j) for the most recent bin l whose knapsack selected item
// j; the residual profit of (i, j) is orig(i, j) − claim[j]. This is the
// paper's decomposition D^{(l+1)} / T^{(l+1)} without materializing the
// n×T matrices.
func (c *Compiled) sweep(ctx context.Context, s *Scratch, itemBin []int32) error {
	for b := range c.Cap {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if c.Quantum > 0 {
			err = c.packRuns(ctx, s, b, itemBin)
		} else {
			err = c.packItems(ctx, s, b, itemBin)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// packRuns packs bin b's knapsack with the exact DP, run by run, against
// the residual profits. It cuts each run into pieces where the residual
// changes, drops the items whose residual is not positive and the runs
// heavier than the bin, takes the zero-quantum items as free, and merges
// consecutive pieces of one residual and weight into the kernel's runs.
// These are the runs DPFlat would cut from the bin's residual
// candidates, item by item, so DPRuns takes the same items.
func (c *Compiled) packRuns(ctx context.Context, s *Scratch, b int, itemBin []int32) error {
	claim, capU := s.claim, c.CapU[b]
	np, nr := 0, 0 // pieces and kernel runs so far
	for k := c.Off[b]; k < c.Off[b+1]; k++ {
		w, p, first := c.WQ[k], c.Profit[k], c.First[k]
		if w > capU {
			continue
		}
		run := claim[first : first+c.Count[k]]
		if w == 0 {
			// Free: DPFlat packs these whatever else it takes.
			for x, cl := range run {
				if p-cl > 0 {
					run[x], itemBin[first+int32(x)] = p, int32(b)
				}
			}
			continue
		}
		for x := 0; x < len(run); {
			res := p - run[x]
			if res <= 0 {
				x++ // the knapsack would never take it
				continue
			}
			y := x + 1
			for y < len(run) && p-run[y] == res {
				y++
			}
			if nr == 0 || res != s.prof[nr-1] || w != s.wq[nr-1] {
				s.prof[nr], s.wq[nr], s.cnt[nr], s.head[nr] = res, w, 0, int32(np)
				nr++
			}
			s.item[np], s.span[np], s.src[np] = first+int32(x), int32(y-x), k
			s.cnt[nr-1] += int32(y - x)
			np++
			x = y
		}
	}
	if nr == 0 {
		return nil
	}
	take, err := s.ar.DPRuns(ctx, s.prof[:nr], s.wq[:nr], s.cnt[:nr], int(capU))
	if err != nil {
		return err
	}
	for m, t := range take {
		for x := s.head[m]; t > 0; x++ {
			n, p := min(t, s.span[x]), c.Profit[s.src[x]]
			for j := s.item[x]; j < s.item[x]+n; j++ {
				claim[j], itemBin[j] = p, int32(b)
			}
			t -= n
		}
	}
	return nil
}

// packItems packs bin b's knapsack with the FPTAS against the residual
// profits, one candidate per item whose residual is positive.
func (c *Compiled) packItems(ctx context.Context, s *Scratch, b int, itemBin []int32) error {
	claim := s.claim
	nc := 0
	for k := c.Off[b]; k < c.Off[b+1]; k++ {
		p, first := c.Profit[k], c.First[k]
		for j := first; j < first+c.Count[k]; j++ {
			if res := p - claim[j]; res > 0 {
				s.prof[nc], s.w[nc], s.item[nc], s.src[nc] = res, c.Weight[k], j, k
				nc++
			}
		}
	}
	picks, _, err := s.ar.FPTASFlat(ctx, c.Eps, s.prof[:nc], s.w[:nc], c.Cap[b])
	if err != nil {
		return err
	}
	for _, x := range picks {
		j := s.item[x]
		claim[j], itemBin[j] = c.Profit[s.src[x]], int32(b)
	}
	return nil
}

// unassign checks itemBin's length and marks every item unassigned.
func (c *Compiled) unassign(itemBin []int32) error {
	if len(itemBin) != c.NumItems {
		return fmt.Errorf("gap: itemBin covers %d items, instance has %d", len(itemBin), c.NumItems)
	}
	for i := range itemBin {
		itemBin[i] = -1
	}
	return nil
}

// SolveInto runs the Cohen-Katzir-Raz local-ratio sweep (the paper's
// Algorithm 1, its ref. [3]) over the compiled instance: bins in order,
// each packing its items with the knapsack oracle against residual
// profits, each item finally owned by the last bin that selected it
// (Algorithm 1 lines 9-12). With a β-approximate oracle the result is a
// 1/(1+β)-approximation.
//
// It writes each item's owning bin into itemBin (-1 for unassigned; len
// must be NumItems); the caller reads the assignment's profit from it.
// The context is polled before each bin and inside the oracle's DP. s
// must not be nil; a reused Scratch makes the solve allocation-free in
// steady state.
func (c *Compiled) SolveInto(ctx context.Context, s *Scratch, itemBin []int32) error {
	if err := c.unassign(itemBin); err != nil {
		return err
	}
	s.prepare(c.NumItems, c.maxBin, c.Quantum > 0)
	return c.sweep(ctx, s, itemBin)
}

// Greedy is the density-greedy baseline: it visits every compiled entry
// in decreasing profit-per-weight density (then decreasing profit, then
// ascending bin, then ascending item — a total order) and gives each
// still-unassigned item to the entry's bin when the bin has the capacity
// left. It writes itemBin like SolveInto. Every compiled entry has a
// positive weight (Builder.Run), so every density is finite.
//
// It sorts runs, not entries: a run's entries share density, profit and
// bin, and one bin's runs cover disjoint items, so runs sorted by the
// same keys and then by first item, each walked in ascending item order,
// visit the entries in exactly that order.
func (c *Compiled) Greedy(s *Scratch, itemBin []int32) error {
	if err := c.unassign(itemBin); err != nil {
		return err
	}
	// The sweep's buffers serve as per-run ones here: item lists the
	// runs, src holds each run's bin, prof its density and w each bin's
	// capacity left.
	n := len(c.First)
	s.item, s.src, s.prof = grow(s.item, n), grow(s.src, n), grow(s.prof, n)
	order, binOf, dens := s.item, s.src, s.prof
	for b := range c.Cap {
		for k := c.Off[b]; k < c.Off[b+1]; k++ {
			order[k], binOf[k] = k, int32(b)
			dens[k] = c.Profit[k] / c.Weight[k]
		}
	}
	slices.SortFunc(order, func(x, y int32) int {
		if dens[x] != dens[y] {
			return cmp.Compare(dens[y], dens[x])
		}
		if c.Profit[x] != c.Profit[y] {
			return cmp.Compare(c.Profit[y], c.Profit[x])
		}
		if binOf[x] != binOf[y] {
			return cmp.Compare(binOf[x], binOf[y])
		}
		return cmp.Compare(c.First[x], c.First[y])
	})
	s.w = append(s.w[:0], c.Cap...)
	left := s.w
	for _, k := range order {
		b, w := binOf[k], c.Weight[k]
		for j := c.First[k]; j < c.First[k]+c.Count[k] && w <= left[b]; j++ {
			if itemBin[j] == -1 {
				itemBin[j] = b
				left[b] -= w
			}
		}
	}
	return nil
}

// Sequential is the sequential packer: it visits the bins in order, and
// each bin solves its knapsack over the entries whose items no earlier bin
// took, with the compiled oracle (the DP at the weight quantum, else the
// FPTAS). A bin whose dataCap is finite solves the doubly constrained
// knapsack instead, its profit capped at dataCap[b] in quanta of
// dataQuantum. Each item belongs to the first bin that takes it. With an
// exact oracle this is a 1/2-approximation for separable assignment, and
// unlike the local-ratio sweep it stays sound under data caps: each bin's
// objective is the capped quantity itself.
//
// group, when non-nil (len NumItems), gives each item a conflict group
// (negative: none). Among a bin's free entries the pass keeps one per
// group — max profit, then min weight, then the first — at the place of
// the group's first free entry. Compile such an instance without groups
// and pass them here: the Builder's reduction would drop, for good, an
// entry a bin could still use once an earlier bin took its group's
// winner. dataCap, when non-nil, has one cap per bin; +Inf caps nothing.
//
// It writes itemBin like SolveInto, polling the context before each bin
// and inside the oracle's DP.
func (c *Compiled) Sequential(ctx context.Context, s *Scratch, group []int, dataCap []float64, dataQuantum float64, itemBin []int32) error {
	if err := c.unassign(itemBin); err != nil {
		return err
	}
	if group != nil && len(group) != c.NumItems {
		return fmt.Errorf("gap: group covers %d items, instance has %d", len(group), c.NumItems)
	}
	if dataCap != nil && len(dataCap) != len(c.Cap) {
		return fmt.Errorf("gap: %d data caps for %d bins", len(dataCap), len(c.Cap))
	}
	s.prof, s.w, s.wq = grow(s.prof, c.maxBin), grow(s.w, c.maxBin), grow(s.wq, c.maxBin)
	s.item, s.src = grow(s.item, c.maxBin), grow(s.src, c.maxBin)
	if group != nil {
		groups := 0
		for _, g := range group {
			groups = max(groups, g+1)
		}
		s.at = grow(s.at, groups)
		for g := range s.at {
			s.at[g] = -1
		}
	}
	for b := range c.Cap {
		if err := ctx.Err(); err != nil {
			return err
		}
		nc := c.freeEntries(s, b, group, itemBin)
		prof, w, wq := s.prof[:nc], s.w[:nc], s.wq[:nc]
		var picks []int32
		var err error
		switch {
		case dataCap != nil && !math.IsInf(dataCap[b], 1):
			picks, _, err = s.ar.MaxProfitUnderFlat(ctx, prof, w, c.Cap[b], dataCap[b], dataQuantum)
		case c.Quantum > 0:
			picks, _, err = s.ar.DPFlat(ctx, prof, wq, int(c.CapU[b]))
		default:
			picks, _, err = s.ar.FPTASFlat(ctx, c.Eps, prof, w, c.Cap[b])
		}
		if err != nil {
			return err
		}
		for _, p := range picks {
			itemBin[s.item[p]] = int32(b)
		}
	}
	return nil
}

// freeEntries lays out bin b's candidates for Sequential, one per entry
// of its runs: the entries whose items are still unassigned, one per
// conflict group, in s.item and s.src and the oracle arrays. It returns
// their count.
func (c *Compiled) freeEntries(s *Scratch, b int, group []int, itemBin []int32) int {
	nc := 0
	for k := c.Off[b]; k < c.Off[b+1]; k++ {
		for j := c.First[k]; j < c.First[k]+c.Count[k]; j++ {
			if itemBin[j] >= 0 {
				continue
			}
			if group != nil && group[j] >= 0 {
				if at := s.at[group[j]]; at >= 0 {
					if w := s.src[at]; c.Profit[k] > c.Profit[w] || (c.Profit[k] == c.Profit[w] && c.Weight[k] < c.Weight[w]) {
						s.item[at], s.src[at] = j, k
					}
					continue
				}
				s.at[group[j]] = int32(nc)
			}
			s.item[nc], s.src[nc] = j, k
			nc++
		}
	}
	for x, k := range s.src[:nc] {
		s.prof[x], s.w[x] = c.Profit[k], c.Weight[k]
		if c.Quantum > 0 {
			s.wq[x] = c.WQ[k]
		}
		if j := s.item[x]; group != nil && group[j] >= 0 {
			s.at[group[j]] = -1
		}
	}
	return nc
}

// grow returns buf resized to n, reallocated only when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
