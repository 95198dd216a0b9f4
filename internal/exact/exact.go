// Package exact solves the data collection maximization problem to
// optimality by branch-and-bound over slot assignments.
//
// The paper dismisses exact ILP solving as too slow for online use
// (§I.B); this package exists to quantify that claim and to provide true
// optima for "fraction of optimum" reporting on small and medium
// instances, where a brute force over slot owners is already
// astronomically large. The search branches on slots in time order —
// assigning each to one of its eligible sensors or to nobody — and prunes
// with an energy-aware fractional relaxation bound, dominance rules, and
// a node budget. The tests check it against that brute force on tiny
// instances.
package exact

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"mobisink/internal/core"
)

// ctxCheckNodes is how many search nodes are expanded between context
// polls.
const ctxCheckNodes = 4096

// Options bounds the search.
type Options struct {
	// MaxNodes caps the number of search nodes expanded; 0 means 5e6.
	MaxNodes int64
	// Incumbent is an optional known-feasible allocation used as the
	// starting lower bound (e.g. OfflineAppro's output); the solver only
	// explores branches that can beat it.
	Incumbent *core.Allocation
}

// Result is the outcome of a solve.
type Result struct {
	Alloc *core.Allocation
	// Optimal reports whether the search completed within the node budget
	// (true ⇒ Alloc is a true optimum; false ⇒ it is only the best found).
	Optimal bool
	// Nodes is the number of search nodes expanded.
	Nodes int64
}

type slotCand struct {
	sensor int
	profit float64 // r·τ
	cost   float64 // P·τ
}

type solver struct {
	inst     *core.Instance
	ctx      context.Context
	cands    [][]slotCand // per slot, profit-descending
	suffix   []float64    // suffix[j] = Σ_{k≥j} best profit of slot k (energy-free bound)
	byDens   [][]densItem // per sensor: its window slots in density order
	budget   []float64
	owner    []int
	nodes    int64
	maxNodes int64
	best     float64
	bestSet  []int
}

type densItem struct {
	slot   int
	profit float64
	weight float64
}

// Solve runs the branch and bound. It requires a non-nil single-sink
// instance: the search branches over each sensor's primary window only,
// so on a K-sink fleet it would report an "optimum" that ignores every
// other sink's slots.
func Solve(inst *core.Instance, opts Options) (*Result, error) {
	return SolveCtx(context.Background(), inst, opts)
}

// SolveCtx is Solve with cancellation: the search polls the context every
// few thousand nodes and returns ctx.Err() on expiry (partial incumbents
// are discarded — a canceled solve has no result).
func SolveCtx(ctx context.Context, inst *core.Instance, opts Options) (*Result, error) {
	if inst == nil {
		return nil, errors.New("exact: nil instance")
	}
	if k := inst.NumSinks(); k > 1 {
		return nil, fmt.Errorf("exact: the search covers a single sink, instance has a fleet of %d", k)
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 5_000_000
	}
	s := &solver{
		inst:     inst,
		ctx:      ctx,
		maxNodes: maxNodes,
		best:     -1,
	}
	s.prepare()
	if opts.Incumbent != nil {
		v, err := inst.Validate(opts.Incumbent)
		if err != nil {
			return nil, fmt.Errorf("exact: invalid incumbent: %w", err)
		}
		// Strictly below v is pruned; the incumbent itself is kept.
		s.best = v
		s.bestSet = append([]int(nil), opts.Incumbent.SlotOwner...)
	}
	s.owner = make([]int, inst.T)
	for j := range s.owner {
		s.owner[j] = -1
	}
	s.budget = make([]float64, len(inst.Sensors))
	for i := range inst.Sensors {
		s.budget[i] = inst.Sensors[i].Budget
	}
	complete := s.dfs(0, 0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	alloc := inst.NewAllocation()
	if s.bestSet != nil {
		copy(alloc.SlotOwner, s.bestSet)
	}
	inst.RecomputeData(alloc)
	return &Result{Alloc: alloc, Optimal: complete, Nodes: s.nodes}, nil
}

func (s *solver) prepare() {
	inst := s.inst
	s.cands = make([][]slotCand, inst.T)
	for i := range inst.Sensors {
		sen := &inst.Sensors[i]
		for j := sen.Start; sen.Start >= 0 && j <= sen.End; j++ {
			r, p := sen.RateAt(j), sen.PowerAt(j)
			if r <= 0 || p <= 0 {
				continue
			}
			s.cands[j] = append(s.cands[j], slotCand{
				sensor: i, profit: r * inst.Tau, cost: p * inst.Tau,
			})
		}
	}
	for j := range s.cands {
		sort.Slice(s.cands[j], func(a, b int) bool {
			ca, cb := s.cands[j][a], s.cands[j][b]
			if ca.profit != cb.profit {
				return ca.profit > cb.profit
			}
			return ca.sensor < cb.sensor
		})
	}
	s.suffix = make([]float64, inst.T+1)
	for j := inst.T - 1; j >= 0; j-- {
		best := 0.0
		if len(s.cands[j]) > 0 {
			best = s.cands[j][0].profit
		}
		s.suffix[j] = s.suffix[j+1] + best
	}
	s.byDens = make([][]densItem, len(inst.Sensors))
	for i := range inst.Sensors {
		sen := &inst.Sensors[i]
		for j := sen.Start; sen.Start >= 0 && j <= sen.End; j++ {
			r, p := sen.RateAt(j), sen.PowerAt(j)
			if r <= 0 || p <= 0 {
				continue
			}
			s.byDens[i] = append(s.byDens[i], densItem{j, r * inst.Tau, p * inst.Tau})
		}
		items := s.byDens[i]
		sort.Slice(items, func(a, b int) bool {
			return items[a].profit*items[b].weight > items[b].profit*items[a].weight
		})
	}
}

// awareBound is the energy-aware relaxation for slots ≥ j: each sensor can
// add at most its fractional knapsack over its remaining window with its
// remaining budget (per-sensor slots pre-sorted by density in prepare).
func (s *solver) awareBound(j int) float64 {
	aware := 0.0
	for i := range s.inst.Sensors {
		sen := &s.inst.Sensors[i]
		if sen.Start < 0 || sen.End < j {
			continue
		}
		left := s.budget[i]
		for _, it := range s.byDens[i] {
			if it.slot < j {
				continue
			}
			if it.weight <= left {
				aware += it.profit
				left -= it.weight
			} else {
				aware += it.profit * left / it.weight
				break
			}
		}
	}
	return aware
}

// dfs explores slot j with accumulated profit; returns false when the node
// budget is exhausted or the context is canceled (result may be
// suboptimal).
func (s *solver) dfs(j int, profit float64) bool {
	s.nodes++
	if s.nodes > s.maxNodes {
		return false
	}
	if s.nodes%ctxCheckNodes == 0 && s.ctx.Err() != nil {
		return false
	}
	if profit > s.best {
		s.best = profit
		s.bestSet = append(s.bestSet[:0], s.owner...)
	}
	if j == s.inst.T {
		return true
	}
	// Cheap energy-free bound first; the energy-aware bound only when the
	// cheap one fails to prune (both are valid relaxations).
	if profit+s.suffix[j] <= s.best+1e-9 {
		return true // cannot strictly improve
	}
	if profit+s.awareBound(j) <= s.best+1e-9 {
		return true
	}
	complete := true
	// Try assigning slot j to each affordable sensor, best profit first.
	for _, c := range s.cands[j] {
		if c.cost > s.budget[c.sensor]+1e-12 {
			continue
		}
		s.owner[j] = c.sensor
		s.budget[c.sensor] -= c.cost
		if !s.dfs(j+1, profit+c.profit) {
			complete = false
		}
		s.budget[c.sensor] += c.cost
		s.owner[j] = -1
		if !complete {
			return false
		}
	}
	// Leave slot j empty.
	if !s.dfs(j+1, profit) {
		complete = false
	}
	return complete
}
