// Package solve is the unified entry point to every allocation algorithm
// in the repository. It defines the Solver interface — solve one
// core.Instance under a context — and a registry keyed by algorithm name,
// replacing the string-switch dispatch that internal/exp and internal/srv
// each used to maintain independently.
//
// Canonical names follow the paper's capitalization (Offline_Appro,
// Online_MaxMatch, ...); lookup is case-insensitive, so the HTTP API's
// lowercase spellings (offline_appro) resolve to the same solvers.
// Every solver threads its context into the underlying search
// (knapsack DP layers, branch-and-bound nodes, flow augmentations,
// local-ratio bins, online intervals), so cancelling the context aborts
// real work mid-solve rather than merely being observed at the end.
package solve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mobisink/internal/core"
	"mobisink/internal/fair"
	"mobisink/internal/online"
)

// Solver solves one instance. Implementations must honour ctx: when it is
// cancelled mid-solve they return ctx's error promptly instead of running
// to completion.
type Solver interface {
	// Name is the canonical (paper-style) algorithm name, e.g.
	// "Offline_Appro". Metric labels and experiment tables use it.
	Name() string
	Solve(ctx context.Context, inst *core.Instance) (*core.Allocation, error)
}

// Options configures solver construction. The zero value selects the
// defaults used throughout the paper reproduction.
type Options struct {
	// Core tunes the inner knapsack solver (Eps, ForceFPTAS).
	Core core.Options
	// Online tunes protocol realism for the Online_* solvers (Ack
	// contention window, seed).
	Online online.Options
}

// Factory builds a solver from options.
type Factory func(Options) Solver

type entry struct {
	canonical string
	factory   Factory
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
)

// Register adds a solver factory under its canonical name. It panics on a
// duplicate (case-insensitive) name — registration happens at init time,
// where a clash is a programming error.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("solve: Register with empty name or nil factory")
	}
	key := strings.ToLower(name)
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := registry[key]; ok {
		panic(fmt.Sprintf("solve: duplicate registration %q (already %q)", name, prev.canonical))
	}
	registry[key] = entry{canonical: name, factory: f}
}

// New builds the named solver. Lookup is case-insensitive; unknown names
// return an error listing the valid ones.
func New(name string, opts Options) (Solver, error) {
	regMu.RLock()
	e, ok := registry[strings.ToLower(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: unknown algorithm %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return e.factory(opts), nil
}

// Names returns the canonical names of all registered solvers, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for _, e := range registry {
		names = append(names, e.canonical)
	}
	sort.Strings(names)
	return names
}

// funcSolver adapts a closure to the Solver interface.
type funcSolver struct {
	name string
	fn   func(ctx context.Context, inst *core.Instance) (*core.Allocation, error)
}

func (s *funcSolver) Name() string { return s.name }

func (s *funcSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
	return s.fn(ctx, inst)
}

// runOnline adapts an online scheduler to the Solver result shape.
func runOnline(ctx context.Context, inst *core.Instance, sched online.Scheduler, opts online.Options) (*core.Allocation, error) {
	res, err := online.RunCtx(ctx, inst, sched, opts)
	if err != nil {
		return nil, err
	}
	return res.Alloc, nil
}

func init() {
	Register("Offline_Appro", func(o Options) Solver {
		return &funcSolver{"Offline_Appro", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return core.OfflineApproCtx(ctx, inst, o.Core)
		}}
	})
	Register("Offline_MaxMatch", func(o Options) Solver {
		return &funcSolver{"Offline_MaxMatch", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return core.OfflineMaxMatchCtx(ctx, inst)
		}}
	})
	Register("Offline_Greedy", func(o Options) Solver {
		return &funcSolver{"Offline_Greedy", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return core.OfflineGreedyCtx(ctx, inst)
		}}
	})
	Register("Offline_Sequential", func(o Options) Solver {
		return &funcSolver{"Offline_Sequential", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return core.OfflineSequentialCtx(ctx, inst, o.Core)
		}}
	})
	Register("Offline_WaterFill", func(o Options) Solver {
		return &funcSolver{"Offline_WaterFill", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return fair.WaterFillCtx(ctx, inst)
		}}
	})
	Register("Online_Appro", func(o Options) Solver {
		return &funcSolver{"Online_Appro", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return runOnline(ctx, inst, &online.Appro{Opts: o.Core}, o.Online)
		}}
	})
	Register("Online_MaxMatch", func(o Options) Solver {
		return &funcSolver{"Online_MaxMatch", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return runOnline(ctx, inst, &online.MaxMatch{}, o.Online)
		}}
	})
	Register("Online_Greedy", func(o Options) Solver {
		return &funcSolver{"Online_Greedy", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return runOnline(ctx, inst, &online.Greedy{}, o.Online)
		}}
	})
	Register("Online_Sequential", func(o Options) Solver {
		return &funcSolver{"Online_Sequential", func(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
			return runOnline(ctx, inst, &online.Sequential{Opts: o.Core}, o.Online)
		}}
	})
}
