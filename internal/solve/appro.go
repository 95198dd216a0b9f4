package solve

import (
	"context"
	"sync/atomic"
	"time"

	"mobisink/internal/core"
)

// approSolver is the registry's Offline_Appro: it caches the compiled
// flat form of the most recently solved instance (pointer identity), so
// repeated solves of one instance — benchmark iterations, batch sweeps,
// A/B option comparisons on a shared topology — skip recompilation.
// The cache assumes instances are not mutated between solves (DataCaps
// may change; the Appro reduction does not read them).
type approSolver struct {
	opts  core.Options
	cache atomic.Pointer[approCache]
}

type approCache struct {
	inst *core.Instance
	c    *core.Compiled
}

func (s *approSolver) Name() string { return "Offline_Appro" }

func (s *approSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Allocation, error) {
	c, err := s.compiled(inst)
	if err != nil {
		return nil, err
	}
	return c.Solve(ctx)
}

// compiled returns the flat form of inst, reusing the cached one when the
// same instance pointer was compiled last.
func (s *approSolver) compiled(inst *core.Instance) (*core.Compiled, error) {
	if e := s.cache.Load(); e != nil && e.inst == inst {
		return e.c, nil
	}
	start := time.Now()
	c, err := core.CompileAppro(inst, s.opts)
	if err != nil {
		return nil, err
	}
	compileNs.Observe(float64(time.Since(start).Nanoseconds()))
	s.cache.Store(&approCache{inst: inst, c: c})
	return c, nil
}
