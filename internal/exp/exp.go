// Package exp defines the paper's evaluation experiments (§VII): for every
// figure it generates the random topologies, runs the algorithms over many
// trials in parallel, and aggregates network throughput per data point.
//
// Experiment index:
//
//	Fig2  — Offline_Appro vs Online_Appro; n ∈ {100..600},
//	        (r_s, τ) ∈ {(5,1), (10,2), (30,4)}; multi-rate radio.
//	Fig3  — special case (fixed 300 mW): Offline_MaxMatch, Online_MaxMatch,
//	        Offline_Appro, Online_Appro; r_s ∈ {5,10,30}, τ = 1.
//	Fig4a — Online_MaxMatch; τ ∈ {1,2,4,8,16}, r_s = 5 (fixed power).
//	Fig4b — Online_Appro; same sweep (multi-rate).
package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/network"
	"mobisink/internal/parallel"
	"mobisink/internal/radio"
	"mobisink/internal/solve"
	"mobisink/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	// Sizes are the network sizes to sweep; default {100..600 step 100}.
	Sizes []int
	// Trials is the number of random topologies per point; default 50
	// (the paper's setting).
	Trials int
	// Seed is the base RNG seed; trial t of size n uses seed
	// Seed + hash(n, t), so points are independent yet reproducible.
	Seed int64
	// Condition selects the solar calibration; default Sunny.
	Condition energy.Condition
	// Jitter is the per-sensor budget heterogeneity (budgets scaled by a
	// uniform factor in [1−Jitter, 1], standing in for the variability of
	// the real harvesting traces); default 0.5.
	Jitter float64
	// Workers bounds trial parallelism; default GOMAXPROCS.
	Workers int
	// FixedPower is the special-case transmission power; default 0.3 W.
	FixedPower float64
	// PathLength and MaxOffset override the topology defaults
	// (10 000 m / 180 m) when positive.
	PathLength, MaxOffset float64
	// PanelAreaMM2 sets the solar panel area feeding the per-tour budgets;
	// default is the paper's 10×10 mm panel (≈1 mW average harvest under
	// the sunny calibration).
	PanelAreaMM2 float64
	// FaultRates are the message drop rates swept by the fault-tolerance
	// experiment; default {0, 0.05, 0.2, 0.5}.
	FaultRates []float64
	// Accrual scales per-tour budgets to model stored-energy carryover:
	// budget = avgHarvest × tourDuration × Accrual. The paper's recurrence
	// P_j = min(P_{j-1}+Q−O, B) lets unspent harvest accumulate across
	// tours, and a sensor is scheduled in only a fraction of tours; with
	// the paper's nominal panel a strict one-tour budget (~0.33 J at
	// 30 m/s, τ=4 s) cannot afford a single 0.68 J transmission slot,
	// contradicting the paper's reported nonzero throughput in that
	// setting. Default 3 — the smallest integer carryover that keeps every
	// paper setting feasible while budgets stay binding. Budgets remain
	// proportional to tour duration, preserving the figures' speed
	// scaling.
	Accrual float64
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{100, 200, 300, 400, 500, 600}
	}
	if c.Trials <= 0 {
		c.Trials = 50
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	} else if c.Jitter == 0 {
		c.Jitter = 0.5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.FixedPower <= 0 {
		c.FixedPower = 0.3
	}
	if c.PathLength <= 0 {
		c.PathLength = 10000
	}
	if c.MaxOffset <= 0 {
		c.MaxOffset = 180
	}
	if c.PanelAreaMM2 <= 0 {
		c.PanelAreaMM2 = energy.PaperPanelAreaMM2
	}
	if c.Accrual <= 0 {
		c.Accrual = 3
	}
	return c
}

// Setting is one kinematic configuration of the sink.
type Setting struct {
	Speed float64 // r_s, m/s
	Tau   float64 // τ, s
}

// String formats the setting as it appears in figure legends.
func (s Setting) String() string {
	return fmt.Sprintf("rs=%gm/s,tau=%gs", s.Speed, s.Tau)
}

// Algorithm names (matching the paper). These are the canonical names of
// the internal/solve registry, which dispatches every run.
const (
	AlgOfflineAppro    = "Offline_Appro"
	AlgOnlineAppro     = "Online_Appro"
	AlgOfflineMaxMatch = "Offline_MaxMatch"
	AlgOnlineMaxMatch  = "Online_MaxMatch"
	AlgOnlineGreedy    = "Online_Greedy"
)

// runAlgorithm dispatches through the solver registry; returns collected
// bits. Successful runs feed the solver-runtime and collected-data
// histograms on the default metrics registry, failed runs the
// per-algorithm error counter; all labels derive from Solver.Name(), so
// metric cardinality is bounded by the registry.
func runAlgorithm(name string, inst *core.Instance) (float64, error) {
	s, err := solve.New(name, solve.Options{})
	if err != nil {
		return 0, fmt.Errorf("exp: unknown algorithm %q", name)
	}
	start := time.Now()
	alloc, err := s.Solve(context.Background(), inst)
	if err != nil {
		solverErrors.With(s.Name()).Inc()
		return 0, err
	}
	observeRun(s.Name(), alloc.Data, time.Since(start))
	return alloc.Data, nil
}

// Point is one aggregated data point of a figure.
type Point struct {
	Setting   string
	N         int
	Algorithm string
	Mb        stats.Summary // throughput per tour, megabits
	FracUB    float64       // mean fraction of the instance upper bound
}

// Table is one reproduced figure.
type Table struct {
	Name        string
	Description string
	Points      []Point
}

// cell collects the per-trial work shared by all algorithms of one
// (setting, n) cell: the trial topologies and instances.
type cell struct {
	setting    Setting
	n          int
	fixedPower bool // build the fixed-power radio model
	algorithms []string
}

// trialResult carries one trial's throughput per algorithm plus the bound.
type trialResult struct {
	bits map[string]float64
	ub   float64
	err  error
}

// seedFor decorrelates trials across cells deterministically.
func seedFor(base int64, n, trial int) int64 {
	h := uint64(base) ^ uint64(n)*0x9E3779B97F4A7C15 ^ uint64(trial)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// runCell executes all trials of one cell: every trial topology is built
// on the work-stealing pool, then each algorithm sweeps the whole cell
// through solve.Batch, whose pool of the same kind keeps workers busy
// across skewed instance sizes.
func runCell(cfg Config, c cell) ([]Point, error) {
	insts := make([]*core.Instance, cfg.Trials)
	ubs := make([]float64, cfg.Trials)
	if _, err := parallel.ForEachStealing(cfg.Trials, cfg.Workers, func(t int) error {
		inst, err := buildTrial(cfg, c, t)
		if err != nil {
			return fmt.Errorf("exp: building n=%d trial %d: %w", c.n, t, err)
		}
		insts[t] = inst
		ubs[t] = inst.UpperBound()
		return nil
	}); err != nil {
		return nil, err
	}

	perAlg := make(map[string][]float64, len(c.algorithms))
	perAlgFrac := make(map[string][]float64, len(c.algorithms))
	for _, alg := range c.algorithms {
		items, err := solve.Batch(context.Background(), alg, insts, solve.Options{}, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("exp: unknown algorithm %q", alg)
		}
		for t, item := range items {
			if item.Err != nil {
				solverErrors.With(alg).Inc()
				return nil, fmt.Errorf("exp: %s on n=%d trial %d: %w", alg, c.n, t, item.Err)
			}
			observeRun(alg, item.Alloc.Data, item.Elapsed)
			perAlg[alg] = append(perAlg[alg], core.ThroughputMb(item.Alloc.Data))
			if ubs[t] > 0 {
				perAlgFrac[alg] = append(perAlgFrac[alg], item.Alloc.Data/ubs[t])
			}
		}
	}
	for t := 0; t < cfg.Trials; t++ {
		trialsRun.Inc()
	}
	pts := make([]Point, 0, len(c.algorithms))
	for _, alg := range c.algorithms {
		sum, err := stats.Summarize(perAlg[alg])
		if err != nil {
			return nil, fmt.Errorf("exp: no results for %s: %w", alg, err)
		}
		pts = append(pts, Point{
			Setting:   c.setting.String(),
			N:         c.n,
			Algorithm: alg,
			Mb:        sum,
			FracUB:    stats.Mean(perAlgFrac[alg]),
		})
	}
	return pts, nil
}

// buildTrial constructs one trial's topology and instance (the
// solver-independent half of a trial).
func buildTrial(cfg Config, c cell, trial int) (*core.Instance, error) {
	seed := seedFor(cfg.Seed, c.n, trial)
	dep, err := network.Generate(network.Params{
		N: c.n, PathLength: cfg.PathLength, MaxOffset: cfg.MaxOffset, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	h, err := energy.NewSolar(cfg.PanelAreaMM2, cfg.Condition, 1.0)
	if err != nil {
		return nil, err
	}
	tourDur := cfg.PathLength / c.setting.Speed
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	if err := dep.AssignSteadyStateBudgets(h, tourDur*cfg.Accrual, cfg.Jitter, rng); err != nil {
		return nil, err
	}
	var model radio.Model = radio.Paper2013()
	if c.fixedPower {
		model, err = radio.NewFixedPower(radio.Paper2013(), cfg.FixedPower)
		if err != nil {
			return nil, err
		}
	}
	return core.BuildInstance(dep, model, c.setting.Speed, c.setting.Tau)
}

// runTrial builds one topology and runs every algorithm of the cell on
// it, one trial at a time (AccrualSensitivity's serial sweep).
func runTrial(cfg Config, c cell, trial int) trialResult {
	inst, err := buildTrial(cfg, c, trial)
	if err != nil {
		return trialResult{err: err}
	}
	res := trialResult{bits: make(map[string]float64, len(c.algorithms)), ub: inst.UpperBound()}
	for _, alg := range c.algorithms {
		bits, err := runAlgorithm(alg, inst)
		if err != nil {
			return trialResult{err: fmt.Errorf("exp: %s on n=%d trial %d: %w", alg, c.n, trial, err)}
		}
		res.bits[alg] = bits
	}
	trialsRun.Inc()
	return res
}

// runFigure sweeps all cells of a figure.
func runFigure(cfg Config, name, desc string, cells []cell) (*Table, error) {
	cfg = cfg.withDefaults()
	tbl := &Table{Name: name, Description: desc}
	for _, c := range cells {
		pts, err := runCell(cfg, c)
		if err != nil {
			return nil, fmt.Errorf("exp: %s (%s, n=%d): %w", name, c.setting, c.n, err)
		}
		tbl.Points = append(tbl.Points, pts...)
	}
	if len(tbl.Points) == 0 {
		return nil, errors.New("exp: empty figure")
	}
	return tbl, nil
}

// Fig2 reproduces Figure 2: Offline_Appro vs Online_Appro across network
// size and sink speed/slot settings.
func Fig2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	settings := []Setting{{5, 1}, {10, 2}, {30, 4}}
	var cells []cell
	for _, s := range settings {
		for _, n := range cfg.Sizes {
			cells = append(cells, cell{
				setting:    s,
				n:          n,
				algorithms: []string{AlgOfflineAppro, AlgOnlineAppro},
			})
		}
	}
	return runFigure(cfg, "fig2",
		"Network throughput: Offline_Appro vs Online_Appro (multi-rate)", cells)
}

// Fig3 reproduces Figure 3: the special case with one fixed transmission
// power, comparing the matching algorithms with the GAP algorithms.
func Fig3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	speeds := []float64{5, 10, 30}
	var cells []cell
	for _, sp := range speeds {
		for _, n := range cfg.Sizes {
			cells = append(cells, cell{
				setting:    Setting{sp, 1},
				n:          n,
				fixedPower: true,
				algorithms: []string{AlgOfflineMaxMatch, AlgOnlineMaxMatch, AlgOfflineAppro, AlgOnlineAppro},
			})
		}
	}
	return runFigure(cfg, "fig3",
		"Special case (fixed 300 mW): matching vs GAP algorithms", cells)
}

// Fig4a reproduces Figure 4(a): Online_MaxMatch across slot durations.
func Fig4a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	var cells []cell
	for _, tau := range []float64{1, 2, 4, 8, 16} {
		for _, n := range cfg.Sizes {
			cells = append(cells, cell{
				setting:    Setting{5, tau},
				n:          n,
				fixedPower: true,
				algorithms: []string{AlgOnlineMaxMatch},
			})
		}
	}
	return runFigure(cfg, "fig4a",
		"Impact of slot duration on Online_MaxMatch (r_s = 5 m/s)", cells)
}

// Fig4b reproduces Figure 4(b): Online_Appro across slot durations.
func Fig4b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	var cells []cell
	for _, tau := range []float64{1, 2, 4, 8, 16} {
		for _, n := range cfg.Sizes {
			cells = append(cells, cell{
				setting:    Setting{5, tau},
				n:          n,
				algorithms: []string{AlgOnlineAppro},
			})
		}
	}
	return runFigure(cfg, "fig4b",
		"Impact of slot duration on Online_Appro (r_s = 5 m/s)", cells)
}

// Figures maps experiment ids to runners for the CLI.
var Figures = map[string]func(Config) (*Table, error){
	"2":  Fig2,
	"3":  Fig3,
	"4a": Fig4a,
	"4b": Fig4b,
}
