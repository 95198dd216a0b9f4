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
//
// Experiments registers these and the tables of the text claims and
// ablations (msgs, gap, accrual, contention, latency, faults, fleet) by
// the id cmd/mobisink runs them under.
package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"

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
	// Sizes are the network sizes to sweep; default {100..600 step 100},
	// except that OptimalityGap, Contention and FleetSweep take their own
	// smaller sweeps when Sizes is unset.
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
	c.Sizes = c.sizesOr(100, 200, 300, 400, 500, 600)
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

// sizesOr returns the sizes the caller set, or def if it set none.
func (c Config) sizesOr(def ...int) []int {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	return def
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

// seedFor decorrelates trials across cells deterministically.
func seedFor(base int64, n, trial int) int64 {
	h := uint64(base) ^ uint64(n)*0x9E3779B97F4A7C15 ^ uint64(trial)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// recipe states what one trial's instance is built from; the Config
// supplies the rest: the harvester, the budget jitter and the road's
// maximum offset.
type recipe struct {
	n                int
	seed, budgetSeed int64   // topology seed; seed of the budget jitter
	path             float64 // road length, m
	budgetSecs       float64 // seconds of average harvest each budget holds
	speed, tau       float64
	fixedPower       float64 // > 0: the special case's one transmission power, W
	sinks            int     // > 0: a fleet instance, the road split among this many sinks
}

// build generates the recipe's deployment, assigns its budgets and builds
// its instance.
func (r recipe) build(cfg Config) (*network.Deployment, *core.Instance, error) {
	dep, err := network.Generate(network.Params{
		N: r.n, PathLength: r.path, MaxOffset: cfg.MaxOffset, Seed: r.seed,
	})
	if err != nil {
		return nil, nil, err
	}
	h, err := energy.NewSolar(cfg.PanelAreaMM2, cfg.Condition, 1.0)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(r.budgetSeed))
	if err := dep.AssignSteadyStateBudgets(h, r.budgetSecs, cfg.Jitter, rng); err != nil {
		return nil, nil, err
	}
	var model radio.Model = radio.Paper2013()
	if r.fixedPower > 0 {
		if model, err = radio.NewFixedPower(model, r.fixedPower); err != nil {
			return nil, nil, err
		}
	}
	if r.sinks == 0 {
		inst, err := core.BuildInstance(dep, model, r.speed, r.tau)
		return dep, inst, err
	}
	if r.sinks > 1 {
		if err := dep.SplitSinks(r.sinks, nil); err != nil {
			return nil, nil, err
		}
	}
	inst, err := core.BuildFleetInstance(dep, model, r.speed, r.tau)
	return dep, inst, err
}

// eachTrial builds the instance of spec(t) for every trial t on the
// work-stealing pool and hands it to work on the same worker. work keeps
// what it needs by t, so callers aggregate in trial order.
func eachTrial(cfg Config, spec func(t int) recipe, work func(t int, dep *network.Deployment, inst *core.Instance) error) error {
	_, err := parallel.ForEachStealing(cfg.Trials, cfg.Workers, func(t int) error {
		r := spec(t)
		dep, inst, err := r.build(cfg)
		if err != nil {
			return fmt.Errorf("exp: building n=%d trial %d: %w", r.n, t, err)
		}
		return work(t, dep, inst)
	})
	return err
}

// cell is one (setting, n) point of a sweep whose algorithms all run
// through the solve registry.
type cell struct {
	setting    Setting
	n          int
	fixedPower float64 // > 0: the special case's radio
	sinks      int     // > 0: a fleet of this many sinks
	algorithms []string
}

// trial is the recipe of the cell's trial t. Budgets hold Accrual tours
// of one sink at the setting's speed. A fleet cell draws its topologies
// from the key 16n + K, so every fleet size gets its own.
func (c cell) trial(cfg Config, t int) recipe {
	key := c.n
	if c.sinks > 0 {
		key = 16*c.n + c.sinks
	}
	seed := seedFor(cfg.Seed, key, t)
	return recipe{
		n: c.n, seed: seed, budgetSeed: seed ^ 0x5DEECE66D, path: cfg.PathLength,
		budgetSecs: cfg.PathLength / c.setting.Speed * cfg.Accrual,
		speed:      c.setting.Speed, tau: c.setting.Tau,
		fixedPower: c.fixedPower, sinks: c.sinks,
	}
}

// runCell executes all trials of one cell: every trial instance is built
// on the work-stealing pool, then each algorithm sweeps the whole cell
// through solve.Batch, whose pool of the same kind keeps workers busy
// across skewed instance sizes.
func runCell(cfg Config, c cell) ([]Point, error) {
	insts := make([]*core.Instance, cfg.Trials)
	ubs := make([]float64, cfg.Trials)
	if err := eachTrial(cfg, func(t int) recipe { return c.trial(cfg, t) },
		func(t int, _ *network.Deployment, inst *core.Instance) error {
			insts[t], ubs[t] = inst, inst.UpperBound()
			return nil
		}); err != nil {
		return nil, err
	}
	pts := make([]Point, 0, len(c.algorithms))
	for _, alg := range c.algorithms {
		items, err := solve.Batch(context.Background(), alg, insts, solve.Options{}, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("exp: unknown algorithm %q", alg)
		}
		var mbs, fracs []float64
		for t, item := range items {
			if item.Err != nil {
				solverErrors.With(alg).Inc()
				return nil, fmt.Errorf("exp: %s on n=%d trial %d: %w", alg, c.n, t, item.Err)
			}
			observeRun(alg, item.Alloc.Data, item.Elapsed)
			mbs = append(mbs, core.ThroughputMb(item.Alloc.Data))
			if ubs[t] > 0 {
				fracs = append(fracs, item.Alloc.Data/ubs[t])
			}
		}
		sum, err := stats.Summarize(mbs)
		if err != nil {
			return nil, fmt.Errorf("exp: no results for %s: %w", alg, err)
		}
		pts = append(pts, Point{
			Setting: c.setting.String(), N: c.n, Algorithm: alg, Mb: sum, FracUB: stats.Mean(fracs),
		})
	}
	trialsRun.Add(float64(cfg.Trials))
	return pts, nil
}

// runFigure sweeps every (setting, size) cell of a figure, each running
// algorithms, on the special case's fixed-power radio when fixedPower.
func runFigure(cfg Config, name, desc string, settings []Setting, fixedPower bool, algorithms ...string) (*Table, error) {
	cfg = cfg.withDefaults()
	var power float64
	if fixedPower {
		power = cfg.FixedPower
	}
	tbl := &Table{Name: name, Description: desc}
	for _, s := range settings {
		for _, n := range cfg.Sizes {
			pts, err := runCell(cfg, cell{setting: s, n: n, fixedPower: power, algorithms: algorithms})
			if err != nil {
				return nil, fmt.Errorf("exp: %s (%s, n=%d): %w", name, s, n, err)
			}
			tbl.Points = append(tbl.Points, pts...)
		}
	}
	return tbl, nil
}

// taus is Figure 4's slot-duration sweep, at r_s = 5 m/s.
var taus = []Setting{{5, 1}, {5, 2}, {5, 4}, {5, 8}, {5, 16}}

// Fig2 reproduces Figure 2: Offline_Appro vs Online_Appro across network
// size and sink speed/slot settings.
func Fig2(cfg Config) (*Table, error) {
	return runFigure(cfg, "fig2", "Network throughput: Offline_Appro vs Online_Appro (multi-rate)",
		[]Setting{{5, 1}, {10, 2}, {30, 4}}, false, AlgOfflineAppro, AlgOnlineAppro)
}

// Fig3 reproduces Figure 3: the special case with one fixed transmission
// power, comparing the matching algorithms with the GAP algorithms.
func Fig3(cfg Config) (*Table, error) {
	return runFigure(cfg, "fig3", "Special case (fixed 300 mW): matching vs GAP algorithms",
		[]Setting{{5, 1}, {10, 1}, {30, 1}}, true,
		AlgOfflineMaxMatch, AlgOnlineMaxMatch, AlgOfflineAppro, AlgOnlineAppro)
}

// Fig4a reproduces Figure 4(a): Online_MaxMatch across slot durations.
func Fig4a(cfg Config) (*Table, error) {
	return runFigure(cfg, "fig4a", "Impact of slot duration on Online_MaxMatch (r_s = 5 m/s)",
		taus, true, AlgOnlineMaxMatch)
}

// Fig4b reproduces Figure 4(b): Online_Appro across slot durations.
func Fig4b(cfg Config) (*Table, error) {
	return runFigure(cfg, "fig4b", "Impact of slot duration on Online_Appro (r_s = 5 m/s)",
		taus, false, AlgOnlineAppro)
}

// Renderable is the surface every experiment table shares.
type Renderable interface {
	Render(io.Writer) error
	WriteCSV(io.Writer) error
}

// Experiment is one table of the evaluation.
type Experiment struct {
	ID  string // `mobisink -fig` id; the table's CSV is fig<ID>.csv
	All bool   // run by `mobisink -fig all`
	Run func(Config) (Renderable, error)
}

// Experiments lists every experiment. Those that `-fig all` runs, the
// paper's figures and the Theorem 3 and §I.B claims, come first, in the
// order it runs them.
var Experiments = []Experiment{
	{"2", true, table(Fig2)},
	{"3", true, table(Fig3)},
	{"4a", true, table(Fig4a)},
	{"4b", true, table(Fig4b)},
	{"gap", true, table(OptimalityGap)},
	{"msgs", true, table(Messages)},
	{"accrual", false, table(AccrualSensitivity)},
	{"contention", false, table(Contention)},
	{"latency", false, table(Latency)},
	{"faults", false, table(FaultSweep)},
	{"fleet", false, table(FleetSweep)},
}

// table adapts a runner that returns its own table type. A failed run
// returns a nil Renderable, not a nil table inside one.
func table[T Renderable](run func(Config) (T, error)) func(Config) (Renderable, error) {
	return func(cfg Config) (Renderable, error) {
		tbl, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return tbl, nil
	}
}
