package exp

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/network"
	"mobisink/internal/parallel"
	"mobisink/internal/radio"
	"mobisink/internal/solve"
	"mobisink/internal/stats"
)

// FleetPoint is one row of the fleet sweep: one (K, n, algorithm) cell.
type FleetPoint struct {
	K         int // mobile sink fleet size
	N         int
	Algorithm string
	Mb        stats.Summary // throughput per tour, megabits
	FracUB    float64       // mean fraction of the instance upper bound
}

// FleetTable aggregates the sweep.
type FleetTable struct {
	Points []FleetPoint
}

// FleetSweep extends the paper's single-sink evaluation to sink fleets:
// the highway is split into K equal segments, each toured concurrently by
// its own sink, and the offline schedulers run on the joint K-sink
// instance (K = 1 is the legacy single-sink stack bit-for-bit). Budgets
// are sized for the K = 1 tour duration at every K, so the sweep isolates
// the scheduling effect of more sinks: shorter per-sink tours concentrate
// visibility windows into fewer, overlapping absolute slots, and the
// cross-sink exclusivity constraint starts to bind.
func FleetSweep(cfg Config) (*FleetTable, error) {
	cfg = cfg.withDefaults()
	sizes := cfg.Sizes
	if len(sizes) == 6 && sizes[0] == 100 {
		sizes = []int{100, 300, 600} // default downsized sweep
	}
	const speed, tau = 5.0, 1.0
	algorithms := []string{AlgOfflineAppro, "Offline_WaterFill"}
	tbl := &FleetTable{}
	for _, k := range []int{1, 2, 4} {
		for _, n := range sizes {
			insts := make([]*core.Instance, cfg.Trials)
			ubs := make([]float64, cfg.Trials)
			if _, err := parallel.ForEachStealing(cfg.Trials, cfg.Workers, func(t int) error {
				inst, err := buildFleetTrial(cfg, k, n, speed, tau, t)
				if err != nil {
					return fmt.Errorf("exp: building K=%d n=%d trial %d: %w", k, n, t, err)
				}
				insts[t] = inst
				ubs[t] = inst.UpperBound()
				return nil
			}); err != nil {
				return nil, err
			}
			for _, alg := range algorithms {
				items, err := solve.Batch(context.Background(), alg, insts, solve.Options{}, cfg.Workers)
				if err != nil {
					return nil, fmt.Errorf("exp: unknown algorithm %q", alg)
				}
				var mbs, fracs []float64
				for t, item := range items {
					if item.Err != nil {
						return nil, fmt.Errorf("exp: %s on K=%d n=%d trial %d: %w", alg, k, n, t, item.Err)
					}
					observeRun(alg, item.Alloc.Data, item.Elapsed)
					mbs = append(mbs, core.ThroughputMb(item.Alloc.Data))
					if ubs[t] > 0 {
						fracs = append(fracs, item.Alloc.Data/ubs[t])
					}
				}
				sum, err := stats.Summarize(mbs)
				if err != nil {
					return nil, err
				}
				tbl.Points = append(tbl.Points, FleetPoint{
					K: k, N: n, Algorithm: alg, Mb: sum, FracUB: stats.Mean(fracs),
				})
			}
		}
	}
	return tbl, nil
}

// buildFleetTrial constructs one fleet trial: a random topology split
// into K per-sink segments, with budgets sized for the K = 1 tour.
func buildFleetTrial(cfg Config, k, n int, speed, tau float64, trial int) (*core.Instance, error) {
	seed := seedFor(cfg.Seed, n*16+k, trial)
	dep, err := network.Generate(network.Params{
		N: n, PathLength: cfg.PathLength, MaxOffset: cfg.MaxOffset, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	h, err := energy.NewSolar(cfg.PanelAreaMM2, cfg.Condition, 1.0)
	if err != nil {
		return nil, err
	}
	tourDur := cfg.PathLength / speed
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	if err := dep.AssignSteadyStateBudgets(h, tourDur*cfg.Accrual, cfg.Jitter, rng); err != nil {
		return nil, err
	}
	if k > 1 {
		if err := dep.SplitSinks(k, nil); err != nil {
			return nil, err
		}
	}
	return core.BuildFleetInstance(dep, radio.Paper2013(), speed, tau)
}

// WriteCSV emits the fleet table.
func (t *FleetTable) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"k", "n", "algorithm",
		"throughput_mb_mean", "throughput_mb_ci95", "frac_upper_bound"}); err != nil {
		return err
	}
	for _, p := range t.Points {
		if err := cw.Write([]string{
			strconv.Itoa(p.K), strconv.Itoa(p.N), p.Algorithm,
			fmt.Sprintf("%.4f", p.Mb.Mean), fmt.Sprintf("%.4f", p.Mb.CI95),
			fmt.Sprintf("%.4f", p.FracUB),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Render prints the fleet table.
func (t *FleetTable) Render(w io.Writer) error {
	fmt.Fprintln(w, "== fleet: K-sink sweep, highway split into K concurrent segments (K=1 is the legacy stack) ==")
	fmt.Fprintf(w, "%4s %6s %20s %14s %10s\n", "K", "n", "algorithm", "Mb/tour", "of UB")
	for _, p := range t.Points {
		fmt.Fprintf(w, "%4d %6d %20s %8.2f ±%4.2f %9.1f%%\n",
			p.K, p.N, p.Algorithm, p.Mb.Mean, p.Mb.CI95, 100*p.FracUB)
	}
	return nil
}
