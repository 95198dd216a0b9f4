package exp

import (
	"fmt"
	"io"
	"strconv"

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
	sizes := cfg.sizesOr(100, 300, 600)
	cfg = cfg.withDefaults()
	tbl := &FleetTable{}
	for _, k := range []int{1, 2, 4} {
		for _, n := range sizes {
			pts, err := runCell(cfg, cell{setting: Setting{5, 1}, n: n, sinks: k,
				algorithms: []string{AlgOfflineAppro, "Offline_WaterFill"}})
			if err != nil {
				return nil, fmt.Errorf("exp: fleet K=%d: %w", k, err)
			}
			for _, p := range pts {
				tbl.Points = append(tbl.Points, FleetPoint{
					K: k, N: n, Algorithm: p.Algorithm, Mb: p.Mb, FracUB: p.FracUB,
				})
			}
		}
	}
	return tbl, nil
}

// WriteCSV emits the fleet table.
func (t *FleetTable) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"k", "n", "algorithm",
		"throughput_mb_mean", "throughput_mb_ci95", "frac_upper_bound"}, t.Points, func(p FleetPoint) []string {
		return []string{
			strconv.Itoa(p.K), strconv.Itoa(p.N), p.Algorithm,
			fmt.Sprintf("%.4f", p.Mb.Mean), fmt.Sprintf("%.4f", p.Mb.CI95),
			fmt.Sprintf("%.4f", p.FracUB),
		}
	})
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
