package exp

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"mobisink/internal/core"
	"mobisink/internal/exact"
	"mobisink/internal/network"
	"mobisink/internal/online"
	"mobisink/internal/stats"
	"mobisink/internal/traffic"
)

// MsgPoint is one row of the message-complexity experiment (Theorem 3):
// the online protocol's message counts per tour, averaged over trials.
type MsgPoint struct {
	N          int
	Intervals  int
	Probes     float64
	Acks       float64
	Schedules  float64
	Finishes   float64
	Total      float64
	AcksBound  int // 2n (Lemma 1 ⇒ each sensor acks ≤ twice)
	TotalBound int // 2n + 3·K
}

// MsgTable aggregates the sweep.
type MsgTable struct {
	Points []MsgPoint
}

// Messages measures the online protocol's per-tour message complexity
// across network sizes (paper Theorem 3: O(n) messages), at the default
// (5 m/s, 1 s) setting.
func Messages(cfg Config) (*MsgTable, error) {
	cfg = cfg.withDefaults()
	tbl := &MsgTable{}
	for _, n := range cfg.Sizes {
		_, tours, err := approTours(cfg, n)
		if err != nil {
			return nil, err
		}
		var probes, acks, scheds, fins, totals []float64
		for _, res := range tours {
			if err := res.CheckLemma1(); err != nil {
				return nil, fmt.Errorf("exp: lemma 1 violated at n=%d: %w", n, err)
			}
			probes = append(probes, float64(res.Messages.Probes))
			acks = append(acks, float64(res.Messages.Acks))
			scheds = append(scheds, float64(res.Messages.Schedules))
			fins = append(fins, float64(res.Messages.Finishes))
			totals = append(totals, float64(res.Messages.Total()))
		}
		intervals := tours[len(tours)-1].Intervals
		p := MsgPoint{
			N:          n,
			Intervals:  intervals,
			Probes:     stats.Mean(probes),
			Acks:       stats.Mean(acks),
			Schedules:  stats.Mean(scheds),
			Finishes:   stats.Mean(fins),
			Total:      stats.Mean(totals),
			AcksBound:  2 * n,
			TotalBound: 2*n + 3*intervals,
		}
		if p.Acks > float64(p.AcksBound) {
			return nil, fmt.Errorf("exp: mean acks %v exceed the 2n bound at n=%d", p.Acks, n)
		}
		tbl.Points = append(tbl.Points, p)
	}
	return tbl, nil
}

// approTours builds every trial's instance of size n at (5 m/s, τ = 1 s),
// with budgets of Accrual·PathLength/5 seconds, and runs Online_Appro's
// ideal tour on it: the baseline that msgs, contention and faults share.
func approTours(cfg Config, n int) ([]*core.Instance, []*online.Result, error) {
	insts := make([]*core.Instance, cfg.Trials)
	tours := make([]*online.Result, cfg.Trials)
	err := eachTrial(cfg, func(t int) recipe {
		seed := seedFor(cfg.Seed, n, t)
		return recipe{
			n: n, seed: seed, budgetSeed: seed, path: cfg.PathLength,
			budgetSecs: cfg.Accrual * cfg.PathLength / 5, speed: 5, tau: 1,
		}
	}, func(t int, _ *network.Deployment, inst *core.Instance) error {
		res, err := online.Run(inst, &online.Appro{})
		insts[t], tours[t] = inst, res
		return err
	})
	return insts, tours, err
}

// WriteCSV emits the message table.
func (t *MsgTable) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"n", "intervals", "probes", "acks", "schedules",
		"finishes", "total", "acks_bound_2n", "total_bound"}, t.Points, func(p MsgPoint) []string {
		return []string{
			strconv.Itoa(p.N), strconv.Itoa(p.Intervals),
			fmt.Sprintf("%.1f", p.Probes), fmt.Sprintf("%.1f", p.Acks),
			fmt.Sprintf("%.1f", p.Schedules), fmt.Sprintf("%.1f", p.Finishes),
			fmt.Sprintf("%.1f", p.Total),
			strconv.Itoa(p.AcksBound), strconv.Itoa(p.TotalBound),
		}
	})
}

// Render prints the message table.
func (t *MsgTable) Render(w io.Writer) error {
	fmt.Fprintln(w, "== messages: online protocol message complexity per tour (Theorem 3) ==")
	fmt.Fprintf(w, "%8s %10s %8s %8s %10s %9s %8s %10s %11s\n",
		"n", "intervals", "probes", "acks", "schedules", "finishes", "total", "bound(2n)", "bound(tot)")
	for _, p := range t.Points {
		fmt.Fprintf(w, "%8d %10d %8.1f %8.1f %10.1f %9.1f %8.1f %10d %11d\n",
			p.N, p.Intervals, p.Probes, p.Acks, p.Schedules, p.Finishes, p.Total,
			p.AcksBound, p.TotalBound)
	}
	return nil
}

// GapPoint is one row of the optimality-gap experiment: the approximation
// algorithms against the exact branch-and-bound optimum on small instances.
type GapPoint struct {
	N           int
	Trials      int
	Solved      int           // trials where B&B proved optimality
	ApproRatio  stats.Summary // OfflineAppro / OPT over solved trials
	OnlineRatio stats.Summary // Online_Appro / OPT
	ApproTimeMs float64
	ExactTimeMs float64
	MeanNodes   float64
}

// GapTable aggregates the optimality-gap sweep.
type GapTable struct {
	Points []GapPoint
}

// OptimalityGap measures how close the approximation algorithms come to
// the true optimum on downsized instances (short path, so the exact
// branch-and-bound terminates), and how much slower exactness is — the
// paper's §I.B argument against exact/ILP scheduling.
func OptimalityGap(cfg Config) (*GapTable, error) {
	sizes := cfg.sizesOr(4, 8, 12, 16)
	cfg = cfg.withDefaults()
	tbl := &GapTable{}
	for _, n := range sizes {
		insts := make([]*core.Instance, cfg.Trials)
		if err := eachTrial(cfg, func(t int) recipe {
			seed := seedFor(cfg.Seed, n, t)
			return recipe{
				n: n, seed: seed, budgetSeed: seed, path: 600,
				budgetSecs: cfg.Accrual * 600 / 5, speed: 10, tau: 1,
			}
		}, func(t int, _ *network.Deployment, inst *core.Instance) error {
			insts[t] = inst
			return nil
		}); err != nil {
			return nil, err
		}
		// The solves run one at a time, so the timing columns read an
		// uncontended solve.
		var ratios, onRatios []float64
		var approMs, exactMs, nodes float64
		solved := 0
		for _, inst := range insts {
			t0 := time.Now()
			ap, err := core.OfflineAppro(inst, core.Options{})
			if err != nil {
				return nil, err
			}
			approMs += float64(time.Since(t0).Microseconds()) / 1000
			on, err := online.Run(inst, &online.Appro{})
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			res, err := exact.Solve(inst, exact.Options{MaxNodes: 3_000_000, Incumbent: ap})
			if err != nil {
				return nil, err
			}
			exactMs += float64(time.Since(t1).Microseconds()) / 1000
			nodes += float64(res.Nodes)
			if !res.Optimal || res.Alloc.Data == 0 {
				continue
			}
			solved++
			ratios = append(ratios, ap.Data/res.Alloc.Data)
			onRatios = append(onRatios, on.Data/res.Alloc.Data)
		}
		p := GapPoint{
			N:           n,
			Trials:      cfg.Trials,
			Solved:      solved,
			ApproTimeMs: approMs / float64(cfg.Trials),
			ExactTimeMs: exactMs / float64(cfg.Trials),
			MeanNodes:   nodes / float64(cfg.Trials),
		}
		if len(ratios) > 0 {
			p.ApproRatio, _ = stats.Summarize(ratios)
			p.OnlineRatio, _ = stats.Summarize(onRatios)
		}
		tbl.Points = append(tbl.Points, p)
	}
	return tbl, nil
}

// WriteCSV emits the gap table.
func (t *GapTable) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"n", "trials", "solved", "appro_over_opt_mean",
		"appro_over_opt_min", "online_over_opt_mean", "appro_ms", "exact_ms", "mean_nodes"}, t.Points, func(p GapPoint) []string {
		return []string{
			strconv.Itoa(p.N), strconv.Itoa(p.Trials), strconv.Itoa(p.Solved),
			fmt.Sprintf("%.4f", p.ApproRatio.Mean), fmt.Sprintf("%.4f", p.ApproRatio.Min),
			fmt.Sprintf("%.4f", p.OnlineRatio.Mean),
			fmt.Sprintf("%.3f", p.ApproTimeMs), fmt.Sprintf("%.3f", p.ExactTimeMs),
			fmt.Sprintf("%.0f", p.MeanNodes),
		}
	})
}

// Render prints the gap table.
func (t *GapTable) Render(w io.Writer) error {
	fmt.Fprintln(w, "== gap: approximation quality vs exact optimum (downsized instances) ==")
	fmt.Fprintf(w, "%6s %7s %7s %12s %12s %13s %10s %10s %12s\n",
		"n", "trials", "solved", "appro/OPT", "worst", "online/OPT", "appro ms", "exact ms", "B&B nodes")
	for _, p := range t.Points {
		fmt.Fprintf(w, "%6d %7d %7d %12.4f %12.4f %13.4f %10.3f %10.3f %12.0f\n",
			p.N, p.Trials, p.Solved, p.ApproRatio.Mean, p.ApproRatio.Min,
			p.OnlineRatio.Mean, p.ApproTimeMs, p.ExactTimeMs, p.MeanNodes)
	}
	return nil
}

// AccrualPoint is one row of the budget-calibration sensitivity study.
type AccrualPoint struct {
	Accrual float64
	Setting string
	Mb      stats.Summary
}

// AccrualTable aggregates the sweep.
type AccrualTable struct {
	Points []AccrualPoint
}

// AccrualSensitivity sweeps the stored-energy carryover multiple (DESIGN.md
// §5b substitution 2) at n = 300 for the strongest and weakest paper
// settings, quantifying how the calibration choice moves absolute
// throughput (the figures' *shapes* are budget-scale invariant as long as
// budgets stay duration-proportional, which every accrual value preserves).
func AccrualSensitivity(cfg Config) (*AccrualTable, error) {
	cfg = cfg.withDefaults()
	tbl := &AccrualTable{}
	for _, accrual := range []float64{1, 2, 3, 5} {
		for _, s := range []Setting{{5, 1}, {30, 4}} {
			c := cfg
			c.Accrual = accrual
			pts, err := runCell(c, cell{setting: s, n: 300, algorithms: []string{AlgOfflineAppro}})
			if err != nil {
				return nil, err
			}
			tbl.Points = append(tbl.Points, AccrualPoint{Accrual: accrual, Setting: s.String(), Mb: pts[0].Mb})
		}
	}
	return tbl, nil
}

// WriteCSV emits the accrual table.
func (t *AccrualTable) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"accrual", "setting", "throughput_mb_mean", "throughput_mb_ci95"},
		t.Points, func(p AccrualPoint) []string {
			return []string{
				fmt.Sprintf("%g", p.Accrual), p.Setting,
				fmt.Sprintf("%.4f", p.Mb.Mean), fmt.Sprintf("%.4f", p.Mb.CI95),
			}
		})
}

// Render prints the accrual table.
func (t *AccrualTable) Render(w io.Writer) error {
	fmt.Fprintln(w, "== accrual: budget-carryover sensitivity (Offline_Appro, n=300) ==")
	fmt.Fprintf(w, "%8s %18s %14s\n", "accrual", "setting", "Mb/tour")
	for _, p := range t.Points {
		fmt.Fprintf(w, "%8g %18s %8.2f ±%4.2f\n", p.Accrual, p.Setting, p.Mb.Mean, p.Mb.CI95)
	}
	return nil
}

// ContentionPoint is one row of the registration-contention study.
type ContentionPoint struct {
	AckWindow int // 0 = the paper's ideal collision-free registration
	N         int
	Mb        stats.Summary
	FracIdeal float64 // mean fraction of the ideal-registration throughput
}

// ContentionTable aggregates the sweep.
type ContentionTable struct {
	Points []ContentionPoint
}

// Contention measures how sensitive Online_Appro is to Ack collisions
// during registration (internal/mac): the paper assumes a perfect
// registration phase; this sweeps the CSMA backoff window and reports the
// recovered fraction of ideal throughput.
func Contention(cfg Config) (*ContentionTable, error) {
	sizes := cfg.sizesOr(100, 300, 600)
	cfg = cfg.withDefaults()
	tbl := &ContentionTable{}
	for _, n := range sizes {
		insts, ideal, err := approTours(cfg, n)
		if err != nil {
			return nil, err
		}
		for _, w := range []int{0, 4, 8, 16, 64} {
			var mbs, fracs []float64
			for t, inst := range insts {
				data := ideal[t].Data
				if w > 0 {
					res, err := online.RunOpts(inst, &online.Appro{},
						online.Options{AckWindow: w, Seed: seedFor(cfg.Seed, n, t)})
					if err != nil {
						return nil, err
					}
					data = res.Data
				}
				mbs = append(mbs, core.ThroughputMb(data))
				if ideal[t].Data > 0 {
					fracs = append(fracs, data/ideal[t].Data)
				}
			}
			sum, err := stats.Summarize(mbs)
			if err != nil {
				return nil, err
			}
			tbl.Points = append(tbl.Points, ContentionPoint{
				AckWindow: w, N: n, Mb: sum, FracIdeal: stats.Mean(fracs),
			})
		}
	}
	return tbl, nil
}

// WriteCSV emits the contention table.
func (t *ContentionTable) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"ack_window", "n", "throughput_mb_mean", "throughput_mb_ci95", "fraction_of_ideal"},
		t.Points, func(p ContentionPoint) []string {
			return []string{
				strconv.Itoa(p.AckWindow), strconv.Itoa(p.N),
				fmt.Sprintf("%.4f", p.Mb.Mean), fmt.Sprintf("%.4f", p.Mb.CI95),
				fmt.Sprintf("%.4f", p.FracIdeal),
			}
		})
}

// Render prints the contention table.
func (t *ContentionTable) Render(w io.Writer) error {
	fmt.Fprintln(w, "== contention: Ack-collision sensitivity of Online_Appro (CSMA window sweep; 0 = ideal) ==")
	fmt.Fprintf(w, "%10s %6s %14s %12s\n", "ack_window", "n", "Mb/tour", "of ideal")
	for _, p := range t.Points {
		fmt.Fprintf(w, "%10d %6d %8.2f ±%4.2f %11.1f%%\n", p.AckWindow, p.N, p.Mb.Mean, p.Mb.CI95, 100*p.FracIdeal)
	}
	return nil
}

// LatencyPoint is one row of the throughput/latency trade-off study.
type LatencyPoint struct {
	Speed        float64
	TourMin      float64 // tour duration, minutes
	Mb           stats.Summary
	MeanDelayMin float64 // mean delivery delay of the traffic workload, minutes
	P95DelayMin  float64
	DeliveredPct float64 // fraction of generated detections delivered
}

// LatencyTable aggregates the sweep.
type LatencyTable struct {
	Points []LatencyPoint
}

// Latency quantifies §VII.C's qualitative trade-off — "a higher speed
// leads to a shorter delay on data delivery, [but] a less amount of data
// collected per tour" — by replaying the traffic-surveillance workload
// against Online_Appro tours at each sink speed and measuring actual
// sensed-to-delivered delays.
func Latency(cfg Config) (*LatencyTable, error) {
	cfg = cfg.withDefaults()
	const n = 200
	tp := traffic.Params{
		ArrivalRate: 0.05, MeanSpeed: 25, SpeedStdDev: 4,
		DetectRange: 150, BitsPerDetection: 20e3,
	}
	tbl := &LatencyTable{}
	for _, speed := range []float64{2, 5, 10, 20, 30} {
		mbs := make([]float64, cfg.Trials)
		lats := make([]traffic.LatencyStats, cfg.Trials)
		if err := eachTrial(cfg, func(t int) recipe {
			seed := seedFor(cfg.Seed, int(speed), t)
			return recipe{
				n: n, seed: seed, budgetSeed: seed, path: cfg.PathLength,
				budgetSecs: cfg.Accrual * (cfg.PathLength / speed), speed: speed, tau: 1,
			}
		}, func(t int, dep *network.Deployment, inst *core.Instance) error {
			res, err := online.Run(inst, &online.Appro{})
			if err != nil {
				return err
			}
			tpTrial := tp
			tpTrial.Seed = seedFor(cfg.Seed, int(speed), t)
			mbs[t] = core.ThroughputMb(res.Data)
			lats[t], err = traffic.DeliveryLatency(dep, tpTrial, inst, res.Alloc, -3600, 0)
			return err
		}); err != nil {
			return nil, err
		}
		var delaySum, p95Sum, genSum, delSum float64
		for _, lat := range lats {
			delaySum += lat.MeanDelay
			p95Sum += lat.P95Delay
			genSum += float64(lat.Detections)
			delSum += float64(lat.Delivered)
		}
		sum, err := stats.Summarize(mbs)
		if err != nil {
			return nil, err
		}
		pt := LatencyPoint{
			Speed:        speed,
			TourMin:      cfg.PathLength / speed / 60,
			Mb:           sum,
			MeanDelayMin: delaySum / float64(cfg.Trials) / 60,
			P95DelayMin:  p95Sum / float64(cfg.Trials) / 60,
		}
		if genSum > 0 {
			pt.DeliveredPct = 100 * delSum / genSum
		}
		tbl.Points = append(tbl.Points, pt)
	}
	return tbl, nil
}

// WriteCSV emits the latency table.
func (t *LatencyTable) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"speed", "tour_min", "throughput_mb_mean",
		"mean_delay_min", "p95_delay_min", "delivered_pct"}, t.Points, func(p LatencyPoint) []string {
		return []string{
			fmt.Sprintf("%g", p.Speed), fmt.Sprintf("%.1f", p.TourMin),
			fmt.Sprintf("%.4f", p.Mb.Mean),
			fmt.Sprintf("%.2f", p.MeanDelayMin), fmt.Sprintf("%.2f", p.P95DelayMin),
			fmt.Sprintf("%.1f", p.DeliveredPct),
		}
	})
}

// Render prints the latency table.
func (t *LatencyTable) Render(w io.Writer) error {
	fmt.Fprintln(w, "== latency: throughput vs delivery delay across sink speeds (§VII.C trade-off) ==")
	fmt.Fprintf(w, "%8s %10s %14s %12s %12s %11s\n",
		"speed", "tour(min)", "Mb/tour", "delay(min)", "p95(min)", "delivered")
	for _, p := range t.Points {
		fmt.Fprintf(w, "%8g %10.1f %8.2f ±%4.2f %12.1f %12.1f %10.1f%%\n",
			p.Speed, p.TourMin, p.Mb.Mean, p.Mb.CI95, p.MeanDelayMin, p.P95DelayMin, p.DeliveredPct)
	}
	return nil
}
