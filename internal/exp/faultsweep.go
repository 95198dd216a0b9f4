package exp

import (
	"fmt"
	"io"
	"strconv"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/online"
	"mobisink/internal/stats"
)

// FaultPoint is one row of the fault-tolerance study: Online_Appro under
// a uniform message drop rate, with and without the recovery machinery.
type FaultPoint struct {
	Rate      float64
	N         int
	Mb        stats.Summary // with retransmission + schedule repair
	FracIdeal float64       // mean fraction of the fault-free throughput
	FracBare  float64       // same drop rate, recovery disabled (MaxRetries=0)
	Repaired  float64       // mean slots reassigned away from silent sensors
	Lost      float64       // mean slots gone idle despite repair attempts
	Clamps    float64       // mean stale-budget clamps (feasibility guard)
	Retx      float64       // mean extra Probe broadcasts (retransmission rounds)
	RepairTx  float64       // mean unicast schedule-repair messages sent
}

// FaultTable aggregates the sweep.
type FaultTable struct {
	Points []FaultPoint
}

// FaultSweep measures how gracefully Online_Appro degrades when every
// protocol message (Probe, Ack, Schedule, Finish) is dropped with the
// same Bernoulli rate, plus a sprinkling of mid-tour sensor crashes. Each
// rate is run twice per trial: with the self-healing machinery (3
// retransmission rounds, schedule repair, budget clamps) and bare
// (MaxRetries = 0), so the table shows both the damage and the recovery.
func FaultSweep(cfg Config) (*FaultTable, error) {
	cfg = cfg.withDefaults()
	rates := cfg.FaultRates
	if len(rates) == 0 {
		rates = []float64{0, 0.05, 0.2, 0.5}
	}
	const n = 300
	insts, ideal, err := approTours(cfg, n)
	if err != nil {
		return nil, err
	}
	tbl := &FaultTable{}
	for _, rate := range rates {
		var mbs, fracs, bares []float64
		var repaired, lost, clamps, retx, repairTx float64
		for trial, inst := range insts {
			seed := seedFor(cfg.Seed, n, trial)
			if rate == 0 {
				mbs = append(mbs, core.ThroughputMb(ideal[trial].Data))
				if ideal[trial].Data > 0 {
					fracs = append(fracs, 1)
					bares = append(bares, 1)
				}
				continue
			}
			plan := faultPlan(rate, seed, inst.T, len(inst.Sensors))
			res, err := online.RunOpts(inst, &online.Appro{},
				online.Options{Faults: &plan, Seed: seed})
			if err != nil {
				return nil, err
			}
			if err := res.CheckLemma1(); err != nil {
				return nil, fmt.Errorf("exp: lemma 1 violated at rate %g: %w", rate, err)
			}
			bare := plan
			bare.MaxRetries = 0
			bres, err := online.RunOpts(inst, &online.Appro{},
				online.Options{Faults: &bare, Seed: seed})
			if err != nil {
				return nil, err
			}
			mbs = append(mbs, core.ThroughputMb(res.Data))
			if ideal[trial].Data > 0 {
				fracs = append(fracs, res.Data/ideal[trial].Data)
				bares = append(bares, bres.Data/ideal[trial].Data)
			}
			repaired += float64(res.Fault.RepairedSlots)
			lost += float64(res.Fault.LostSlots)
			clamps += float64(res.Fault.BudgetClamps)
			retx += float64(res.Messages.Retransmits)
			repairTx += float64(res.Messages.RepairUnicasts)
		}
		sum, err := stats.Summarize(mbs)
		if err != nil {
			return nil, err
		}
		tbl.Points = append(tbl.Points, FaultPoint{
			Rate: rate, N: n, Mb: sum,
			FracIdeal: stats.Mean(fracs),
			FracBare:  stats.Mean(bares),
			Repaired:  repaired / float64(cfg.Trials),
			Lost:      lost / float64(cfg.Trials),
			Clamps:    clamps / float64(cfg.Trials),
			Retx:      retx / float64(cfg.Trials),
			RepairTx:  repairTx / float64(cfg.Trials),
		})
	}
	return tbl, nil
}

// faultPlan builds the sweep's scenario: a uniform drop rate on all four
// message types, three retransmission rounds, and every 25th sensor down
// for the middle third of the tour.
func faultPlan(rate float64, seed int64, slots, sensors int) fault.Plan {
	p := fault.Plan{
		Seed:         seed,
		DropProbe:    rate,
		DropAck:      rate,
		DropSchedule: rate,
		DropFinish:   rate,
		MaxRetries:   3,
	}
	for i := 0; i < sensors; i += 25 {
		p.Crashes = append(p.Crashes, fault.Crash{Sensor: i, From: slots / 3, To: 2 * slots / 3})
	}
	return p
}

// WriteCSV emits the fault table.
func (t *FaultTable) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"rate", "n", "throughput_mb_mean", "throughput_mb_ci95",
		"fraction_of_ideal", "fraction_no_recovery", "repaired_slots", "lost_slots", "budget_clamps",
		"probe_retransmits", "repair_unicasts"}, t.Points, func(p FaultPoint) []string {
		return []string{
			fmt.Sprintf("%g", p.Rate), strconv.Itoa(p.N),
			fmt.Sprintf("%.4f", p.Mb.Mean), fmt.Sprintf("%.4f", p.Mb.CI95),
			fmt.Sprintf("%.4f", p.FracIdeal), fmt.Sprintf("%.4f", p.FracBare),
			fmt.Sprintf("%.1f", p.Repaired), fmt.Sprintf("%.1f", p.Lost),
			fmt.Sprintf("%.1f", p.Clamps),
			fmt.Sprintf("%.1f", p.Retx), fmt.Sprintf("%.1f", p.RepairTx),
		}
	})
}

// Render prints the fault table.
func (t *FaultTable) Render(w io.Writer) error {
	fmt.Fprintln(w, "== faults: Online_Appro under message loss and sensor crashes (n=300) ==")
	fmt.Fprintf(w, "%6s %6s %14s %10s %10s %9s %6s %7s %6s %8s\n",
		"rate", "n", "Mb/tour", "recovered", "bare", "repaired", "lost", "clamps", "retx", "repairTx")
	for _, p := range t.Points {
		fmt.Fprintf(w, "%6g %6d %8.2f ±%4.2f %9.1f%% %9.1f%% %9.1f %6.1f %7.1f %6.1f %8.1f\n",
			p.Rate, p.N, p.Mb.Mean, p.Mb.CI95, 100*p.FracIdeal, 100*p.FracBare,
			p.Repaired, p.Lost, p.Clamps, p.Retx, p.RepairTx)
	}
	return nil
}
