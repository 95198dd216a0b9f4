package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/fault"
	"mobisink/internal/gap"
	"mobisink/internal/knapsack"
	"mobisink/internal/radio"
)

// seqRef is the differential reference for Sequential: Online_Sequential
// as it ran before the GAP engine's sequential pass took it over. Per
// claim, in claim order, it lists the still unclaimed slots of the clip
// range afresh and packs them with a per-call knapsack oracle.
type seqRef struct{ opts core.Options }

func (s *seqRef) Name() string   { return "Online_Sequential_Reference" }
func (s *seqRef) CapAware() bool { return true }

func (s *seqRef) Schedule(ctx context.Context, inst *core.Instance, iv Interval, regs []Registration) (map[int]int, error) {
	assign := make(map[int]int)
	var profit, weight []float64
	var slots []int
	for _, k := range claimOrder(regs, nil) {
		r := regs[k]
		sen := &inst.Sensors[r.Sensor]
		profit, weight, slots = profit[:0], weight[:0], slots[:0]
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			if _, taken := assign[j]; taken {
				continue
			}
			if rate, pw := sen.RateAt(j), sen.PowerAt(j); rate > 0 && pw > 0 {
				profit, weight = append(profit, rate*inst.Tau), append(weight, pw*inst.Tau)
				slots = append(slots, j)
			}
		}
		picks, err := s.pack(ctx, inst, profit, weight, r.Budget, r.DataLeft)
		if err != nil {
			return nil, err
		}
		for _, p := range picks {
			assign[slots[p]] = r.Sensor
		}
	}
	return assign, nil
}

// pack is the reference's per-call oracle: with a finite data cap the
// doubly constrained DP at the rate quantum; else the exact DP at the
// weight quantum the options choose, candidates heavier than the capacity
// dropped first; else the FPTAS. It returns the picked positions,
// ascending.
func (s *seqRef) pack(ctx context.Context, inst *core.Instance, profit, weight []float64, capacity, dataCap float64) ([]int32, error) {
	a := knapsack.NewArena()
	if !math.IsInf(dataCap, 1) {
		picks, _, err := a.MaxProfitUnderFlat(ctx, profit, weight, capacity, dataCap, inst.RateQuantumBits())
		return picks, err
	}
	q, eps := s.opts.Oracle(inst)
	if q == 0 {
		picks, _, err := a.FPTASFlat(ctx, eps, profit, weight, capacity)
		return picks, err
	}
	var prof []float64
	var wq, remap []int32
	for i := range profit {
		if profit[i] > 0 && weight[i] <= capacity {
			prof = append(prof, profit[i])
			wq = append(wq, knapsack.QuantizeWeight(weight[i], q))
			remap = append(remap, int32(i))
		}
	}
	picks, _, err := a.DPFlat(ctx, prof, wq, int(knapsack.QuantizeCapacity(capacity, q)))
	for x, p := range picks {
		picks[x] = remap[p]
	}
	return picks, err
}

// TestSequentialMatchesReference: Online_Sequential on the GAP engine's
// sequential pass runs every tour exactly as the reference scheduler does
// — uncapped and capped, exact DP and forced FPTAS, with and without a
// fault plan that stalls intervals, drops messages and crashes sensors.
func TestSequentialMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, capped := range []bool{false, true} {
			inst := paperInstance(t, 60, seed, radio.Paper2013(), 5, 1)
			if capped {
				caps := make([]float64, len(inst.Sensors))
				for i := range caps {
					caps[i] = float64(i%5) * 100e3
				}
				if err := inst.SetDataCaps(caps); err != nil {
					t.Fatal(err)
				}
			}
			for _, opts := range []core.Options{{}, {ForceFPTAS: true, Eps: 0.5}} {
				for _, faulty := range []bool{false, true} {
					var run Options
					if faulty {
						run.Faults = &fault.Plan{
							Seed: seed, DropProbe: 0.1, DropAck: 0.1, DropSchedule: 0.1, DropFinish: 0.1,
							StallProb: 0.1, MaxRetries: 2,
							Crashes: []fault.Crash{{Sensor: 3, From: 100, To: 900}},
						}
					}
					label := fmt.Sprintf("seed=%d capped=%v %+v faulty=%v", seed, capped, opts, faulty)
					want, err := RunOpts(inst, &seqRef{opts}, run)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got, err := RunOpts(inst, &Sequential{Opts: opts}, run)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameAlloc(t, label, want, got)
					if got.Data <= 0 {
						t.Fatalf("%s: collected nothing", label)
					}
					if faulty && got.Fault.DegradedIntervals == 0 {
						t.Fatalf("%s: no interval stalled", label)
					}
				}
			}
		}
	}
}

// TestSequentialRejectsBadEps: an out-of-range eps is a typed error from
// the engine's Builder, not a panic in the FPTAS kernel.
func TestSequentialRejectsBadEps(t *testing.T) {
	inst := paperInstance(t, 20, 1, radio.Paper2013(), 5, 1)
	_, err := Run(inst, &Sequential{Opts: core.Options{ForceFPTAS: true, Eps: 1.5}})
	if !errors.Is(err, gap.ErrBadEps) {
		t.Fatalf("got %v, want gap.ErrBadEps", err)
	}
}
