package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mobisink/internal/fault"
	"mobisink/internal/mac"
	"mobisink/internal/sim"
)

// This file is the self-healing variant of the protocol loop: it runs only
// when Options enables fault injection (or a compute deadline), so the
// fault-free path in online.go stays byte-identical to the paper's
// idealized protocol. Recovery mechanisms, in protocol order:
//
//   1. bounded Probe/Ack retransmission — sensors that missed the Probe or
//      whose Ack was lost get up to Plan.MaxRetries extra registration
//      rounds (each costs one Probe broadcast plus the stragglers' Acks);
//   2. budget feasibility guard — a sensor that missed a Finish broadcast
//      re-registers with a stale (undebited) budget; Ledger.Admit clamps
//      the claim against the sink's ledger so a stale registration can
//      never overdraw the physical budget;
//   3. degraded mode — an interval whose scheduler blows its compute
//      deadline (injected via Plan.StallProb/StallIntervals, or measured
//      against Options.ComputeDeadline) is planned by Ledger.Plan's
//      fallback scheduler instead of idling;
//   4. schedule repair — when a scheduled sensor goes silent (crashed or
//      deaf to the Schedule broadcast), Ledger.Commit loses one slot
//      detecting it, then reassigns the sensor's remaining slots to the
//      next-best registered sensor (see ledger.go). This file supplies the
//      fault plan's answers to the commit's questions (faultLoss).

// faultState carries the per-tour recovery bookkeeping.
type faultState struct {
	inj   *fault.Injector
	stats *fault.Stats
	// reported[i] is sensor i's own budget bookkeeping: it debits on
	// Finish receipt (paper protocol), so a jammed Finish leaves it stale
	// above the physical residual until the next delivered Finish.
	reported []float64
	// deficitApplied[i] is the cumulative harvest shortfall already
	// written off sensor i's budgets.
	deficitApplied []float64
}

// newFaultState builds the recovery bookkeeping for one tour.
func newFaultState(inj *fault.Injector, res *Result) *faultState {
	return &faultState{
		inj:            inj,
		stats:          &fault.Stats{},
		reported:       append([]float64(nil), res.Residual...),
		deficitApplied: make([]float64, len(res.Residual)),
	}
}

// faultLoss answers the commit's questions about one interval from the
// fault plan's pure rolls.
type faultLoss struct {
	inj *fault.Injector
	eng *sim.Engine
	iv  int
}

func (f *faultLoss) Deaf(sensor int) bool        { return !f.inj.ScheduleHeard(f.iv, sensor) }
func (f *faultLoss) Alive(sensor, slot int) bool { return f.inj.Alive(sensor, slot) }

// Repair rides the Schedule channel, so it is subject to the same drop
// rate; the unicast is sent whether or not it lands.
func (f *faultLoss) Repair(slot, sensor int) bool {
	f.eng.Count("repair", 1)
	return !f.inj.RepairLost(f.iv, sensor, slot)
}

// finishFilter is the discrete-event hook dropping jammed Finish
// broadcasts; it consults the same pure roll as the budget bookkeeping,
// so both layers agree on which intervals lost their Finish.
func (fs *faultState) finishFilter(name string, _ float64) bool {
	var j int
	if _, err := fmt.Sscanf(name, "finish-%d", &j); err == nil {
		return !fs.inj.FinishJammed(j)
	}
	return true
}

// runIntervalFaulty is runInterval under the fault plan: the same
// probe → ack → schedule → transmit → finish cycle, with drops injected
// and the recovery protocol active.
func runIntervalFaulty(ctx context.Context, eng *sim.Engine, led *Ledger, iv Interval, opts Options, contention *rand.Rand, fs *faultState) error {
	inst, res := led.inst, led.res
	inj, st := fs.inj, fs.stats

	// Harvest shortfalls discovered by this interval's start are written
	// off both the physical residual and the sensor's own bookkeeping
	// (the sensor meters its own harvester; mid-interval shortfalls are
	// quantized to the next interval boundary).
	for i := range inst.Sensors {
		d := inj.Deficit(i, iv.Start) - fs.deficitApplied[i]
		if d <= 0 {
			continue
		}
		fs.deficitApplied[i] += d
		res.Residual[i] = math.Max(0, res.Residual[i]-d)
		fs.reported[i] = math.Max(0, fs.reported[i]-d)
		st.ShortfallJoules += d
	}

	sinkPos := inst.Traj.PosAtSlotStart(iv.Start)
	var inRange []int
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		if s.Start < 0 || sinkPos.Dist(s.Pos) > inst.Range {
			continue
		}
		if !inj.Alive(i, iv.Start) {
			st.CrashSilences++
			continue
		}
		inRange = append(inRange, i)
	}

	// Registration with bounded retransmission: round 0 is the paper's
	// exchange; every extra round re-probes the sensors still missing.
	registered := make(map[int]bool, len(inRange))
	for attempt := 0; attempt <= inj.MaxRetries(); attempt++ {
		var pending []int
		for _, i := range inRange {
			if !registered[i] {
				pending = append(pending, i)
			}
		}
		if len(pending) == 0 {
			if attempt == 0 {
				eng.Count("probe", 1) // the sink probes even an empty cell
			}
			break
		}
		// Retransmit rounds are tallied apart from the paper's per-interval
		// probe so MessageStats separates baseline from recovery traffic.
		if attempt > 0 {
			st.ProbeRetransmissions++
			eng.Count("probe-retransmit", 1)
		} else {
			eng.Count("probe", 1)
		}
		var hearers []int
		for _, i := range pending {
			if !inj.ProbeHeard(iv.Index, i, attempt) {
				st.ProbesDropped++
				continue
			}
			hearers = append(hearers, i)
		}
		// Stats.AcksLost counts injected erasures only; contention
		// collisions are channel physics and stay in the engine's
		// "ack-lost" counter, same as the fault-free path.
		heard := make([]bool, len(hearers))
		if contention != nil && opts.AckWindow > 0 {
			a := attempt
			ok, err := mac.CSMAWindowLossy(len(hearers), opts.AckWindow, contention,
				func(k, try int) bool {
					if inj.AckLost(iv.Index, hearers[k], a<<20|try) {
						st.AcksLost++
						return true
					}
					return false
				})
			if err != nil {
				return err
			}
			heard = ok
		} else {
			for k, i := range hearers {
				lost := inj.AckLost(iv.Index, i, attempt<<20)
				if lost {
					st.AcksLost++
				}
				heard[k] = !lost
			}
		}
		for k, i := range hearers {
			eng.Count("ack", 1)
			if !heard[k] {
				eng.Count("ack-lost", 1)
				continue
			}
			registered[i] = true
		}
	}

	// Canonical registration order (sensor index) regardless of which
	// round an Ack landed in. Each sensor claims its own bookkeeping's
	// budget, which a jammed Finish left stale; the ledger clamps it.
	var regs []Registration
	for _, i := range inRange {
		if registered[i] {
			regs = append(regs, claim(inst, iv, i, fs.reported[i], res.ResidualData[i]))
		}
	}
	err := closeInterval(ctx, eng, led, iv, regs, &faultLoss{inj: inj, eng: eng, iv: iv.Index})
	if err != nil || len(regs) == 0 {
		return err
	}
	// Finish broadcast: the discrete-event filter drops it when jammed;
	// the sensors that heard it sync their bookkeeping to the physical
	// residual (their debit), the rest stay stale for the guard to catch.
	if inj.FinishJammed(iv.Index) {
		st.FinishesJammed++
	} else {
		for _, r := range regs {
			fs.reported[r.Sensor] = res.Residual[r.Sensor]
		}
	}
	return nil
}
