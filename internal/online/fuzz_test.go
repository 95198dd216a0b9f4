package online

import (
	"math"
	"math/rand"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/energy"
	"mobisink/internal/fault"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

// fuzzInstance builds a small tour (fast enough for the fuzz loop) once.
func fuzzInstance(f *testing.F) *core.Instance {
	f.Helper()
	d, err := network.Generate(network.Params{N: 12, PathLength: 2000, MaxOffset: 120, Seed: 4})
	if err != nil {
		f.Fatal(err)
	}
	h := energy.PaperSolar(energy.Sunny)
	rng := rand.New(rand.NewSource(4))
	if err := d.AssignSteadyStateBudgets(h, 2000/10.0, 0.2, rng); err != nil {
		f.Fatal(err)
	}
	inst, err := core.BuildInstance(d, radio.Paper2013(), 10, 1)
	if err != nil {
		f.Fatal(err)
	}
	return inst
}

// FuzzFaultPlan throws malformed fault plans — NaN and out-of-range drop
// rates, crash windows past the tour end or inverted, shortfalls at
// impossible slots, huge retry counts — at the validator and the online
// runner. Validate and NewInjector must reject garbage without panicking;
// the sanitized plan must run to completion with an invariant-clean
// schedule (Run's internal Validate enforces ≤1 sensor per slot and no
// energy or data overdraw; Lemma 1 is checked here).
func FuzzFaultPlan(f *testing.F) {
	inst := fuzzInstance(f)
	f.Add(int64(1), 0.1, 0.1, 0.1, 0.1, 0.05, 2, 3, 10, 40, 5, 12, 0.5, 1)
	f.Add(int64(7), math.NaN(), -1.0, 2.0, 0.3, 1.5, -3, 99, -5, 1<<30, -1, 1<<29, math.Inf(1), -4)
	f.Add(int64(-9), 1.0, 1.0, 1.0, 1.0, 1.0, 100, 0, 500, 100, 2, 0, -3.0, 7)
	f.Fuzz(func(t *testing.T, seed int64,
		dropProbe, dropAck, dropSchedule, dropFinish, stallProb float64,
		retries, crashSensor, crashFrom, crashTo, sfSensor, sfSlot int,
		sfJoules float64, stallIv int) {
		raw := fault.Plan{
			Seed:         seed,
			DropProbe:    dropProbe,
			DropAck:      dropAck,
			DropSchedule: dropSchedule,
			DropFinish:   dropFinish,
			StallProb:    stallProb,
			MaxRetries:   retries,
			Crashes: []fault.Crash{
				{Sensor: crashSensor, From: crashFrom, To: crashTo},
				// Overlapping recovery windows for the same sensor.
				{Sensor: crashSensor, From: crashFrom - 2, To: crashFrom + 2},
			},
			Shortfalls:     []fault.Shortfall{{Sensor: sfSensor, Slot: sfSlot, Joules: sfJoules}},
			StallIntervals: []int{stallIv, stallIv},
		}
		// Garbage in: reject or accept, never panic.
		rawErr := raw.Validate()
		if _, err := fault.NewInjector(raw, len(inst.Sensors), inst.T); err == nil && rawErr != nil {
			t.Fatalf("injector accepted a plan Validate rejected: %v", rawErr)
		}
		// Sanitized plans must be valid and runnable.
		plan := sanitize(raw, len(inst.Sensors), inst.T)
		if err := plan.Validate(); err != nil {
			t.Fatalf("sanitize produced an invalid plan: %v", err)
		}
		res, err := RunOpts(inst, &Greedy{}, Options{Faults: &plan})
		if err != nil {
			t.Fatalf("sanitized plan failed the tour: %v", err)
		}
		if err := res.CheckLemma1(); err != nil {
			t.Fatal(err)
		}
		for i, r := range res.Residual {
			if r < 0 || math.IsNaN(r) {
				t.Fatalf("sensor %d residual %v after faults", i, r)
			}
		}
	})
}

// retryCap is the MaxRetries cap fault.Plan.Validate enforces.
const retryCap = 8

// sanitize clamps a fuzzed plan into validity for a tour with numSensors
// sensors and T slots, over the fields FuzzFaultPlan sets: probabilities
// into [0,1] (NaN → 0), retries into [0, retryCap], crash windows swapped
// when inverted and clipped to the tour (windows entirely past its end
// dropped), out-of-range sensors dropped, NaN or non-positive shortfalls
// dropped and +Inf ones made finite, negative stall intervals dropped.
func sanitize(p fault.Plan, numSensors, T int) fault.Plan {
	clamp01 := func(v float64) float64 {
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		return min(v, 1)
	}
	q := fault.Plan{
		Seed:         p.Seed,
		DropProbe:    clamp01(p.DropProbe),
		DropAck:      clamp01(p.DropAck),
		DropSchedule: clamp01(p.DropSchedule),
		DropFinish:   clamp01(p.DropFinish),
		StallProb:    clamp01(p.StallProb),
		MaxRetries:   min(max(p.MaxRetries, 0), retryCap),
	}
	for _, c := range p.Crashes {
		if c.To < c.From {
			c.From, c.To = c.To, c.From
		}
		if c.Sensor < 0 || c.Sensor >= numSensors || c.From >= T || c.To < 0 {
			continue
		}
		c.From, c.To = max(c.From, 0), min(c.To, T-1)
		q.Crashes = append(q.Crashes, c)
	}
	for _, s := range p.Shortfalls {
		if s.Sensor < 0 || s.Sensor >= numSensors || math.IsNaN(s.Joules) || s.Joules <= 0 {
			continue
		}
		s.Joules = min(s.Joules, math.MaxFloat64)
		s.Slot = min(max(s.Slot, 0), T-1)
		q.Shortfalls = append(q.Shortfalls, s)
	}
	for _, iv := range p.StallIntervals {
		if iv >= 0 {
			q.StallIntervals = append(q.StallIntervals, iv)
		}
	}
	return q
}

func TestSanitized(t *testing.T) {
	p := fault.Plan{
		Seed:       7,
		DropProbe:  math.NaN(),
		DropAck:    -3,
		DropFinish: 2,
		MaxRetries: 100,
		Crashes: []fault.Crash{
			{Sensor: 0, From: 9, To: 2},    // inverted → swapped → [2,9] clipped to [2,4]
			{Sensor: 1, From: 50, To: 60},  // past tour end → dropped
			{Sensor: 99, From: 0, To: 1},   // unknown sensor → dropped
			{Sensor: 2, From: -3, To: 100}, // clipped to [0,4]
		},
		Shortfalls: []fault.Shortfall{
			{Sensor: 0, Slot: 2, Joules: math.NaN()},  // dropped
			{Sensor: 0, Slot: 80, Joules: 1},          // clamped to last slot
			{Sensor: 1, Slot: 1, Joules: math.Inf(1)}, // finite-ized
			{Sensor: -1, Slot: 0, Joules: 1},          // dropped
			{Sensor: 2, Slot: 3, Joules: -5},          // dropped
		},
		StallIntervals: []int{-1, 3},
	}
	q := sanitize(p, 3, 5)
	if err := q.Validate(); err != nil {
		t.Fatalf("sanitized plan invalid: %v", err)
	}
	if q.DropProbe != 0 || q.DropAck != 0 || q.DropFinish != 1 {
		t.Errorf("probabilities not clamped: %+v", q)
	}
	if q.MaxRetries != retryCap {
		t.Errorf("retries = %d", q.MaxRetries)
	}
	if len(q.Crashes) != 2 || q.Crashes[0] != (fault.Crash{Sensor: 0, From: 2, To: 4}) || q.Crashes[1] != (fault.Crash{Sensor: 2, From: 0, To: 4}) {
		t.Errorf("crashes = %+v", q.Crashes)
	}
	if len(q.Shortfalls) != 2 {
		t.Fatalf("shortfalls = %+v", q.Shortfalls)
	}
	if q.Shortfalls[0].Slot != 4 || q.Shortfalls[1].Joules != math.MaxFloat64 {
		t.Errorf("shortfalls = %+v", q.Shortfalls)
	}
	if len(q.StallIntervals) != 1 || q.StallIntervals[0] != 3 {
		t.Errorf("stalls = %+v", q.StallIntervals)
	}
	// Building an injector from a sanitized plan always succeeds.
	if _, err := fault.NewInjector(q, 3, 5); err != nil {
		t.Fatalf("injector on sanitized plan: %v", err)
	}
	if zero := sanitize(fault.Plan{}, 3, 5); !zero.Zero() {
		t.Error("a zero plan must sanitize to zero")
	}
}
