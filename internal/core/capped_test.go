package core

import (
	"math"
	"testing"

	"mobisink/internal/radio"
)

func TestSetDataCapsValidation(t *testing.T) {
	d := tinyDeployment(t, 3, 40, 1)
	inst, _ := BuildInstance(d, radio.Paper2013(), 30, 1)
	if err := inst.SetDataCaps([]float64{1}); err == nil {
		t.Error("expected length error")
	}
	if err := inst.SetDataCaps([]float64{1, -2, 3}); err == nil {
		t.Error("expected negative error")
	}
	if err := inst.SetDataCaps([]float64{1, math.NaN(), 3}); err == nil {
		t.Error("expected NaN error")
	}
	caps := []float64{1e6, 2e6, 3e6}
	if err := inst.SetDataCaps(caps); err != nil {
		t.Fatal(err)
	}
	// The instance must own a copy.
	caps[0] = 0
	if inst.DataCapOf(0) != 1e6 {
		t.Error("caps not copied")
	}
	if err := inst.SetDataCaps(nil); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(inst.DataCapOf(0), 1) {
		t.Error("nil caps must mean unbounded")
	}
}

func TestRateQuantumBits(t *testing.T) {
	d := tinyDeployment(t, 3, 41, 1)
	inst, _ := BuildInstance(d, radio.Paper2013(), 30, 1)
	// gcd(250000, 19200, 9600, 4800) · τ=1 → 400 bits (whichever tiers
	// appear, the quantum divides them all).
	q := inst.RateQuantumBits()
	if q <= 0 {
		t.Fatalf("quantum = %v", q)
	}
	for i := range inst.Sensors {
		s := &inst.Sensors[i]
		for j := s.Start; s.Start >= 0 && j <= s.End; j++ {
			r := s.RateAt(j)
			if r <= 0 {
				continue
			}
			k := r * inst.Tau / q
			if math.Abs(k-math.Round(k)) > 1e-9 {
				t.Fatalf("quantum %v does not divide %v", q, r*inst.Tau)
			}
		}
	}
}

func TestOfflineSequentialUncapped(t *testing.T) {
	for seed := int64(50); seed < 56; seed++ {
		d := tinyDeployment(t, 3, seed, 0.7)
		inst, _ := BuildInstance(d, radio.Paper2013(), 30, 1)
		a, err := OfflineSequential(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Validate(a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Sequential with an exact oracle is a 1/2-approximation for
		// separable assignment; verify against the exhaustive optimum.
		opt := optimum(t, inst)
		if a.Data < opt/2-1e-9 {
			t.Fatalf("seed %d: sequential %v below OPT/2 = %v", seed, a.Data, opt/2)
		}
	}
	if _, err := OfflineSequential(nil, Options{}); err == nil {
		t.Error("expected nil error")
	}
}

func TestOfflineSequentialCapped(t *testing.T) {
	d := tinyDeployment(t, 3, 60, 5)
	inst, _ := BuildInstance(d, radio.Paper2013(), 30, 1)
	free, err := OfflineSequential(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cap every sensor to roughly half of what it uploaded uncapped.
	per := make([]float64, len(inst.Sensors))
	for j, i := range free.SlotOwner {
		if i >= 0 {
			per[i] += inst.Sensors[i].RateAt(j) * inst.Tau
		}
	}
	caps := make([]float64, len(per))
	for i, v := range per {
		caps[i] = v / 2
	}
	if err := inst.SetDataCaps(caps); err != nil {
		t.Fatal(err)
	}
	capped, err := OfflineSequential(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Validate(capped); err != nil {
		t.Fatalf("capped allocation violates caps: %v", err)
	}
	if capped.Data > free.Data+1e-6 {
		t.Errorf("caps increased total: %v vs %v", capped.Data, free.Data)
	}
	// validateDataCaps must reject the uncapped allocation under the caps
	// whenever some sensor actually exceeds its cap.
	anyExceeds := false
	for i, v := range per {
		if v > caps[i]+1e-6 {
			anyExceeds = true
		}
	}
	if anyExceeds {
		if _, err := inst.Validate(free); err == nil {
			t.Error("expected data-cap violation for the uncapped allocation")
		}
	}
}

func TestWindowSizeEmpty(t *testing.T) {
	s := SensorSlots{Start: -1, End: -1}
	if s.WindowSize() != 0 {
		t.Error("empty window size")
	}
}
