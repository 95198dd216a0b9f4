package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstantHarvester(t *testing.T) {
	c := Constant{P: 0.002}
	if got := c.Power(12345); got != 0.002 {
		t.Errorf("Power = %v", got)
	}
	if got := c.EnergyBetween(100, 1100); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("EnergyBetween = %v, want 2", got)
	}
	if got := c.EnergyBetween(100, 50); got != 0 {
		t.Errorf("EnergyBetween backwards = %v, want 0", got)
	}
}

func TestNewSolarValidation(t *testing.T) {
	if _, err := NewSolar(0, Sunny, 1); err == nil {
		t.Error("expected error for zero area")
	}
	if _, err := NewSolar(100, Sunny, 0); err == nil {
		t.Error("expected error for zero efficiency")
	}
	if _, err := NewSolar(100, Sunny, 1.5); err == nil {
		t.Error("expected error for efficiency > 1")
	}
	if _, err := NewSolar(100, Condition(42), 1); err == nil {
		t.Error("expected error for unknown condition")
	}
}

// The calibration contract: a reference-area panel must collect exactly the
// paper's published 48-hour totals.
func TestSolarCalibration(t *testing.T) {
	cases := []struct {
		cond Condition
		want float64
	}{
		{Sunny, SunnyEnergy48hJ},
		{PartlyCloudy, PartlyCloudyEnergy48hJ},
	}
	for _, c := range cases {
		s, err := NewSolar(ReferencePanelAreaMM2, c.cond, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		got := s.EnergyBetween(0, 48*3600)
		if math.Abs(got-c.want)/c.want > 1e-9 {
			t.Errorf("%v: 48h energy = %v J, want %v J", c.cond, got, c.want)
		}
	}
}

func TestPaperSolarAverageAboutOneMilliwatt(t *testing.T) {
	s := PaperSolar(Sunny)
	avg := s.EnergyBetween(0, 48*3600) / (48 * 3600)
	// 655.15 mWh scaled by 100/1369 over 48 h ≈ 0.997 mW average.
	if avg < 0.0009 || avg > 0.0011 {
		t.Errorf("average harvest = %v W, want ~1 mW", avg)
	}
}

func TestSolarNightIsDark(t *testing.T) {
	s := PaperSolar(Sunny)
	for _, tm := range []float64{0, 3 * 3600, 5.99 * 3600, 18.01 * 3600, 23 * 3600, secondsPerDay + 2*3600} {
		if got := s.Power(tm); got != 0 {
			t.Errorf("Power(%v) = %v, want 0 at night", tm, got)
		}
	}
	noon := 12 * 3600.0
	if got := s.Power(noon); math.Abs(got-s.Peak()) > 1e-12 {
		t.Errorf("Power(noon) = %v, want peak %v", got, s.Peak())
	}
	if s.Power(noon+secondsPerDay) != s.Power(noon) {
		t.Error("profile must repeat daily")
	}
	if s.Power(-2*3600) != s.Power(22*3600) {
		t.Error("negative times must wrap")
	}
}

// Property: the analytic integral matches numeric integration.
func TestSolarEnergyMatchesNumeric(t *testing.T) {
	s := PaperSolar(PartlyCloudy)
	f := func(aRaw, bRaw uint32) bool {
		t0 := float64(aRaw % 172800)
		t1 := t0 + float64(bRaw%90000)
		analytic := s.EnergyBetween(t0, t1)
		numeric := 0.0
		// The trapezoid's error sits in the step holding a sunrise or
		// sunset kink; steps must be short enough to keep it under the
		// tolerance when the window holds only a sliver of daylight.
		steps := 20000
		h := (t1 - t0) / float64(steps)
		if h == 0 {
			return analytic == 0
		}
		prev := s.Power(t0)
		for i := 1; i <= steps; i++ {
			cur := s.Power(t0 + float64(i)*h)
			numeric += (prev + cur) / 2 * h
			prev = cur
		}
		tol := math.Max(1e-6, numeric*1e-3)
		return math.Abs(analytic-numeric) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolarEnergyAdditive(t *testing.T) {
	s := PaperSolar(Sunny)
	a := s.EnergyBetween(0, 30000)
	b := s.EnergyBetween(30000, 90000)
	whole := s.EnergyBetween(0, 90000)
	if math.Abs(a+b-whole) > 1e-9 {
		t.Errorf("additivity violated: %v + %v != %v", a, b, whole)
	}
}

func TestNoisyHarvester(t *testing.T) {
	base := PaperSolar(Sunny)
	n, err := NewNoisy(base, 0.4, 600, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Noise bounded: base·0.4 ≤ noisy ≤ base.
	for tm := 0.0; tm < secondsPerDay; tm += 977 {
		p := n.Power(tm)
		b := base.Power(tm)
		if p < b*0.4-1e-12 || p > b+1e-12 {
			t.Fatalf("Power(%v) = %v outside [%v, %v]", tm, p, b*0.4, b)
		}
	}
	// Determinism per seed.
	n2, _ := NewNoisy(base, 0.4, 600, 7)
	if n.Power(43210) != n2.Power(43210) {
		t.Error("same seed must give same noise")
	}
	n3, _ := NewNoisy(base, 0.4, 600, 8)
	same := true
	for tm := 30000.0; tm < 50000; tm += 500 {
		if n.Power(tm) != n3.Power(tm) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different noise")
	}
	// Energy integral bounded by base integral.
	e := n.EnergyBetween(0, secondsPerDay)
	eb := base.EnergyBetween(0, secondsPerDay)
	if e <= 0 || e > eb {
		t.Errorf("noisy energy %v outside (0, %v]", e, eb)
	}
	if got := n.EnergyBetween(10, 10); got != 0 {
		t.Errorf("empty interval energy = %v", got)
	}
}

func TestNewNoisyValidation(t *testing.T) {
	if _, err := NewNoisy(nil, 0.5, 60, 1); err == nil {
		t.Error("expected error for nil base")
	}
	if _, err := NewNoisy(Constant{1}, 1.0, 60, 1); err == nil {
		t.Error("expected error for min >= 1")
	}
	if _, err := NewNoisy(Constant{1}, -0.1, 60, 1); err == nil {
		t.Error("expected error for negative min")
	}
	if _, err := NewNoisy(Constant{1}, 0.5, 0, 1); err == nil {
		t.Error("expected error for zero period")
	}
}

func TestBattery(t *testing.T) {
	if _, err := NewBattery(0, 0); err == nil {
		t.Error("expected error for zero capacity")
	}
	b, err := NewBattery(100, 150)
	if err != nil {
		t.Fatal(err)
	}
	if b.Level() != 100 {
		t.Errorf("initial level clamped: got %v", b.Level())
	}
	if b.Capacity() != 100 {
		t.Errorf("capacity = %v", b.Capacity())
	}
	if !b.Discharge(30) || b.Level() != 70 {
		t.Errorf("after discharge level = %v", b.Level())
	}
	if b.Discharge(71) {
		t.Error("over-discharge must fail")
	}
	if b.Level() != 70 {
		t.Error("failed discharge must not change level")
	}
	if stored := b.Charge(50); stored != 30 || b.Level() != 100 {
		t.Errorf("charge clipped: stored %v level %v", stored, b.Level())
	}
	if stored := b.Charge(-5); stored != 0 {
		t.Error("negative charge must be ignored")
	}
	if b.Discharge(-5) {
		t.Error("negative discharge must fail")
	}
}

func TestAccountRecurrence(t *testing.T) {
	b, _ := NewBattery(10, 4)
	h := Constant{P: 0.001} // 1 mW
	a, err := NewAccount(b, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Budget() != 4 {
		t.Errorf("initial budget = %v", a.Budget())
	}
	// Tour of 2000 s consuming 3 J: P_next = min(4 - 3 + 2, 10) = 3.
	if err := a.EndTour(2000, 3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Budget()-3) > 1e-9 {
		t.Errorf("budget after tour = %v, want 3", a.Budget())
	}
	if a.Now() != 2000 {
		t.Errorf("Now = %v", a.Now())
	}
	// Battery cap: long idle period overfills and clips at capacity.
	if err := a.EndTour(100000, 0); err != nil {
		t.Fatal(err)
	}
	if a.Budget() != 10 {
		t.Errorf("budget must clip at capacity, got %v", a.Budget())
	}
	// Over-consumption rejected.
	if err := a.EndTour(100, 11); err == nil {
		t.Error("expected error when consumption exceeds stored energy")
	}
	if err := a.EndTour(-1, 0); err == nil {
		t.Error("expected error for non-positive duration")
	}
	if err := a.EndTour(100, -1); err == nil {
		t.Error("expected error for negative consumption")
	}
}

func TestNewAccountValidation(t *testing.T) {
	b, _ := NewBattery(10, 4)
	if _, err := NewAccount(nil, Constant{1}, 0); err == nil {
		t.Error("expected error for nil battery")
	}
	if _, err := NewAccount(b, nil, 0); err == nil {
		t.Error("expected error for nil harvester")
	}
}

func TestConditionString(t *testing.T) {
	if Sunny.String() != "sunny" || PartlyCloudy.String() != "partly-cloudy" {
		t.Error("condition names wrong")
	}
	if Condition(9).String() == "" {
		t.Error("unknown condition must still format")
	}
}
