// Package energy models renewable-energy replenishment for sensor nodes.
//
// Each sensor is powered by a small solar panel feeding a finite battery
// (paper §II.B): the stored energy at the start of tour j evolves as
//
//	P_j(v) = min{ P_{j-1}(v) + Q_{j-1}(v) − O_{j-1}(v), B(v) }
//
// where Q is the energy harvested and O the energy consumed during tour
// j−1. Under the perpetual-operation policy the per-tour energy budget is
// exactly the stored energy P_j(v).
//
// The paper drives Q from real solar-radiation measurements (its ref. [14])
// which are not publicly available; this package substitutes a synthetic
// diurnal solar model calibrated to the two 48-hour energy totals the paper
// publishes for a 37×37 mm panel: 655.15 mWh on a sunny day and 313.70 mWh
// on a partly cloudy day. The substitution preserves the quantity the
// algorithms actually consume — the per-tour harvested energy and its
// variability across sensors and times of day. The package has no trace
// loader: one belongs with recorded traces in the repository and a caller
// that replays them.
package energy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Physical calibration constants derived from the paper's §VII.A numbers.
const (
	// ReferencePanelAreaMM2 is the measured panel area (37 mm × 37 mm).
	ReferencePanelAreaMM2 = 37.0 * 37.0
	// PaperPanelAreaMM2 is the experiment panel area (10 mm × 10 mm).
	PaperPanelAreaMM2 = 10.0 * 10.0
	// SunnyEnergy48hJ is 655.15 mWh in Joules (×3.6).
	SunnyEnergy48hJ = 655.15 * 3.6
	// PartlyCloudyEnergy48hJ is 313.70 mWh in Joules.
	PartlyCloudyEnergy48hJ = 313.70 * 3.6
	// PaperBatteryCapacityJ is the battery capacity used in the paper.
	PaperBatteryCapacityJ = 10000.0

	// Diurnal cycle geometry of the synthetic model.
	secondsPerDay = 86400.0
	sunriseSec    = 6 * 3600.0
	sunsetSec     = 18 * 3600.0
)

// Condition selects the calibrated sky condition.
type Condition int

// Supported sky conditions.
const (
	Sunny Condition = iota
	PartlyCloudy
)

// String implements fmt.Stringer.
func (c Condition) String() string {
	switch c {
	case Sunny:
		return "sunny"
	case PartlyCloudy:
		return "partly-cloudy"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Harvester produces instantaneous harvested power as a function of absolute
// simulation time (seconds; time 0 is local midnight).
type Harvester interface {
	// Power returns the harvested power at time t, in Watts.
	Power(t float64) float64
	// EnergyBetween returns the energy harvested over [t0, t1], in Joules.
	EnergyBetween(t0, t1 float64) float64
}

// Constant is a Harvester with a fixed harvest rate, useful for tests and
// steady-state analyses.
type Constant struct {
	P float64 // Watts
}

// Power implements Harvester.
func (c Constant) Power(float64) float64 { return c.P }

// EnergyBetween implements Harvester.
func (c Constant) EnergyBetween(t0, t1 float64) float64 {
	if t1 < t0 {
		return 0
	}
	return c.P * (t1 - t0)
}

// Solar is the calibrated diurnal harvester: a half-sine irradiance profile
// between sunrise and sunset, scaled so that a panel of the reference area
// collects exactly the paper's published 48-hour totals.
type Solar struct {
	peak float64 // peak harvested power at solar noon, W
}

// NewSolar builds a solar harvester for a panel of areaMM2 square
// millimeters under the given sky condition, with an additional efficiency
// multiplier (1.0 = nominal; use <1 for suboptimal orientation, dirt, aging).
func NewSolar(areaMM2 float64, cond Condition, efficiency float64) (*Solar, error) {
	if areaMM2 <= 0 {
		return nil, fmt.Errorf("energy: panel area must be positive, got %v", areaMM2)
	}
	if efficiency <= 0 || efficiency > 1 {
		return nil, fmt.Errorf("energy: efficiency must be in (0,1], got %v", efficiency)
	}
	var total48h float64
	switch cond {
	case Sunny:
		total48h = SunnyEnergy48hJ
	case PartlyCloudy:
		total48h = PartlyCloudyEnergy48hJ
	default:
		return nil, fmt.Errorf("energy: unknown condition %v", cond)
	}
	// Two diurnal half-sine humps over 48 h, each with daylight length D:
	//   total = 2 · peakRef · (2/π) · D   ⇒   peakRef = total·π/(4D)
	dayLen := sunsetSec - sunriseSec
	peakRef := total48h * math.Pi / (4 * dayLen)
	peak := peakRef * (areaMM2 / ReferencePanelAreaMM2) * efficiency
	return &Solar{peak: peak}, nil
}

// PaperSolar returns the default experiment harvester: the paper's 10×10 mm
// panel at nominal efficiency.
func PaperSolar(cond Condition) *Solar {
	s, err := NewSolar(PaperPanelAreaMM2, cond, 1.0)
	if err != nil {
		panic("energy: PaperSolar: " + err.Error())
	}
	return s
}

// Peak returns the harvested power at solar noon, in Watts.
func (s *Solar) Peak() float64 { return s.peak }

// Power implements Harvester.
func (s *Solar) Power(t float64) float64 {
	tod := math.Mod(t, secondsPerDay)
	if tod < 0 {
		tod += secondsPerDay
	}
	if tod < sunriseSec || tod > sunsetSec {
		return 0
	}
	p := s.peak * math.Sin(math.Pi*(tod-sunriseSec)/(sunsetSec-sunriseSec))
	if p < 0 {
		return 0 // sin rounding noise at the day boundaries
	}
	return p
}

// EnergyBetween implements Harvester analytically (exact integral of the
// half-sine profile, day boundaries included).
func (s *Solar) EnergyBetween(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	dayLen := sunsetSec - sunriseSec
	// Integral of peak·sin(π(x−sunrise)/D) dx from a to b within one day.
	dayIntegral := func(a, b float64) float64 {
		a = math.Max(a, sunriseSec)
		b = math.Min(b, sunsetSec)
		if b <= a {
			return 0
		}
		k := math.Pi / dayLen
		return s.peak / k * (math.Cos(k*(a-sunriseSec)) - math.Cos(k*(b-sunriseSec)))
	}
	total := 0.0
	day0 := math.Floor(t0 / secondsPerDay)
	day1 := math.Floor((t1 - 1e-9) / secondsPerDay)
	for d := day0; d <= day1; d++ {
		a := math.Max(t0, d*secondsPerDay) - d*secondsPerDay
		b := math.Min(t1, (d+1)*secondsPerDay) - d*secondsPerDay
		total += dayIntegral(a, b)
	}
	return total
}

// Noisy wraps a Harvester with smooth multiplicative cloud noise: a mean-
// reverting random factor in [Min, 1] resampled every Period seconds and
// linearly interpolated, deterministic per seed. It models the fast,
// uncontrollable fluctuations the paper attributes to energy-harvesting
// sources while keeping runs reproducible.
type Noisy struct {
	Base   Harvester
	Min    float64 // lower bound of the attenuation factor, in [0,1)
	Period float64 // seconds between resampled attenuation knots

	seed int64
}

// NewNoisy validates and builds the wrapper.
func NewNoisy(base Harvester, min, period float64, seed int64) (*Noisy, error) {
	if base == nil {
		return nil, errors.New("energy: nil base harvester")
	}
	if min < 0 || min >= 1 {
		return nil, fmt.Errorf("energy: noise floor must be in [0,1), got %v", min)
	}
	if period <= 0 {
		return nil, fmt.Errorf("energy: noise period must be positive, got %v", period)
	}
	return &Noisy{Base: base, Min: min, Period: period, seed: seed}, nil
}

// factorAt returns the attenuation at knot index k (deterministic in k).
func (n *Noisy) factorAt(k int64) float64 {
	const mix = int64(-0x61c8864680b583eb) // golden-ratio mixing constant
	r := rand.New(rand.NewSource(n.seed ^ k*mix))
	return n.Min + (1-n.Min)*r.Float64()
}

// attenuation returns the interpolated attenuation factor at time t.
func (n *Noisy) attenuation(t float64) float64 {
	k := math.Floor(t / n.Period)
	frac := t/n.Period - k
	a := n.factorAt(int64(k))
	b := n.factorAt(int64(k) + 1)
	return a + (b-a)*frac
}

// Power implements Harvester.
func (n *Noisy) Power(t float64) float64 {
	return n.Base.Power(t) * n.attenuation(t)
}

// EnergyBetween implements Harvester by trapezoidal integration at a
// resolution finer than both the noise period and the diurnal profile.
func (n *Noisy) EnergyBetween(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	step := math.Min(n.Period/4, 300)
	steps := int(math.Ceil((t1 - t0) / step))
	if steps < 1 {
		steps = 1
	}
	h := (t1 - t0) / float64(steps)
	total := 0.0
	prev := n.Power(t0)
	for i := 1; i <= steps; i++ {
		cur := n.Power(t0 + float64(i)*h)
		total += (prev + cur) / 2 * h
		prev = cur
	}
	return total
}

// Battery is a finite energy store with capacity B. The zero value is a
// zero-capacity battery; use NewBattery.
type Battery struct {
	capacity float64
	level    float64
}

// NewBattery returns a battery with the given capacity and initial level
// (both Joules). The initial level is clamped to [0, capacity].
func NewBattery(capacity, initial float64) (*Battery, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("energy: battery capacity must be positive, got %v", capacity)
	}
	b := &Battery{capacity: capacity}
	b.level = clamp(initial, 0, capacity)
	return b, nil
}

// Capacity returns B in Joules.
func (b *Battery) Capacity() float64 { return b.capacity }

// Level returns the currently stored energy in Joules.
func (b *Battery) Level() float64 { return b.level }

// Charge adds e Joules, clipping at capacity, and returns the energy
// actually stored (the rest is wasted — the battery is full).
func (b *Battery) Charge(e float64) float64 {
	if e < 0 {
		return 0
	}
	stored := math.Min(e, b.capacity-b.level)
	b.level += stored
	return stored
}

// Discharge removes e Joules and reports whether the battery held enough;
// if not, the level is unchanged and false is returned.
func (b *Battery) Discharge(e float64) bool {
	if e < 0 {
		return false
	}
	if e > b.level+1e-12 {
		return false
	}
	b.level = math.Max(0, b.level-e)
	return true
}

// Account tracks the per-tour energy recurrence of paper §II.B for one
// sensor: budgets are read at tour starts, consumption is debited, and
// harvest is credited between tour starts.
type Account struct {
	Battery   *Battery
	Harvester Harvester
	now       float64
}

// NewAccount starts an account at absolute time start (seconds).
func NewAccount(b *Battery, h Harvester, start float64) (*Account, error) {
	if b == nil || h == nil {
		return nil, errors.New("energy: account needs battery and harvester")
	}
	return &Account{Battery: b, Harvester: h, now: start}, nil
}

// Now returns the account's current absolute time.
func (a *Account) Now() float64 { return a.now }

// Budget returns the energy available for the tour starting now: the stored
// level P_j(v).
func (a *Account) Budget() float64 { return a.Battery.Level() }

// EndTour advances time to the next tour start, debiting the energy consumed
// during the elapsed tour and crediting the harvest over the full period.
// consumed must not exceed the budget returned by Budget; if it does,
// EndTour returns an error and leaves the account unchanged.
func (a *Account) EndTour(duration, consumed float64) error {
	if duration <= 0 {
		return fmt.Errorf("energy: tour duration must be positive, got %v", duration)
	}
	if consumed < 0 {
		return fmt.Errorf("energy: negative consumption %v", consumed)
	}
	if !a.Battery.Discharge(consumed) {
		return fmt.Errorf("energy: consumption %v exceeds stored %v", consumed, a.Battery.Level())
	}
	a.Battery.Charge(a.Harvester.EnergyBetween(a.now, a.now+duration))
	a.now += duration
	return nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
