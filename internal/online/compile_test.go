package online

import (
	"math"
	"slices"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/gap"
	"mobisink/internal/radio"
)

// compilePerSlot is compile as it ran before the run form:
// one Builder.Add per usable slot of each claim's clip, its rate and
// power read by RateAt and PowerAt. It is the reference the run form
// must match field for field.
func compilePerSlot(inst *core.Instance, iv Interval, regs []Registration, order []int, quantum, eps float64) (*gap.Compiled, error) {
	var b gap.Builder
	b.Reset(iv.End-iv.Start+1, nil, quantum, eps)
	for _, k := range order {
		r := &regs[k]
		s := &inst.Sensors[r.Sensor]
		b.Bin(r.Budget)
		for j := r.ClipStart; j <= r.ClipEnd; j++ {
			if rate, pw := s.RateAt(j), s.PowerAt(j); rate > 0 && pw > 0 {
				b.Add(j-iv.Start, rate*inst.Tau, pw*inst.Tau)
			}
		}
	}
	return b.Compiled()
}

// sameCompiled reports whether two compiled forms agree field for field,
// floats bit for bit.
func sameCompiled(got, want *gap.Compiled) bool {
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	return got.NumItems == want.NumItems && slices.Equal(got.Off, want.Off) &&
		slices.Equal(got.First, want.First) && slices.Equal(got.Count, want.Count) &&
		bits(got.Profit, want.Profit) && bits(got.Weight, want.Weight) && bits(got.Cap, want.Cap) &&
		slices.Equal(got.WQ, want.WQ) && slices.Equal(got.CapU, want.CapU) &&
		got.Quantum == want.Quantum && got.Eps == want.Eps
}

// runsOf folds a window's per-slot rates and powers, from global slot
// start on, into link runs with core.AppendLink, as the builders do.
func runsOf(start int, rates, powers []float64) []core.LinkRun {
	var runs []core.LinkRun
	for k := range rates {
		runs = core.AppendLink(runs, start+k, radio.Link{Rate: rates[k], Power: powers[k]})
	}
	return runs
}

// zeroSlotTour is a hand-built 12-slot tour whose windows mix runs of
// equal links with zero-rate, zero-power and dead slots and one rate at
// two powers.
func zeroSlotTour() *core.Instance {
	return &core.Instance{T: 12, Tau: 1, Gamma: 4, Range: 20, Sensors: []core.SensorSlots{
		{ID: 0, Budget: 3, Start: 0, End: 5,
			Runs: runsOf(0, []float64{250e3, 250e3, 0, 19.2e3, 19.2e3, 9.6e3},
				[]float64{0.33, 0.33, 0.33, 0, 0.22, 0.22})},
		{ID: 1, Budget: 0.9, Start: 3, End: 9,
			Runs: runsOf(3, []float64{0, 9.6e3, 9.6e3, 250e3, 0, 19.2e3, 4.8e3},
				[]float64{0, 0.17, 0.17, 0.33, 0, 0.22, 0})},
		{ID: 2, Start: -1, End: -1},
		{ID: 3, Budget: 1.5, Start: 6, End: 11,
			Runs: runsOf(6, []float64{4.8e3, 9.6e3, 19.2e3, 19.2e3, 9.6e3, 4.8e3},
				[]float64{0.17, 0.17, 0.22, 0.30, 0.17, 0.17})},
	}}
}

// TestIntervalCompileMatchesPerSlot: the interval schedulers' compile
// lists each claim's clip with one Builder.Run per window it meets, and
// must write what the per-slot RateAt/PowerAt loop wrote, field for
// field — in every interval of Figure 2 and 3 tours, Figure 4's
// Online_Appro cell (τ = 8 s), a continuous path-loss radio (the FPTAS:
// no WQ) and a hand-built tour with
// zero-rate and zero-power slots; with clips cut to the window as the
// ledger admits them and with clips spanning the whole interval; in
// Online_Appro's bin order with its oracle and in Online_Greedy's.
func TestIntervalCompileMatchesPerSlot(t *testing.T) {
	pathLoss, err := radio.NewPathLoss(250e3, 20, 2.5, 0.17, 0.33, 200)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := radio.NewFixedPower(radio.Paper2013(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		inst *core.Instance
	}{
		{"fig2", paperInstance(t, 300, 1, radio.Paper2013(), 5, 1)},
		{"fig3", paperInstance(t, 300, 1, fixed, 5, 1)},
		{"fig4b", paperInstance(t, 300, 1, radio.Paper2013(), 5, 8)},
		{"pathloss", paperInstance(t, 100, 1, pathLoss, 5, 1)},
		{"zero-slots", zeroSlotTour()},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst := c.inst
			quantum, eps := (&Appro{}).Opts.Oracle(inst)
			var b gap.Builder
			runs := 0
			for j := 0; j*inst.Gamma < inst.T; j++ {
				iv := Interval{Index: j, Start: j * inst.Gamma, End: min((j+1)*inst.Gamma, inst.T) - 1}
				for _, whole := range []bool{false, true} {
					var regs []Registration
					for i := range inst.Sensors {
						s := &inst.Sensors[i]
						if s.Start < 0 || s.End < iv.Start || s.Start > iv.End {
							continue
						}
						r := Registration{Sensor: i, Budget: s.Budget, ClipStart: max(s.Start, iv.Start), ClipEnd: min(s.End, iv.End)}
						if whole {
							r.ClipStart, r.ClipEnd = iv.Start, iv.End
						}
						regs = append(regs, r)
					}
					appro := claimOrder(regs, nil)
					greedy := slices.Clone(appro)
					slices.Sort(greedy) // the claims' own order
					for _, p := range []struct {
						order        []int
						quantum, eps float64
					}{{appro, quantum, eps}, {greedy, 0, 0}} {
						got, err := compile(&b, inst, iv, regs, p.order, p.quantum, p.eps)
						if err != nil {
							t.Fatal(err)
						}
						want, err := compilePerSlot(inst, iv, regs, p.order, p.quantum, p.eps)
						if err != nil {
							t.Fatal(err)
						}
						if !sameCompiled(got, want) {
							t.Fatalf("interval %d (whole clips %v): the run form's arrays differ from the per-slot loop's", j, whole)
						}
						if (p.quantum > 0) != (len(got.WQ) > 0) && len(got.First) > 0 {
							t.Fatalf("interval %d: quantum %v with %d quantized weights", j, p.quantum, len(got.WQ))
						}
						runs += len(got.First)
					}
				}
			}
			if runs == 0 {
				t.Fatal("no interval compiled a run")
			}
		})
	}
}
