package online

import (
	"context"
	"math"
	"testing"

	"mobisink/internal/fault"
	"mobisink/internal/geom"
	"mobisink/internal/radio"
)

// TestEndpointRules checks each rule of the sensor endpoint, with no
// transport: the Probe's three answers and its clip, the Schedule's
// confirm, the repair, the Finish debit, the Sync and the shortfall
// write-off. Each case gets a fresh endpoint of one sensor whose window
// spans at least six slots, with a data queue of capBits, and the fault
// plan the case names.
func TestEndpointRules(t *testing.T) {
	inst := paperInstance(t, 40, 71, radio.Paper2013(), 5, 1)
	id := -1
	for i := range inst.Sensors {
		if s := &inst.Sensors[i]; s.Start >= 2 && s.End-s.Start >= 5 && s.End+3 < inst.T {
			id = i
			break
		}
	}
	if id < 0 {
		t.Fatal("no sensor with a six-slot window inside the tour")
	}
	s := &inst.Sensors[id]
	const capBits = 1e6
	// iv covers the window; at is the sink's position in reach of it.
	iv := Interval{Index: 3, Start: s.Start, End: s.End}
	at := s.Pos
	// mine lists three of the sensor's slots out of order, among other
	// sensors' pairs.
	mine := []Pair{{Slot: s.Start + 4, Sensor: id}, {Slot: s.Start + 1, Sensor: id + 1}, {Slot: s.Start, Sensor: id}, {Slot: s.Start + 2, Sensor: id}}
	sum := func(slots ...int) Debit {
		d := Debit{Sensor: id}
		for _, j := range slots {
			d.Energy += s.PowerAt(j) * inst.Tau
			d.Data += s.RateAt(j) * inst.Tau
		}
		return d
	}
	// books is the sink's ledger after charging d through Result.Debit.
	books := func(d Debit) (energy, data float64) {
		res := NewResult(inst)
		res.ResidualData[id] = capBits
		res.Debit(d)
		return res.Residual[id], res.ResidualData[id]
	}
	for _, tc := range []struct {
		name string
		plan fault.Plan
		run  func(t *testing.T, e *Endpoint)
	}{
		{"silent-when-down", fault.Plan{
			Crashes:    []fault.Crash{{Sensor: id, From: s.Start, To: s.Start}},
			Shortfalls: []fault.Shortfall{{Sensor: id, Slot: s.Start, Joules: 0.5}},
		}, func(t *testing.T, e *Endpoint) {
			if ans, _ := e.Probe(iv, at); ans != AnswerSilent {
				t.Fatalf("a sensor down at the Probe's first slot answered %d", ans)
			}
			if energy, _ := e.Residual(); e.Shortfall() != 0 || energy != s.Budget {
				t.Errorf("a silent sensor wrote off %v J (residual %v)", e.Shortfall(), energy)
			}
			if ans, _ := e.Probe(Interval{Index: 4, Start: s.Start + 1, End: s.End}, at); ans != AnswerRegister {
				t.Errorf("a sensor up again answered %d", ans)
			}
		}},
		{"decline-out-of-reach", fault.Plan{}, func(t *testing.T, e *Endpoint) {
			far := geom.Point{X: s.Pos.X + inst.Range*0.8, Y: s.Pos.Y + inst.Range*0.8}
			if ans, _ := e.Probe(iv, far); ans != AnswerDecline {
				t.Errorf("a sensor out of reach answered %d", ans)
			}
			blind := *s
			blind.Start, blind.End = -1, -1
			if ans, _ := NewEndpoint(&blind, inst.Tau, inst.Range, capBits, nil).Probe(iv, at); ans != AnswerDecline {
				t.Errorf("a sensor without a window answered %d", ans)
			}
		}},
		{"claim-clipped", fault.Plan{}, func(t *testing.T, e *Endpoint) {
			for _, c := range []struct{ iv, want Interval }{
				{Interval{Index: 1, Start: s.Start - 2, End: s.Start + 1}, Interval{Start: s.Start, End: s.Start + 1}},
				{Interval{Index: 2, Start: s.End - 1, End: s.End + 3}, Interval{Start: s.End - 1, End: s.End}},
			} {
				ans, r := e.Probe(c.iv, at)
				want := Registration{Sensor: id, Budget: s.Budget, DataLeft: capBits, ClipStart: c.want.Start, ClipEnd: c.want.End}
				if ans != AnswerRegister || r != want {
					t.Errorf("interval [%d,%d]: answer %d claim %+v, want %+v", c.iv.Start, c.iv.End, ans, r, want)
				}
			}
		}},
		{"confirm", fault.Plan{}, func(t *testing.T, e *Endpoint) {
			if !e.Schedule(iv.Index, mine, false) {
				t.Fatal("a sensor up at its slots did not confirm")
			}
			if e.Schedule(iv.Index, []Pair{{Slot: s.Start, Sensor: id + 1}}, false) {
				t.Error("a sensor confirmed a Schedule without its slots")
			}
		}},
		{"silent-when-down-at-a-slot", fault.Plan{
			Crashes: []fault.Crash{{Sensor: id, From: s.Start + 4, To: s.Start + 4}},
		}, func(t *testing.T, e *Endpoint) {
			if e.Schedule(iv.Index, mine, false) {
				t.Fatal("a sensor down at an assigned slot confirmed")
			}
			e.Finish(iv.Index)
			if energy, data := e.Residual(); energy != s.Budget || data != capBits {
				t.Errorf("forgotten slots were debited: residuals (%v, %v)", energy, data)
			}
		}},
		{"repair-when-up", fault.Plan{
			Crashes: []fault.Crash{{Sensor: id, From: s.Start + 3, To: s.Start + 3}},
		}, func(t *testing.T, e *Endpoint) {
			e.Schedule(iv.Index, []Pair{{Slot: s.Start + 5, Sensor: id}, {Slot: s.Start + 3, Sensor: id}, {Slot: s.Start + 1, Sensor: id + 1}}, true)
			if e.Schedule(iv.Index, []Pair{{Slot: s.Start + 5, Sensor: id}}, true) {
				t.Error("a repair was confirmed")
			}
			e.Finish(iv.Index)
			energy, data := e.Residual()
			if wantE, wantD := books(sum(s.Start + 5)); energy != wantE || data != wantD {
				t.Errorf("repairs debited (%v, %v), want only the slot it is up at: (%v, %v)", energy, data, wantE, wantD)
			}
		}},
		{"finish-debit-is-books", fault.Plan{}, func(t *testing.T, e *Endpoint) {
			e.Schedule(iv.Index, mine, false)
			e.Schedule(iv.Index, []Pair{{Slot: s.Start + 3, Sensor: id}}, true)
			e.Finish(iv.Index - 1) // another interval's Finish debits nothing
			if energy, _ := e.Residual(); energy != s.Budget {
				t.Fatalf("a stale Finish debited: residual %v", energy)
			}
			e.Finish(iv.Index)
			energy, data := e.Residual()
			wantE, wantD := books(sum(s.Start, s.Start+2, s.Start+3, s.Start+4))
			if math.Float64bits(energy) != math.Float64bits(wantE) || math.Float64bits(data) != math.Float64bits(wantD) {
				t.Errorf("Finish left (%v, %v), Result.Debit (%v, %v)", energy, data, wantE, wantD)
			}
			if e.Finished() != iv.Index {
				t.Errorf("watermark %d after interval %d's Finish", e.Finished(), iv.Index)
			}
			e.Finish(iv.Index) // a second Finish has nothing left to debit
			if again, _ := e.Residual(); again != energy {
				t.Errorf("a repeated Finish debited again: %v, was %v", again, energy)
			}
		}},
		{"sync", fault.Plan{}, func(t *testing.T, e *Endpoint) {
			e.Schedule(iv.Index, mine, false)
			e.Sync(5, s.Budget/2, 2*capBits)
			if energy, data := e.Residual(); energy != s.Budget/2 || data != capBits || e.Finished() != 5 {
				t.Fatalf("Sync left (%v J, %v bits, watermark %d), want (%v, %v, 5)", energy, data, e.Finished(), s.Budget/2, capBits)
			}
			e.Sync(2, s.Budget, capBits/4)
			if energy, data := e.Residual(); energy != s.Budget/2 || data != capBits/4 || e.Finished() != 5 {
				t.Fatalf("second Sync left (%v J, %v bits, watermark %d), want (%v, %v, 5)", energy, data, e.Finished(), s.Budget/2, capBits/4)
			}
			e.Finish(iv.Index) // the Sync dropped the slots
			if energy, _ := e.Residual(); energy != s.Budget/2 {
				t.Errorf("slots held across a Sync were debited: %v", energy)
			}
		}},
		{"shortfall-once", fault.Plan{
			Shortfalls: []fault.Shortfall{
				{Sensor: id, Slot: s.Start, Joules: s.Budget / 4},
				{Sensor: id, Slot: s.Start + 2, Joules: s.Budget / 8},
			},
		}, func(t *testing.T, e *Endpoint) {
			for attempt := 0; attempt < 2; attempt++ {
				if _, r := e.Probe(iv, at); r.Budget != s.Budget-s.Budget/4 || e.Shortfall() != s.Budget/4 {
					t.Fatalf("attempt %d: claimed %v J after writing off %v J, want %v after %v", attempt, r.Budget, e.Shortfall(), s.Budget-s.Budget/4, s.Budget/4)
				}
			}
			later := Interval{Index: iv.Index + 1, Start: s.Start + 2, End: s.End}
			_, r := e.Probe(later, at)
			if want := s.Budget - s.Budget/4 - s.Budget/8; r.Budget != want || e.Shortfall() != s.Budget/4+s.Budget/8 {
				t.Errorf("later interval claimed %v J after writing off %v J, want %v", r.Budget, e.Shortfall(), want)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := fault.NewInjector(tc.plan, len(inst.Sensors), inst.T)
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, NewEndpoint(s, inst.Tau, inst.Range, capBits, inj))
		})
	}
}

// TestEndpointParityWithLedger runs one lossless tour and checks every
// endpoint the tour built against the sink's books, bit for bit: a
// sensor debits its own slots, and the ledger debits the same. A sensor
// the tour never addressed has no endpoint, and its books still hold
// its full budget and data cap.
func TestEndpointParityWithLedger(t *testing.T) {
	inst := paperInstance(t, 60, 73, radio.Paper2013(), 5, 1)
	caps := make([]float64, len(inst.Sensors))
	for i := range caps {
		caps[i] = 120e3
	}
	if err := inst.SetDataCaps(caps); err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Plan{}, len(inst.Sensors), inst.T)
	if err != nil {
		t.Fatal(err)
	}
	var m *memory
	d, err := NewTour(inst, &Sequential{}, nil, 0, nil, nil, func(res *Result) Transport {
		m = newMemory(inst, res, inj, Options{})
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spent, unaddressed := 0, 0
	for i := range inst.Sensors {
		if m.eps[i].s == nil {
			unaddressed++
			if math.Float64bits(res.Residual[i]) != math.Float64bits(inst.Sensors[i].Budget) || math.Float64bits(res.ResidualData[i]) != math.Float64bits(caps[i]) {
				t.Fatalf("sensor %d has no endpoint, but books (%v, %v)", i, res.Residual[i], res.ResidualData[i])
			}
			continue
		}
		energy, data := m.eps[i].Residual()
		if math.Float64bits(energy) != math.Float64bits(res.Residual[i]) || math.Float64bits(data) != math.Float64bits(res.ResidualData[i]) {
			t.Fatalf("sensor %d: endpoint (%v, %v), books (%v, %v)", i, energy, data, res.Residual[i], res.ResidualData[i])
		}
		if energy < inst.Sensors[i].Budget {
			spent++
		}
	}
	if spent == 0 {
		t.Fatal("no sensor spent anything")
	}
	if unaddressed == 0 {
		t.Fatal("the tour addressed every sensor, so no unbuilt endpoint was checked")
	}
}
