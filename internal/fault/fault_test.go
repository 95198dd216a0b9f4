package fault

import (
	"math"
	"testing"
)

func TestPlanZero(t *testing.T) {
	var p *Plan
	if !p.Zero() {
		t.Error("nil plan must be zero")
	}
	if !(&Plan{Seed: 42, MaxRetries: 3}).Zero() {
		t.Error("seed and retries alone inject nothing")
	}
	for _, p := range []Plan{
		{DropProbe: 0.1}, {DropAck: 0.1}, {DropSchedule: 0.1},
		{DropFinish: 0.1}, {StallProb: 0.1},
		{Crashes: []Crash{{Sensor: 0, From: 0, To: 1}}},
		{Shortfalls: []Shortfall{{Sensor: 0, Slot: 0, Joules: 1}}},
		{StallIntervals: []int{2}},
		{ConnKillProb: 0.1},
		{ConnKills: []ConnKill{{Sensor: 0, Interval: 1}}},
		{Partitions: []Partition{{From: 0, To: 2}}},
	} {
		if p.Zero() {
			t.Errorf("plan %+v wrongly zero", p)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	good := Plan{DropProbe: 0.5, DropAck: 1, MaxRetries: 2,
		Crashes:    []Crash{{Sensor: 1, From: 3, To: 9}},
		Shortfalls: []Shortfall{{Sensor: 0, Slot: 5, Joules: 0.2}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{DropProbe: -0.1}, {DropAck: 1.5}, {DropSchedule: math.NaN()},
		{StallProb: math.Inf(1)}, {MaxRetries: -1}, {MaxRetries: 99},
		{Crashes: []Crash{{Sensor: -1, From: 0, To: 0}}},
		{Crashes: []Crash{{Sensor: 0, From: 5, To: 2}}},
		{Shortfalls: []Shortfall{{Sensor: 0, Slot: 0, Joules: -1}}},
		{Shortfalls: []Shortfall{{Sensor: -2, Slot: 0, Joules: 1}}},
		{ConnKillProb: -0.5}, {ConnKillProb: math.NaN()},
		{ConnKills: []ConnKill{{Sensor: -1, Interval: 0}}},
		{ConnKills: []ConnKill{{Sensor: 0, Interval: -3}}},
		{Partitions: []Partition{{From: 5, To: 2}}},
		{Partitions: []Partition{{From: 0, To: 1, Sensors: []int{-4}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestInjectorDeterminismAndPurity(t *testing.T) {
	p := Plan{Seed: 11, DropProbe: 0.3, DropAck: 0.3, DropSchedule: 0.3,
		DropFinish: 0.3, StallProb: 0.3}
	a, err := NewInjector(p, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(p, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	for iv := 0; iv < 20; iv++ {
		for s := 0; s < 10; s++ {
			if a.ProbeHeard(iv, s, 0) != b.ProbeHeard(iv, s, 0) ||
				a.AckLost(iv, s, 1) != b.AckLost(iv, s, 1) ||
				a.ScheduleHeard(iv, s) != b.ScheduleHeard(iv, s) {
				t.Fatalf("injectors disagree at iv=%d s=%d", iv, s)
			}
		}
		if a.FinishJammed(iv) != b.FinishJammed(iv) || a.Stalled(iv) != b.Stalled(iv) {
			t.Fatalf("broadcast rolls disagree at iv=%d", iv)
		}
		// Purity: asking twice gives the same answer.
		if a.FinishJammed(iv) != a.FinishJammed(iv) {
			t.Fatal("FinishJammed impure")
		}
	}
	// Different seeds should actually differ somewhere.
	c, _ := NewInjector(Plan{Seed: 12, DropProbe: 0.3}, 10, 100)
	same := true
	for iv := 0; iv < 50 && same; iv++ {
		for s := 0; s < 10; s++ {
			if a.ProbeHeard(iv, s, 0) != c.ProbeHeard(iv, s, 0) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 11 and 12 produced identical probe traces")
	}
}

func TestRollRates(t *testing.T) {
	// Empirical drop frequency tracks the configured probability.
	for _, prob := range []float64{0.05, 0.2, 0.5} {
		in, err := NewInjector(Plan{Seed: 3, DropAck: prob}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, hits := 20000, 0
		for i := 0; i < n; i++ {
			if in.AckLost(i, 0, 0) {
				hits++
			}
		}
		got := float64(hits) / float64(n)
		if math.Abs(got-prob) > 0.02 {
			t.Errorf("prob %v: empirical %v", prob, got)
		}
	}
	// Degenerate probabilities are exact.
	in, _ := NewInjector(Plan{Seed: 3, DropAck: 1}, 1, 1)
	if !in.AckLost(0, 0, 0) {
		t.Error("prob 1 must always drop")
	}
	in, _ = NewInjector(Plan{Seed: 3}, 1, 1)
	if in.AckLost(0, 0, 0) {
		t.Error("prob 0 must never drop")
	}
}

func TestCrashAndDeficitTraces(t *testing.T) {
	p := Plan{
		Crashes: []Crash{{Sensor: 0, From: 2, To: 4}, {Sensor: 0, From: 8, To: 8}},
		Shortfalls: []Shortfall{
			{Sensor: 1, Slot: 5, Joules: 0.5},
			{Sensor: 1, Slot: 2, Joules: 0.25},
		},
	}
	in, err := NewInjector(p, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantAlive := map[int]bool{0: true, 1: true, 2: false, 4: false, 5: true, 7: true, 8: false, 9: true}
	for slot, want := range wantAlive {
		if got := in.Alive(0, slot); got != want {
			t.Errorf("Alive(0,%d) = %v", slot, got)
		}
		if !in.Alive(1, slot) {
			t.Errorf("sensor 1 has no crashes but dead at %d", slot)
		}
	}
	for _, tc := range []struct {
		upto int
		want float64
	}{{0, 0}, {1, 0}, {2, 0.25}, {4, 0.25}, {5, 0.75}, {9, 0.75}} {
		if got := in.Deficit(1, tc.upto); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Deficit(1,%d) = %v, want %v", tc.upto, got, tc.want)
		}
	}
	if in.Deficit(0, 9) != 0 {
		t.Error("sensor 0 has no shortfalls")
	}
}

func TestNewInjectorRejectsOutOfRange(t *testing.T) {
	if _, err := NewInjector(Plan{Crashes: []Crash{{Sensor: 5, From: 0, To: 0}}}, 3, 10); err == nil {
		t.Error("crash sensor out of range accepted")
	}
	if _, err := NewInjector(Plan{Shortfalls: []Shortfall{{Sensor: 0, Slot: 99, Joules: 1}}}, 3, 10); err == nil {
		t.Error("shortfall slot out of range accepted")
	}
	if _, err := NewInjector(Plan{DropAck: 7}, 3, 10); err == nil {
		t.Error("invalid probability accepted")
	}
	if _, err := NewInjector(Plan{ConnKills: []ConnKill{{Sensor: 9, Interval: 0}}}, 3, 10); err == nil {
		t.Error("conn-kill sensor out of range accepted")
	}
	if _, err := NewInjector(Plan{Partitions: []Partition{{From: 0, To: 1, Sensors: []int{7}}}}, 3, 10); err == nil {
		t.Error("partition sensor out of range accepted")
	}
}

func TestConnKilled(t *testing.T) {
	p := Plan{Seed: 5, ConnKills: []ConnKill{{Sensor: 1, Interval: 3}}}
	in, err := NewInjector(p, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !in.ConnKilled(3, 1) {
		t.Error("scripted kill did not fire")
	}
	for iv := 0; iv < 10; iv++ {
		for s := 0; s < 4; s++ {
			if iv == 3 && s == 1 {
				continue
			}
			if in.ConnKilled(iv, s) {
				t.Errorf("spurious kill at iv=%d s=%d with zero prob", iv, s)
			}
		}
	}
	// Rolled kills: empirical frequency tracks the probability and the
	// trace is deterministic per seed.
	a, _ := NewInjector(Plan{Seed: 8, ConnKillProb: 0.25}, 1, 1)
	b, _ := NewInjector(Plan{Seed: 8, ConnKillProb: 0.25}, 1, 1)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if a.ConnKilled(i, 0) != b.ConnKilled(i, 0) {
			t.Fatal("conn-kill rolls nondeterministic")
		}
		if a.ConnKilled(i, 0) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.25) > 0.02 {
		t.Errorf("empirical kill rate %v, want ≈0.25", got)
	}
}

func TestPartitioned(t *testing.T) {
	p := Plan{Partitions: []Partition{
		{From: 2, To: 4, Sensors: []int{1}},
		{From: 7, To: 7}, // empty sensor list → everyone
	}}
	in, err := NewInjector(p, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		iv, s int
		want  bool
	}{
		{1, 1, false}, {2, 1, true}, {4, 1, true}, {5, 1, false},
		{3, 0, false}, {3, 2, false}, // window names only sensor 1
		{7, 0, true}, {7, 1, true}, {7, 2, true}, // global window
		{6, 0, false}, {8, 2, false},
	} {
		if got := in.Partitioned(tc.iv, tc.s); got != tc.want {
			t.Errorf("Partitioned(%d,%d) = %v, want %v", tc.iv, tc.s, got, tc.want)
		}
	}
}

func TestForcedStalls(t *testing.T) {
	in, err := NewInjector(Plan{StallIntervals: []int{1, 4}}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for iv := 0; iv < 6; iv++ {
		want := iv == 1 || iv == 4
		if in.Stalled(iv) != want {
			t.Errorf("Stalled(%d) = %v", iv, !want)
		}
	}
}
