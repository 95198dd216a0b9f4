package network

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"mobisink/internal/energy"
	"mobisink/internal/geom"
)

func TestGenerateValidation(t *testing.T) {
	bad := []Params{
		{N: 0, PathLength: 100, MaxOffset: 10},
		{N: -5, PathLength: 100, MaxOffset: 10},
		{N: 10, PathLength: 0, MaxOffset: 10},
		{N: 10, PathLength: 100, MaxOffset: -1},
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGenerateBoundsAndDeterminism(t *testing.T) {
	p := PaperParams(300, 42)
	d, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Sensors) != 300 {
		t.Fatalf("got %d sensors", len(d.Sensors))
	}
	for _, s := range d.Sensors {
		if s.Pos.X < 0 || s.Pos.X > 10000 {
			t.Fatalf("x out of range: %v", s.Pos.X)
		}
		if math.Abs(s.Pos.Y) > 180 {
			t.Fatalf("y out of range: %v", s.Pos.Y)
		}
	}
	d2, _ := Generate(p)
	for i := range d.Sensors {
		if d.Sensors[i].Pos != d2.Sensors[i].Pos {
			t.Fatal("same seed must reproduce the same topology")
		}
	}
	p3 := p
	p3.Seed = 43
	d3, _ := Generate(p3)
	same := true
	for i := range d.Sensors {
		if d.Sensors[i].Pos != d3.Sensors[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d, _ := Generate(PaperParams(10, 1))
	d.Sensors[3].ID = 7
	if err := d.Validate(); err == nil {
		t.Error("expected dense-ID error")
	}
	d, _ = Generate(PaperParams(10, 1))
	d.Sensors[0].Budget = -1
	if err := d.Validate(); err == nil {
		t.Error("expected negative-budget error")
	}
	d, _ = Generate(PaperParams(10, 1))
	d.Sensors[0].Pos.X = -5
	if err := d.Validate(); err == nil {
		t.Error("expected x-range error")
	}
	d, _ = Generate(PaperParams(10, 1))
	d.Sensors[0].Pos.Y = 500
	if err := d.Validate(); err == nil {
		t.Error("expected y-range error")
	}
	empty := &Deployment{PathLength: 100}
	if err := empty.Validate(); err == nil {
		t.Error("expected empty error")
	}
}

func TestAssignSteadyStateBudgets(t *testing.T) {
	d, _ := Generate(PaperParams(50, 7))
	h := energy.PaperSolar(energy.Sunny)
	// Tour at 5 m/s over 10 km = 2000 s; avg harvest ≈ 1 mW → ≈ 2 J.
	if err := d.AssignSteadyStateBudgets(h, 2000, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Sensors {
		if s.Budget < 1.8 || s.Budget > 2.2 {
			t.Fatalf("budget = %v J, want ≈ 2 J", s.Budget)
		}
	}
	// Jitter bounds.
	rng := rand.New(rand.NewSource(1))
	if err := d.AssignSteadyStateBudgets(h, 2000, 0.3, rng); err != nil {
		t.Fatal(err)
	}
	base := h.EnergyBetween(0, 48*3600) / (48 * 3600) * 2000
	varied := false
	for _, s := range d.Sensors {
		if s.Budget > base+1e-12 || s.Budget < base*0.7-1e-12 {
			t.Fatalf("jittered budget %v outside [%v, %v]", s.Budget, base*0.7, base)
		}
		if s.Budget < base*0.999 {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter produced no variation")
	}
	// Error paths.
	if err := d.AssignSteadyStateBudgets(nil, 2000, 0, nil); err == nil {
		t.Error("expected nil-harvester error")
	}
	if err := d.AssignSteadyStateBudgets(h, 0, 0, nil); err == nil {
		t.Error("expected duration error")
	}
	if err := d.AssignSteadyStateBudgets(h, 2000, 1.0, rng); err == nil {
		t.Error("expected jitter error")
	}
	if err := d.AssignSteadyStateBudgets(h, 2000, 0.5, nil); err == nil {
		t.Error("expected rng-required error")
	}
}

func TestSetUniformBudgets(t *testing.T) {
	d, _ := Generate(PaperParams(5, 1))
	if err := d.SetUniformBudgets(-1); err == nil {
		t.Error("expected negative-budget error")
	}
	if err := d.SetUniformBudgets(3.5); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Sensors {
		if s.Budget != 3.5 {
			t.Fatal("budget not applied")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d, _ := Generate(PaperParams(20, 9))
	_ = d.SetUniformBudgets(2)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Deployment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Sensors) != 20 || back.PathLength != 10000 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range back.Sensors {
		if back.Sensors[i] != d.Sensors[i] {
			t.Fatal("sensor mismatch after round trip")
		}
	}
	// Unmarshal validates.
	if err := json.Unmarshal([]byte(`{"path_length":-1,"sensors":[]}`), &back); err == nil {
		t.Error("expected validation error on unmarshal")
	}
}

func TestPath(t *testing.T) {
	d, _ := Generate(PaperParams(5, 1))
	if got := d.Path().Length(); got != 10000 {
		t.Errorf("path length = %v", got)
	}
}

func TestGenerateAlong(t *testing.T) {
	wps := []geom.Point{{X: 0, Y: 0}, {X: 3000, Y: 0}, {X: 3000, Y: 2000}, {X: 6000, Y: 2000}}
	d, err := GenerateAlong(wps, 120, 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.PathLength-8000) > 1e-9 {
		t.Fatalf("path length = %v, want 8000", d.PathLength)
	}
	path := d.Path()
	if _, ok := path.(*geom.Polyline); !ok {
		t.Fatalf("expected polyline path, got %T", path)
	}
	// Every sensor within maxOffset of the path.
	for _, s := range d.Sensors {
		if _, _, ok := path.CoverInterval(s.Pos, 150+1e-6); !ok {
			t.Fatalf("sensor %d too far from path: %v", s.ID, s.Pos)
		}
	}
	// Determinism.
	d2, _ := GenerateAlong(wps, 120, 150, 9)
	for i := range d.Sensors {
		if d.Sensors[i].Pos != d2.Sensors[i].Pos {
			t.Fatal("same seed must reproduce")
		}
	}
	// Validation failures.
	if _, err := GenerateAlong(wps[:1], 10, 100, 1); err == nil {
		t.Error("expected waypoint error")
	}
	if _, err := GenerateAlong(wps, 0, 100, 1); err == nil {
		t.Error("expected count error")
	}
	if _, err := GenerateAlong(wps, 10, -1, 1); err == nil {
		t.Error("expected offset error")
	}
}

func TestCurvedValidate(t *testing.T) {
	wps := []geom.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}, {X: 1000, Y: 1000}}
	d, err := GenerateAlong(wps, 20, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the recorded path length.
	d.PathLength = 1234
	if err := d.Validate(); err == nil {
		t.Error("expected length-mismatch error")
	}
	d.PathLength = 2000
	// Move a sensor away from the path.
	d.Sensors[0].Pos = geom.Point{X: -500, Y: -500}
	if err := d.Validate(); err == nil {
		t.Error("expected off-path error")
	}
}

func TestCurvedJSONRoundTrip(t *testing.T) {
	wps := []geom.Point{{X: 0, Y: 0}, {X: 2000, Y: 500}, {X: 4000, Y: 0}}
	d, err := GenerateAlong(wps, 15, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.SetUniformBudgets(1)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Deployment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Waypoints) != 3 {
		t.Fatalf("waypoints lost: %v", back.Waypoints)
	}
	if back.Path().Length() != d.Path().Length() {
		t.Error("path length changed in round trip")
	}
}
