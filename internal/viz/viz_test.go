package viz

import (
	"bytes"
	"strings"
	"testing"

	"mobisink/internal/core"
	"mobisink/internal/network"
	"mobisink/internal/radio"
)

func setup(t *testing.T) (*core.Instance, *core.Allocation) {
	t.Helper()
	dep, err := network.Generate(network.Params{N: 40, PathLength: 2000, MaxOffset: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	_ = dep.SetUniformBudgets(2)
	inst, err := core.BuildInstance(dep, radio.Paper2013(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.OfflineAppro(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst, a
}

func TestTimeline(t *testing.T) {
	inst, a := setup(t)
	var buf bytes.Buffer
	if err := Timeline(&buf, inst, a, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tour timeline") {
		t.Error("missing header")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 3 {
		t.Fatal("too few lines")
	}
	// The bar row must be exactly 60 glyphs between the pipes.
	bar := strings.TrimSpace(lines[1])
	inner := strings.Trim(bar, "|")
	if got := len([]rune(inner)); got != 60 {
		t.Errorf("bar width = %d runes, want 60", got)
	}
	// A reasonable allocation uses some slots.
	if !strings.ContainsAny(inner, "█▓▒░") {
		t.Error("timeline shows no transmissions")
	}
}

func TestTimelineValidation(t *testing.T) {
	inst, a := setup(t)
	var buf bytes.Buffer
	if err := Timeline(&buf, nil, a, 10); err == nil {
		t.Error("expected nil-instance error")
	}
	if err := Timeline(&buf, inst, nil, 10); err == nil {
		t.Error("expected nil-allocation error")
	}
	bad := &core.Allocation{SlotOwner: make([]int, 3)}
	if err := Timeline(&buf, inst, bad, 10); err == nil {
		t.Error("expected length error")
	}
	// Width larger than T clamps; zero width defaults.
	if err := Timeline(&buf, inst, a, 100000); err != nil {
		t.Error(err)
	}
	if err := Timeline(&buf, inst, a, 0); err != nil {
		t.Error(err)
	}
}

func TestEnergyBars(t *testing.T) {
	inst, a := setup(t)
	var buf bytes.Buffer
	if err := EnergyBars(&buf, inst, a, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "energy utilization") {
		t.Error("missing header")
	}
	if strings.Count(out, "\n") > 7 {
		t.Errorf("more rows than limit: %q", out)
	}
	if !strings.Contains(out, "J /") {
		t.Error("missing joule columns")
	}
	if err := EnergyBars(&buf, nil, a, 5); err == nil {
		t.Error("expected nil error")
	}
	if err := EnergyBars(&buf, inst, a, 0); err != nil {
		t.Error("zero limit must default")
	}
}
