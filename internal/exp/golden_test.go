package exp

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mobisink/internal/energy"
)

// goldenTable is the surface every experiment table writes through.
type goldenTable interface {
	WriteCSV(io.Writer) error
	Render(io.Writer) error
}

// TestGolden pins the CSV and rendered bytes of all eleven experiments at
// two trials, under the default Config and under one that moves every
// field a trial instance is built from. The figure sweeps and msgs run
// on two small sizes; gap, contention and fleet keep their own default
// sizes. figgap's two wall-clock columns are zeroed before writing.
//
// To regenerate the files, delete them and run the test again; it writes
// each missing file and fails:
//
//	rm -r internal/exp/testdata/golden && go test -run TestGolden ./internal/exp
func TestGolden(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"moved", Config{
			Seed: 11, Jitter: 0.25, Condition: energy.PartlyCloudy, PanelAreaMM2: 120,
			PathLength: 5000, MaxOffset: 150, Accrual: 4, FixedPower: 0.4,
		}},
	}
	experiments := []struct {
		id    string
		sized bool // takes the small Sizes below
		run   func(Config) (goldenTable, error)
	}{
		{"2", true, func(c Config) (goldenTable, error) { return Fig2(c) }},
		{"3", true, func(c Config) (goldenTable, error) { return Fig3(c) }},
		{"4a", true, func(c Config) (goldenTable, error) { return Fig4a(c) }},
		{"4b", true, func(c Config) (goldenTable, error) { return Fig4b(c) }},
		{"msgs", true, func(c Config) (goldenTable, error) { return Messages(c) }},
		{"gap", false, func(c Config) (goldenTable, error) { return OptimalityGap(c) }},
		{"accrual", false, func(c Config) (goldenTable, error) { return AccrualSensitivity(c) }},
		{"contention", false, func(c Config) (goldenTable, error) { return Contention(c) }},
		{"latency", false, func(c Config) (goldenTable, error) { return Latency(c) }},
		{"faults", false, func(c Config) (goldenTable, error) { return FaultSweep(c) }},
		{"fleet", false, func(c Config) (goldenTable, error) { return FleetSweep(c) }},
	}
	for _, c := range configs {
		for _, e := range experiments {
			t.Run(c.name+"/"+e.id, func(t *testing.T) {
				cfg := c.cfg
				cfg.Trials = 2
				if e.sized {
					cfg.Sizes = []int{40, 80}
				}
				tbl, err := e.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if g, ok := tbl.(*GapTable); ok {
					for i := range g.Points {
						g.Points[i].ApproTimeMs, g.Points[i].ExactTimeMs = 0, 0
					}
				}
				var csv, txt bytes.Buffer
				if err := tbl.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				if err := tbl.Render(&txt); err != nil {
					t.Fatal(err)
				}
				dir := filepath.Join("testdata", "golden", c.name)
				checkGolden(t, filepath.Join(dir, "fig"+e.id+".csv"), csv.Bytes())
				checkGolden(t, filepath.Join(dir, "fig"+e.id+".txt"), txt.Bytes())
			})
		}
	}
}

// checkGolden compares got with the file at path, writing the file if it
// is missing.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing and is now written", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
