package exp

import (
	"bytes"
	"strings"
	"testing"
)

// smallCfg keeps unit-test experiment runs fast.
func smallCfg() Config {
	return Config{
		Sizes:  []int{40, 80},
		Trials: 3,
		Seed:   1,
	}
}

func TestSeedForDecorrelates(t *testing.T) {
	a := seedFor(1, 100, 0)
	b := seedFor(1, 100, 1)
	c := seedFor(1, 200, 0)
	d := seedFor(2, 100, 0)
	if a == b || a == c || a == d {
		t.Errorf("seeds collide: %d %d %d %d", a, b, c, d)
	}
	if a != seedFor(1, 100, 0) {
		t.Error("seedFor must be deterministic")
	}
	if a < 0 || b < 0 || c < 0 {
		t.Error("seeds must be non-negative")
	}
}

func TestFig2Small(t *testing.T) {
	tbl, err := Fig2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// 3 settings × 2 sizes × 2 algorithms.
	if got := len(tbl.Points); got != 12 {
		t.Fatalf("points = %d, want 12", got)
	}
	for _, p := range tbl.Points {
		if p.Mb.Mean <= 0 {
			t.Errorf("%s n=%d %s: zero throughput", p.Setting, p.N, p.Algorithm)
		}
		if p.Mb.N != 3 {
			t.Errorf("trials = %d", p.Mb.N)
		}
		if p.FracUB <= 0 || p.FracUB > 1+1e-9 {
			t.Errorf("fraction of UB = %v out of (0,1]", p.FracUB)
		}
	}
	// Offline dominates online on every cell (same instances).
	for _, setting := range tbl.settings() {
		for _, n := range tbl.sizes() {
			off, ok1 := tbl.point(setting, n, AlgOfflineAppro)
			on, ok2 := tbl.point(setting, n, AlgOnlineAppro)
			if !ok1 || !ok2 {
				t.Fatalf("missing points for %s n=%d", setting, n)
			}
			if on.Mb.Mean > off.Mb.Mean*1.02 {
				t.Errorf("%s n=%d: online %v above offline %v", setting, n, on.Mb.Mean, off.Mb.Mean)
			}
		}
	}
}

func TestFig3Small(t *testing.T) {
	cfg := smallCfg()
	cfg.Sizes = []int{60}
	tbl, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.Points); got != 12 { // 3 speeds × 1 size × 4 algorithms
		t.Fatalf("points = %d, want 12", got)
	}
	for _, setting := range tbl.settings() {
		mm, _ := tbl.point(setting, 60, AlgOfflineMaxMatch)
		omm, _ := tbl.point(setting, 60, AlgOnlineMaxMatch)
		// Exact offline optimum must dominate everything.
		for _, alg := range tbl.algorithms() {
			p, _ := tbl.point(setting, 60, alg)
			if p.Mb.Mean > mm.Mb.Mean*1.001 {
				t.Errorf("%s: %s %v above exact optimum %v", setting, alg, p.Mb.Mean, mm.Mb.Mean)
			}
		}
		if omm.Mb.Mean <= 0 {
			t.Errorf("%s: online maxmatch zero", setting)
		}
		// Offline_MaxMatch is exact: fraction of the (loose) upper bound
		// should still be meaningful.
		if mm.FracUB <= 0.3 {
			t.Errorf("%s: optimum only %v of upper bound — bound far too loose?", setting, mm.FracUB)
		}
	}
}

func TestFig4Small(t *testing.T) {
	cfg := smallCfg()
	cfg.Sizes = []int{50}
	a, err := Fig4a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != 5 { // 5 taus × 1 size × 1 algorithm
		t.Fatalf("fig4a points = %d", len(a.Points))
	}
	b, err := Fig4b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Points) != 5 {
		t.Fatalf("fig4b points = %d", len(b.Points))
	}
	// Throughput decreases with tau (paper Fig. 4): compare tau=1 vs tau=16.
	first := a.Points[0]
	last := a.Points[len(a.Points)-1]
	if first.Mb.Mean <= last.Mb.Mean {
		t.Errorf("fig4a: tau=1 (%v) should beat tau=16 (%v)", first.Mb.Mean, last.Mb.Mean)
	}
}

func TestFiguresRegistry(t *testing.T) {
	var ids, all []string
	for _, e := range Experiments {
		if e.Run == nil {
			t.Errorf("experiment %q has no runner", e.ID)
		}
		ids = append(ids, e.ID)
		if e.All {
			all = append(all, e.ID)
		}
	}
	want := "2 3 4a 4b gap msgs accrual contention latency faults fleet"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("registry ids = %q, want %q", got, want)
	}
	// `-fig all` runs these, in this order: results/render.txt holds
	// their output.
	if got := strings.Join(all, " "); got != "2 3 4a 4b gap msgs" {
		t.Errorf("ids run by all = %q", got)
	}
}

func TestWriteCSV(t *testing.T) {
	cfg := smallCfg()
	cfg.Sizes = []int{40}
	tbl, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(tbl.Points) {
		t.Fatalf("csv lines = %d, want %d", len(lines), 1+len(tbl.Points))
	}
	if !strings.HasPrefix(lines[0], "figure,setting,n,algorithm") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(buf.String(), "fig2") {
		t.Error("figure name missing")
	}
}

func TestRender(t *testing.T) {
	cfg := smallCfg()
	cfg.Sizes = []int{40}
	tbl, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig2", "Offline_Appro", "Online_Appro", "rs=5m/s,tau=1s", "throughput"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if len(c.Sizes) != 6 || c.Trials != 50 || c.Jitter != 0.5 ||
		c.Workers < 1 || c.FixedPower != 0.3 || c.PathLength != 10000 || c.MaxOffset != 180 ||
		c.PanelAreaMM2 != 100 || c.Accrual != 3 {
		t.Errorf("defaults wrong: %+v", c)
	}
	// Explicit zero jitter is expressible with a negative sentinel.
	c2 := Config{Jitter: -1}.withDefaults()
	if c2.Jitter != 0 {
		t.Errorf("negative jitter must clamp to 0, got %v", c2.Jitter)
	}
}

func TestRunAlgorithmUnknown(t *testing.T) {
	cfg := Config{Trials: 1}.withDefaults()
	_, err := runCell(cfg, cell{setting: Setting{5, 1}, n: 10, algorithms: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "nope"`) {
		t.Errorf("err = %v, want an unknown-algorithm error", err)
	}
}
