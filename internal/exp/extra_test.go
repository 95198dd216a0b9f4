package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestMessages(t *testing.T) {
	cfg := Config{Sizes: []int{40, 80}, Trials: 2, Seed: 3}
	tbl, err := Messages(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 2 {
		t.Fatalf("points = %d", len(tbl.Points))
	}
	prev := 0.0
	for _, p := range tbl.Points {
		if p.Acks > float64(p.AcksBound) {
			t.Errorf("n=%d: acks %v above 2n", p.N, p.Acks)
		}
		if p.Total > float64(p.TotalBound) {
			t.Errorf("n=%d: total %v above bound %d", p.N, p.Total, p.TotalBound)
		}
		if p.Probes <= 0 || p.Total <= 0 {
			t.Errorf("n=%d: empty message stats", p.N)
		}
		if p.Total < prev {
			t.Errorf("total messages should grow with n")
		}
		prev = p.Total
	}
	var csvBuf, renderBuf bytes.Buffer
	if err := tbl.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvBuf.String(), "n,intervals,probes") {
		t.Errorf("csv header: %q", csvBuf.String()[:30])
	}
	if err := tbl.Render(&renderBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(renderBuf.String(), "Theorem 3") {
		t.Error("render missing title")
	}
}

func TestOptimalityGap(t *testing.T) {
	cfg := Config{Sizes: []int{4, 6}, Trials: 2, Seed: 5}
	tbl, err := OptimalityGap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 2 {
		t.Fatalf("points = %d", len(tbl.Points))
	}
	for _, p := range tbl.Points {
		if p.Solved == 0 {
			t.Logf("n=%d: no instance solved to optimality (nodes %v)", p.N, p.MeanNodes)
			continue
		}
		if p.ApproRatio.Mean < 0.5-1e-9 || p.ApproRatio.Mean > 1+1e-9 {
			t.Errorf("n=%d: appro ratio %v outside [1/2, 1]", p.N, p.ApproRatio.Mean)
		}
		if p.ApproRatio.Min < 0.5-1e-9 {
			t.Errorf("n=%d: worst ratio %v below the 1/2 guarantee", p.N, p.ApproRatio.Min)
		}
		if p.OnlineRatio.Mean > 1+1e-9 {
			t.Errorf("n=%d: online above optimum", p.N)
		}
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "appro/OPT") {
		t.Error("render missing column")
	}
}

// The default sweep downsizes automatically when fed figure-style sizes.
func TestOptimalityGapDefaultSizes(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 1}
	tbl, err := OptimalityGap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 4 || tbl.Points[0].N != 4 {
		t.Fatalf("default downsizing not applied: %+v", tbl.Points)
	}
}

// Sizes that are set are run as given, even when they equal the figure
// defaults: only unset Sizes take an experiment's own downsized sweep.
func TestExplicitDefaultSizesHonoured(t *testing.T) {
	cfg := Config{Sizes: []int{100, 200, 300, 400, 500, 600}, Trials: 1, Seed: 2}
	tbl, err := Contention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 30 { // 5 windows × 6 sizes
		t.Fatalf("contention points = %d, want 30", len(tbl.Points))
	}
	fleet, err := FleetSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Points) != 36 { // 3 fleet sizes × 6 sizes × 2 algorithms
		t.Fatalf("fleet points = %d, want 36", len(fleet.Points))
	}
}

func TestAccrualSensitivity(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 4}
	tbl, err := AccrualSensitivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 8 { // 4 accruals × 2 settings
		t.Fatalf("points = %d", len(tbl.Points))
	}
	// Throughput must be non-decreasing in the accrual for each setting.
	bySetting := map[string][]AccrualPoint{}
	for _, p := range tbl.Points {
		bySetting[p.Setting] = append(bySetting[p.Setting], p)
	}
	for setting, pts := range bySetting {
		for i := 1; i < len(pts); i++ {
			if pts[i].Mb.Mean < pts[i-1].Mb.Mean*0.98 {
				t.Errorf("%s: throughput fell from accrual %g (%v) to %g (%v)",
					setting, pts[i-1].Accrual, pts[i-1].Mb.Mean, pts[i].Accrual, pts[i].Mb.Mean)
			}
		}
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "accrual") {
		t.Error("output missing header")
	}
}

func TestContention(t *testing.T) {
	cfg := Config{Sizes: []int{60}, Trials: 2, Seed: 6}
	tbl, err := Contention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 5 { // 5 windows × 1 size
		t.Fatalf("points = %d", len(tbl.Points))
	}
	if tbl.Points[0].AckWindow != 0 || tbl.Points[0].FracIdeal != 1 {
		t.Fatalf("ideal row wrong: %+v", tbl.Points[0])
	}
	for _, p := range tbl.Points {
		if p.FracIdeal < 0 || p.FracIdeal > 1.0001 {
			t.Errorf("w=%d: fraction %v outside [0,1]", p.AckWindow, p.FracIdeal)
		}
	}
	// Wider windows recover more throughput (compare w=4 and w=64).
	if tbl.Points[4].FracIdeal < tbl.Points[1].FracIdeal {
		t.Errorf("w=64 (%v) below w=4 (%v)", tbl.Points[4].FracIdeal, tbl.Points[1].FracIdeal)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ack_window") {
		t.Error("missing header")
	}
}

func TestLatency(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 8}
	tbl, err := Latency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Points) != 5 {
		t.Fatalf("points = %d", len(tbl.Points))
	}
	for i := 1; i < len(tbl.Points); i++ {
		prev, cur := tbl.Points[i-1], tbl.Points[i]
		if cur.Speed <= prev.Speed {
			t.Fatal("speeds not ascending")
		}
		// Faster sink: less data per tour, lower p95 delivery delay.
		if cur.Mb.Mean >= prev.Mb.Mean {
			t.Errorf("throughput did not fall from %g to %g m/s", prev.Speed, cur.Speed)
		}
		if cur.P95DelayMin > prev.P95DelayMin*1.05 {
			t.Errorf("p95 delay rose from %g to %g m/s", prev.Speed, cur.Speed)
		}
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delay") {
		t.Error("missing header")
	}
}
