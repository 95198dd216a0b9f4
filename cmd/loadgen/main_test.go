package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallConfig keeps test campaigns to a fraction of a second: a short
// path (few intervals) and a small fleet.
func smallConfig(n int) config {
	return config{
		n: n, algo: "greedy", seed: 5, pathLen: 600, offset: 40,
		speed: 5, tau: 1, arrival: "uniform", ramp: 30 * time.Millisecond,
		retries: 3, window: 100 * time.Millisecond,
	}
}

func TestRunSmallFleet(t *testing.T) {
	var out bytes.Buffer
	rep, err := run(smallConfig(16), &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataMb <= 0 {
		t.Error("campaign collected no data")
	}
	if rep.Sensors != 16 || rep.Intervals <= 0 {
		t.Errorf("report %+v lacks fleet shape", rep)
	}
	if rep.JoinP99 <= 0 || rep.JoinP99 < rep.JoinP50 {
		t.Errorf("join percentiles inconsistent: p50 %v p99 %v", rep.JoinP50, rep.JoinP99)
	}
	if rep.RegRoundtripP99 <= 0 {
		t.Error("no sink-side registration roundtrip recorded")
	}
	if !bytes.Contains(out.Bytes(), []byte("join latency")) {
		t.Error("report output missing the join latency line")
	}
}

func TestRunJSON(t *testing.T) {
	cfg := smallConfig(12)
	cfg.stats = true
	cfg.jsonOut = filepath.Join(t.TempDir(), "fleet.json")
	var out bytes.Buffer
	rep, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataMb <= 0 {
		t.Error("campaign collected no data")
	}
	raw, err := os.ReadFile(cfg.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var rows []jsonRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("artifact is not benchjson-shaped: %v", err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.N != 12 || r.NsPerOp < 0 || r.Iterations != 1 {
			t.Errorf("malformed row %+v", r)
		}
		seen[r.Case] = true
	}
	for _, want := range []string{"TourWall", "JoinP99", "RegRoundtripP99", "BroadcastFanoutP99", "IntervalCommitP99"} {
		if !seen[want] {
			t.Errorf("artifact missing %s row", want)
		}
	}
	if !bytes.Contains(out.Bytes(), []byte("wire metrics snapshot")) {
		t.Error("-stats output missing the snapshot dump")
	}
}

func TestRunChaosFleet(t *testing.T) {
	cfg := smallConfig(10)
	cfg.chaos = 0.1
	cfg.window = 40 * time.Millisecond
	var out bytes.Buffer
	rep, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataMb <= 0 {
		t.Error("chaos campaign collected no data")
	}
}

func TestArrivalOffsets(t *testing.T) {
	cfg := smallConfig(100)
	cfg.ramp = time.Second

	uni := arrivalOffsets(cfg)
	for i := 1; i < len(uni); i++ {
		if uni[i] < uni[i-1] {
			t.Fatalf("uniform offsets not monotone at %d", i)
		}
	}
	if uni[0] != 0 || uni[99] >= cfg.ramp {
		t.Errorf("uniform ramp spans [%v, %v], want [0, <%v)", uni[0], uni[99], cfg.ramp)
	}

	cfg.arrival = "poisson"
	poi := arrivalOffsets(cfg)
	for i := 1; i < len(poi); i++ {
		if poi[i] < poi[i-1] {
			t.Fatalf("poisson offsets not monotone at %d", i)
		}
	}
	if poi[0] <= 0 {
		t.Error("poisson first arrival should be strictly positive")
	}

	cfg.arrival = "burst"
	for i, d := range arrivalOffsets(cfg) {
		if d != 0 {
			t.Fatalf("burst offset %d = %v, want 0", i, d)
		}
	}
}

func TestRunRejectsUnknownArrival(t *testing.T) {
	cfg := smallConfig(4)
	cfg.arrival = "thundering-herd"
	if _, err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

func TestExactQuantile(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := exactQuantile(lat, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := exactQuantile(lat, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := exactQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
