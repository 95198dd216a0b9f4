package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// report prints one phase's end-to-end metrics with their sample counts,
// the error rate, and — on the wire workloads — the interval tail as a
// share of the paper's physical interval Γ·τ = R/r_s.
func report(w io.Writer, mode string, p *phase, e2e map[string]metric) {
	fmt.Fprintf(w, "%s run: %d operations attempted, %d failed (error_rate %.4g)\n",
		mode, p.attempted, p.failed, float64(p.failed)/float64(p.attempted))
	counts := map[string]int{
		"setup_s": len(p.samples["setup_s"]), "tour_s": len(p.samples["tour_s"]),
		"interval_ms.p50": len(p.samples["interval_ms"]), "inst_per_s": len(p.samples["op_rate"]),
		"data_mb": len(p.quality), "offline_frac_ub": len(p.quality),
	}
	for _, d := range endToEndDefs {
		m := e2e[d.name]
		note := ""
		switch d.name {
		case "interval_ms.tail":
			t, passes := p.intervalTail()
			note = fmt.Sprintf("p%.4g, %d samples beyond, n=%d", t.Level, t.Beyond, t.N)
			if passes > 0 {
				note = fmt.Sprintf("median over %d passes of the pass tail: %s per pass", passes, note)
			}
		case "max_rss_mb":
			note = "process peak"
		default:
			note = fmt.Sprintf("n=%d", counts[d.name])
			if d.name == "data_mb" || d.name == "offline_frac_ub" {
				note = fmt.Sprintf("mean over %d instances", counts[d.name])
			}
		}
		fmt.Fprintf(w, "  %-18s %12.6g %-6s (%s)\n", d.name, m.Value, m.Unit, note)
	}
	if r := p.samples["restart_ms"]; len(r) > 0 {
		fmt.Fprintf(w, "  %-18s %12.6g %-6s (n=%d; NewSink + replay-only RunTour on the completed journal)\n",
			"restart_ms", median(r), "ms", len(r))
	}
	if p.gammaTau > 0 {
		t := e2e["interval_ms.tail"].Value
		fmt.Fprintf(w, "  paper budget: interval_ms.tail %.4g ms is %.4g%% of the physical interval Γ·τ = R/r_s = %g s\n",
			t, 100*t/(p.gammaTau*1000), p.gammaTau)
	}
}

// reportOverhead prints the tracing overhead: traced minus untraced.
func reportOverhead(w io.Writer, plain, traced map[string]metric) {
	fmt.Fprintln(w, "tracing overhead (traced − untraced):")
	for _, d := range endToEndDefs {
		a, b := plain[d.name].Value, traced[d.name].Value
		fmt.Fprintf(w, "  %-18s %+12.6g %-6s (%+.2f%%)\n", d.name, b-a, d.unit, 100*(b-a)/a)
	}
}

// perLayerDefs are the per-layer metrics, in BENCHMARK.json order.
var perLayerDefs = []struct{ name, unit string }{
	{"sched.ms.p50", "ms"},
	{"sched.ms.tail", "ms"},
	{"sched.calls", "count"},
	{"sched.regs_mean", "count"},
	{"loop.nonsched_ms.p50", "ms"},
	{"online.run_ms.p50", "ms"},
	{"online.protocol_ms.p50", "ms"},
	{"core.build_ms.p50", "ms"},
	{"core.offline_appro_ms.p50", "ms"},
	{"core.upper_bound_ms.p50", "ms"},
	{"wal.append_us.p50", "us"},
	{"wal.append_us.tail", "us"},
	{"wal.replay_ms", "ms"},
	{"wal.bytes", "bytes"},
	{"wire.frames_sent", "count"},
	{"wire.frames_recv", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.mallocs_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"self.core_pct", "%"},
	{"self.online_pct", "%"},
	{"self.sched_pct", "%"},
	{"self.wire_pct", "%"},
	{"self.wal_pct", "%"},
}

// selfLayers are the layers the self-time table reports.
var selfLayers = []string{"core", "online", "sched", "wire", "wal"}

// predictedLargest is, per workload, the layer expected to have the
// most self time when the benchmark was defined. The run prints what it
// found beside it; a mismatch is a finding, not a failure.
var predictedLargest = map[string]string{
	"fleet":   "wire (registration windows: wire.register_ms)",
	"durable": "sched plus wal (wal.append)",
	"sweep":   "core (core.offline_appro) plus online (online.run)",
}

// perLayer computes the traced phase's per-layer metrics and prints the
// self-time attribution and the wire histograms' view of the phase.
func perLayer(w io.Writer, workload string, p *phase) (map[string]metric, error) {
	s := p.samples
	orZero := func(xs []float64) float64 { // a layer the workload never calls
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	vals := map[string]float64{
		"sched.ms.p50":              median(s["sched_ms"]),
		"sched.ms.tail":             tail(s["sched_ms"]).Value,
		"sched.calls":               mean(s["sched_calls"]),
		"sched.regs_mean":           mean(s["sched_regs"]),
		"loop.nonsched_ms.p50":      median(s["nonsched_ms"]),
		"online.run_ms.p50":         median(s["online_run_ms"]),
		"online.protocol_ms.p50":    median(s["online_protocol_ms"]),
		"core.build_ms.p50":         median(s["core_build_ms"]),
		"core.offline_appro_ms.p50": median(s["core_offline_ms"]),
		"core.upper_bound_ms.p50":   median(s["core_ub_ms"]),
		"wal.append_us.p50":         median(s["wal_append_us"]),
		"wal.append_us.tail":        tail(s["wal_append_us"]).Value,
		"wal.replay_ms":             median(s["wal_replay_ms"]),
		"wal.bytes":                 median(s["wal_bytes"]),
		"wire.frames_sent":          orZero(s["frames_sent"]),
		"wire.frames_recv":          orZero(s["frames_recv"]),
		"go.alloc_bytes_per_op":     mean(s["go_alloc_bytes"]),
		"go.mallocs_per_op":         mean(s["go_mallocs"]),
		"go.gc_pause_ms":            mean(s["go_gc_pause_ms"]),
	}
	self, total := p.tr.selfTimes("op", func(sp span) string { return sp.layer() })
	// The sink journals inside RunTour and replays inside NewSink, where
	// no outside span reaches; move the probe's estimate of that time
	// from wire to wal.
	self["wire"] -= p.walEst
	self["wal"] += p.walEst
	for _, l := range selfLayers {
		vals["self."+l+"_pct"] = 100 * float64(self[l]) / float64(total)
	}

	fmt.Fprintf(w, "self time by layer over %d measured operations (%.4g s):\n", len(s["go_mallocs"]), total.Seconds())
	printShares(w, self, total)
	if p.walEst > 0 {
		fmt.Fprintf(w, "  (wal includes %.4g s estimated from the journal probe: the appends inside RunTour and the replay inside NewSink)\n", p.walEst.Seconds())
	}
	top := largest(self)
	fmt.Fprintf(w, "largest self time: %s (%.4g%%); predicted: %s\n",
		top, 100*float64(self[top])/float64(total), predictedLargest[workload])
	names, _ := p.tr.selfTimes("op", func(sp span) string { return sp.Name })
	fmt.Fprintln(w, "self time by call:")
	printShares(w, names, total)
	if len(s["frames_sent"]) > 0 {
		reportWire(w, p)
	}

	out := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out, finite(out)
}

func printShares(w io.Writer, self map[string]time.Duration, total time.Duration) {
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return self[keys[i]] > self[keys[j]] })
	for _, k := range keys {
		fmt.Fprintf(w, "  %-20s %10.4g ms  %6.2f%%\n", k, ms(self[k]), 100*float64(self[k])/float64(total))
	}
}

// reportWire prints the wire layer's own histograms over the traced
// phase (before/after deltas of the process-global registry) and the
// timed DialSensor calls.
func reportWire(w io.Writer, p *phase) {
	join := p.samples["join_ms"]
	jt := tail(join)
	reg := deltaHist(p.snap0, p.snap1, "wire_registration_roundtrip_seconds")
	rt := reg.tail()
	fan := deltaHist(p.snap0, p.snap1, "wire_broadcast_fanout_ns")
	commit := deltaHist(p.snap0, p.snap1, "wire_interval_commit_ns")
	fmt.Fprintln(w, "wire layer (traced phase):")
	fmt.Fprintf(w, "  wire.join_ms.p50       %10.4g ms  tail %.4g ms (p%.4g, %d beyond, n=%d)\n", median(join), jt.Value, jt.Level, jt.Beyond, jt.N)
	fmt.Fprintf(w, "  wire.register_ms.p50   %10.4g ms  tail %.4g ms (p%.4g, %d beyond, n=%d)\n", 1000*reg.quantile(0.5), 1000*rt.Value, rt.Level, rt.Beyond, rt.N)
	fmt.Fprintf(w, "  wire.fanout_us.p50     %10.4g us  (n=%d)\n", fan.quantile(0.5)/1e3, int(fan.Count))
	fmt.Fprintf(w, "  wire.commit_ms.p50     %10.4g ms  (n=%d)\n", commit.quantile(0.5)/1e6, int(commit.Count))
	fmt.Fprintf(w, "  registration windows   %10.4g%% of RunTour wall time\n", 100*reg.Sum/sum(p.samples["tour_s"]))
	fmt.Fprintf(w, "  wire.nonsched_ms.p50   %10.4g ms  (interval minus scheduler busy time)\n", median(p.samples["nonsched_ms"]))
	fmt.Fprintf(w, "  wire.frames per tour   %10.6g sent, %.6g received\n", median(p.samples["frames_sent"]), median(p.samples["frames_recv"]))
}
