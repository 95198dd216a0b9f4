// Command mobisink reproduces the paper's evaluation figures.
//
// Usage:
//
//	mobisink -fig 2            # reproduce Figure 2 (50 trials/point)
//	mobisink -fig all -trials 10 -csv results/
//	mobisink -fig 4a -sizes 100,300,600 -seed 7
//
// Output is a per-setting throughput table and ASCII chart on stdout; with
// -csv DIR each figure is also written to DIR/<fig>.csv.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mobisink/internal/energy"
	"mobisink/internal/exp"
	"mobisink/internal/metrics"
	"mobisink/internal/solve"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to reproduce: "+ids()+", or all")
		trials    = flag.Int("trials", 50, "random topologies per data point")
		sizesFlag = flag.String("sizes", "", "comma-separated network sizes (default 100..600)")
		seed      = flag.Int64("seed", 1, "base RNG seed")
		csvDir    = flag.String("csv", "", "directory to write per-figure CSV files")
		condition = flag.String("condition", "sunny", "solar condition: sunny or cloudy")
		jitter    = flag.Float64("jitter", 0.5, "per-sensor budget jitter in [0,1)")
		panel     = flag.Float64("panel", 0, "solar panel area in mm² (default: paper 10×10)")
		workers   = flag.Int("workers", 0, "parallel trial workers (default GOMAXPROCS)")
		faults    = flag.String("faults", "", "comma-separated message drop rates for the fault sweep (default 0,0.05,0.2,0.5); implies -fig faults unless -fig is set explicitly")
		stats     = flag.Bool("stats", false, "after the run, dump the metrics snapshot (solver runtimes, per-tour data, event counts)")
		solvers   = flag.Bool("solvers", false, "list the registered solver algorithms and exit")
	)
	flag.Parse()

	if *solvers {
		for _, name := range solve.Names() {
			fmt.Println(name)
		}
		return
	}

	cfg := exp.Config{
		Trials:       *trials,
		Seed:         *seed,
		Jitter:       *jitter,
		Workers:      *workers,
		PanelAreaMM2: *panel,
	}
	switch *condition {
	case "sunny":
		cfg.Condition = energy.Sunny
	case "cloudy":
		cfg.Condition = energy.PartlyCloudy
	default:
		fatalf("unknown condition %q (want sunny or cloudy)", *condition)
	}
	if *faults != "" {
		for _, tok := range strings.Split(*faults, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || r < 0 || r > 1 {
				fatalf("bad fault rate %q (want a probability in [0,1])", tok)
			}
			cfg.FaultRates = append(cfg.FaultRates, r)
		}
		if !flagSet("fig") {
			*fig = "faults"
		}
	}
	if *sizesFlag != "" {
		for _, tok := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n <= 0 {
				fatalf("bad size %q", tok)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}

	var runs []exp.Experiment
	for _, e := range exp.Experiments {
		if e.ID == *fig || *fig == "all" && e.All {
			runs = append(runs, e)
		}
	}
	if len(runs) == 0 {
		fatalf("unknown figure %q (want %s, all)", *fig, ids())
	}
	for _, e := range runs {
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			fatalf("figure %s: %v", e.ID, err)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fatalf("render: %v", err)
		}
		fmt.Printf("\n[fig %s done in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatalf("mkdir %s: %v", *csvDir, err)
			}
			path := filepath.Join(*csvDir, "fig"+e.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fatalf("create %s: %v", path, err)
			}
			if err := tbl.WriteCSV(f); err != nil {
				fatalf("write %s: %v", path, err)
			}
			if err := f.Close(); err != nil {
				fatalf("close %s: %v", path, err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *stats {
		dumpStats(os.Stdout)
	}
}

// dumpStats prints the process metrics snapshot (histograms flattened
// to their exposition keys), sorted for stable diffing.
func dumpStats(w io.Writer) {
	snap := metrics.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "--- metrics snapshot ---")
	for _, k := range keys {
		fmt.Fprintf(w, "%s %g\n", k, snap[k])
	}
}

// ids lists the experiment ids in registry order.
func ids() string {
	ids := make([]string, len(exp.Experiments))
	for i, e := range exp.Experiments {
		ids[i] = e.ID
	}
	return strings.Join(ids, ", ")
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mobisink: "+format+"\n", args...)
	os.Exit(1)
}
