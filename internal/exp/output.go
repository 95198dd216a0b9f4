package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteCSV emits the table as CSV with one row per (setting, n, algorithm).
func (t *Table) WriteCSV(w io.Writer) error {
	return writeCSV(w, []string{"figure", "setting", "n", "algorithm",
		"throughput_mb_mean", "throughput_mb_stddev", "throughput_mb_ci95",
		"trials", "fraction_of_upper_bound"}, t.Points, func(p Point) []string {
		return []string{
			t.Name, p.Setting, strconv.Itoa(p.N), p.Algorithm,
			fmt.Sprintf("%.4f", p.Mb.Mean),
			fmt.Sprintf("%.4f", p.Mb.StdDev),
			fmt.Sprintf("%.4f", p.Mb.CI95),
			strconv.Itoa(p.Mb.N),
			fmt.Sprintf("%.4f", p.FracUB),
		}
	})
}

// writeCSV writes the header and then one row per point.
func writeCSV[P any](w io.Writer, header []string, points []P, row func(P) []string) error {
	rows := [][]string{header}
	for _, p := range points {
		rows = append(rows, row(p))
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// settings returns the distinct settings in first-seen order.
func (t *Table) settings() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range t.Points {
		if !seen[p.Setting] {
			seen[p.Setting] = true
			out = append(out, p.Setting)
		}
	}
	return out
}

// algorithms returns the distinct algorithms in first-seen order.
func (t *Table) algorithms() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range t.Points {
		if !seen[p.Algorithm] {
			seen[p.Algorithm] = true
			out = append(out, p.Algorithm)
		}
	}
	return out
}

// sizes returns the distinct sizes, ascending.
func (t *Table) sizes() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range t.Points {
		if !seen[p.N] {
			seen[p.N] = true
			out = append(out, p.N)
		}
	}
	sort.Ints(out)
	return out
}

func (t *Table) point(setting string, n int, alg string) (Point, bool) {
	for _, p := range t.Points {
		if p.Setting == setting && p.N == n && p.Algorithm == alg {
			return p, true
		}
	}
	return Point{}, false
}

// Render writes a human-readable report: per setting, a table of throughput
// (Mb/tour) by n and algorithm, followed by an ASCII chart of the means.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Description); err != nil {
		return err
	}
	algs := t.algorithms()
	for _, setting := range t.settings() {
		fmt.Fprintf(w, "\n-- %s --\n", setting)
		fmt.Fprintf(w, "%8s", "n")
		for _, a := range algs {
			fmt.Fprintf(w, " %18s", a)
		}
		fmt.Fprintln(w)
		for _, n := range t.sizes() {
			fmt.Fprintf(w, "%8d", n)
			for _, a := range algs {
				if p, ok := t.point(setting, n, a); ok {
					fmt.Fprintf(w, " %11.2f ±%5.2f", p.Mb.Mean, p.Mb.CI95)
				} else {
					fmt.Fprintf(w, " %18s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		t.renderChart(w, setting, algs)
	}
	return nil
}

// renderChart draws a fixed-height ASCII chart of mean throughput vs n for
// one setting.
func (t *Table) renderChart(w io.Writer, setting string, algs []string) {
	const height = 12
	sizes := t.sizes()
	maxV := 0.0
	series := make(map[string][]float64, len(algs))
	for _, a := range algs {
		vals := make([]float64, 0, len(sizes))
		for _, n := range sizes {
			if p, ok := t.point(setting, n, a); ok {
				vals = append(vals, p.Mb.Mean)
				if p.Mb.Mean > maxV {
					maxV = p.Mb.Mean
				}
			} else {
				vals = append(vals, 0)
			}
		}
		series[a] = vals
	}
	if maxV == 0 {
		return
	}
	marks := []byte{'o', '*', '+', 'x', '#', '@'}
	fmt.Fprintf(w, "\n  throughput (Mb/tour), columns = n %v\n", sizes)
	colw := 6
	for row := height; row >= 1; row-- {
		thresh := maxV * float64(row) / height
		line := make([]byte, len(sizes)*colw)
		for i := range line {
			line[i] = ' '
		}
		for ai, a := range algs {
			for si, v := range series[a] {
				if v >= thresh {
					pos := si*colw + colw/2
					if line[pos] == ' ' {
						line[pos] = marks[ai%len(marks)]
					} else {
						line[pos] = '%' // overlapping series
					}
				}
			}
		}
		fmt.Fprintf(w, "%8.1f |%s\n", thresh, strings.TrimRight(string(line), " "))
	}
	fmt.Fprintf(w, "%8s +%s\n", "", strings.Repeat("-", len(sizes)*colw))
	legend := make([]string, 0, len(algs))
	for ai, a := range algs {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[ai%len(marks)], a))
	}
	fmt.Fprintf(w, "  %s (%%=overlap)\n", strings.Join(legend, "  "))
}
