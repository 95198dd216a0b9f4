package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailStat is a tail percentile together with the evidence behind it.
type tailStat struct {
	Value  float64
	Level  float64 // percentile, e.g. 99.3
	Beyond int     // samples ranked above it
	N      int
}

// tailBeyond is how many samples must rank above a reported tail.
const tailBeyond = 10

// tail returns the highest percentile that has at least ten samples
// beyond it: the eleventh-largest sample, at level 100·(n−10)/n. With
// fewer samples it returns the maximum, at level 100 with nothing beyond.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return tailStat{Value: s[n-1], Level: 100, N: n}
	}
	return tailStat{Value: s[n-1-tailBeyond], Level: 100 * float64(n-tailBeyond) / float64(n), Beyond: tailBeyond, N: n}
}

// schedCall is one scheduler invocation seen by timedScheduler. End is
// zero when only entry timestamps are kept (the untraced run).
type schedCall struct {
	Interval   int
	Start, End time.Time
	Regs       int
}

func (c schedCall) busy() time.Duration {
	if c.End.IsZero() {
		return 0
	}
	return c.End.Sub(c.Start)
}

// intervalSamples derives per-interval loop times, in milliseconds, from
// the scheduler entry timestamps of one tour bracketed by the tour call
// (start) and its return (end). The span from one scheduler entry to the
// next is one full cycle: that schedule and its commit, then the next
// interval's probe and acks. A span over intervals whose scheduler was
// skipped (no registrations) is shared evenly by the intervals it
// covers. The head (start to the first entry: probes and acks only) and
// the stub after the last entry (its schedule, commit and Finish) make
// one more cycle together, shared the same way, so every sample is a
// whole cycle, there is one per interval, and they sum to the tour's
// wall time. nonsched is each share minus the scheduler busy time in
// its span (none when End is zero).
func intervalSamples(start, end time.Time, calls []schedCall, intervals int) (loop, nonsched []float64) {
	share := func(d, busy time.Duration, k int) {
		for i := 0; i < k; i++ {
			loop = append(loop, ms(d)/float64(k))
			nonsched = append(nonsched, ms(d-busy)/float64(k))
		}
	}
	if len(calls) == 0 {
		share(end.Sub(start), 0, intervals)
		return loop, nonsched
	}
	for i := 1; i < len(calls); i++ {
		prev, c := calls[i-1], calls[i]
		share(c.Start.Sub(prev.Start), prev.busy(), c.Interval-prev.Interval)
	}
	first, last := calls[0], calls[len(calls)-1]
	share(first.Start.Sub(start)+end.Sub(last.Start), last.busy(), first.Interval+intervals-last.Interval)
	return loop, nonsched
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histDelta is the bucket-count difference of one Prometheus-style
// histogram between two metrics snapshots: cumulative counts per finite
// upper bound (ascending) and the total.
type histDelta struct {
	Bounds []float64
	Cum    []float64
	Count  float64
	Sum    float64
}

// deltaHist extracts histogram name from two snapshots (exposition keys
// as produced by metrics.Snapshot) and subtracts before from after.
func deltaHist(before, after map[string]float64, name string) histDelta {
	prefix := name + `_bucket{le="`
	type bucket struct{ bound, cum float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		if le == "+Inf" {
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{b, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].bound < bs[j].bound })
	h := histDelta{Count: after[name+"_count"] - before[name+"_count"], Sum: after[name+"_sum"] - before[name+"_sum"]}
	for _, b := range bs {
		h.Bounds = append(h.Bounds, b.bound)
		h.Cum = append(h.Cum, b.cum)
	}
	return h
}

// quantile estimates the q-quantile by linear interpolation inside the
// containing bucket, the estimator metrics.Histogram.Quantile uses.
func (h histDelta) quantile(q float64) float64 {
	if h.Count <= 0 {
		return math.NaN()
	}
	rank := q * h.Count
	prevCum, lower := 0.0, 0.0
	for i, upper := range h.Bounds {
		c := h.Cum[i] - prevCum
		if c > 0 && prevCum+c >= rank {
			return lower + math.Max(0, (rank-prevCum)/c)*(upper-lower)
		}
		prevCum, lower = h.Cum[i], upper
	}
	return lower
}

// tail is the histogram counterpart of tail: the quantile with ten
// observations beyond it.
func (h histDelta) tail() tailStat {
	n := int(h.Count)
	if n <= tailBeyond {
		return tailStat{Value: h.quantile(1), Level: 100, N: n}
	}
	q := float64(n-tailBeyond) / float64(n)
	return tailStat{Value: h.quantile(q), Level: 100 * q, Beyond: tailBeyond, N: n}
}

// sumPrefix adds up every snapshot series of a labelled counter family.
func sumPrefix(snap map[string]float64, family string) float64 {
	total := 0.0
	for k, v := range snap {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}
