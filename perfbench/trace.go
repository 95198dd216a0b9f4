package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one call into a layer, timed from outside the layer by the
// benchmark. Spans of one tour or instance share Op; Parent is the span
// that made the call (0 for a root). Times are nanoseconds since the
// traced run began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// layer is the span name up to its first dot: "wire.join" → "wire".
// Roots ("op", "check", "probe") are the benchmark's own glue.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return "bench"
}

// tracer keeps spans in memory for one run. A nil *tracer records
// nothing, which is how the untraced run pays no tracing cost beyond a
// nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id (0 when tracing is off).
func (t *tracer) open(op, parent int, name string, start time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNs: int64(start.Sub(t.t0)),
	})
	return len(t.spans)
}

// close ends the span opened as id.
func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = int64(end.Sub(t.t0))
}

// add records a completed span, for calls timed by a wrapper.
func (t *tracer) add(op, parent int, name string, start, end time.Time) {
	t.close(t.open(op, parent, name, start), end)
}

// selfTimes sums self time — a span's duration minus the part its
// children cover — by key(span) over the spans under roots named root,
// and returns it together with the roots' total duration.
func (t *tracer) selfTimes(root string, key func(span) string) (map[string]time.Duration, time.Duration) {
	self := make(map[string]time.Duration)
	if t == nil {
		return self, 0
	}
	under := make([]bool, len(t.spans)+1)
	var total time.Duration
	for _, s := range t.spans { // parents precede children
		if s.Parent == 0 {
			under[s.ID] = s.Name == root
			if under[s.ID] {
				total += s.dur()
			}
		} else {
			under[s.ID] = under[s.Parent]
		}
	}
	for _, s := range t.spans {
		if !under[s.ID] {
			continue
		}
		self[key(s)] += s.dur()
		if s.Parent != 0 {
			self[key(t.spans[s.Parent-1])] -= s.dur()
		}
	}
	return self, total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// largest returns the layer with the most self time.
func largest(self map[string]time.Duration) string {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	best := ""
	for _, l := range layers {
		if best == "" || self[l] > self[best] {
			best = l
		}
	}
	return best
}
