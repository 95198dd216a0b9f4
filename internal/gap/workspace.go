package gap

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workspace is the reusable state of one solve: the Builder it compiles
// into, the passes' Scratch, and the item → bin, bin-order and per-bin
// data-cap arrays its caller fills. GetWorkspace draws one from a pool
// that every solve in the process shares and Release puts it back, so
// solves running at once each hold their own and a warm stream of
// solves allocates none of this state. A Workspace serves one solve at
// a time; nothing it returned may be used after Release.
type Workspace struct {
	b       Builder
	s       Scratch
	itemBin []int32
	order   []int
	caps    []float64
	grownAt uint32 // collections when a solve last used most of b's arrays
}

var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace draws a Workspace from the pool.
func GetWorkspace() *Workspace { return workspaces.Get().(*Workspace) }

// Release puts w back in the pool, after shed.
func (w *Workspace) Release() {
	w.shed(collections.Load())
	workspaces.Put(w)
}

const (
	// keepRuns is the compiled runs' worth of builder arrays a workspace
	// keeps whatever its solves use. An interval's solve lists a few
	// hundred runs at most, and a whole tour of the paper's figures a
	// few thousand: its sensors' windows fold into a handful of runs
	// each.
	keepRuns = 1 << 12
	// scratchMax is the largest pass buffer a pooled Workspace keeps.
	scratchMax = 1 << 20
)

// shed drops what w should not carry back into the pool, now being the
// collections the process has run. A whole-tour solve may grow the
// builder's arrays far past an interval's, and the interval solves draw
// the same workspaces, so a workspace would keep a tour's arrays alive
// through every interval after it. So arrays past keepRuns runs stay
// only while solves keep using a quarter of them: once two collections
// pass with none, the next smaller solve sheds all of w's state, as the
// pool drops a workspace left idle for two collections. Pass buffers
// grown past scratchMax entries go at once, and the knapsack arena trims
// its own.
func (w *Workspace) shed(now uint32) {
	if c := &w.b.c; cap(c.First) > keepRuns {
		if 4*len(c.First) >= cap(c.First) {
			w.grownAt = now
		} else if now-w.grownAt >= 2 {
			*w = Workspace{}
		}
	}
	if cap(w.s.claim) > scratchMax || cap(w.s.prof) > scratchMax {
		w.s = Scratch{}
	}
	w.s.ar.Trim()
}

// collections counts the garbage collections the process has run: the
// finalizer of an unreachable sentinel runs once per cycle and sets
// itself again.
var collections atomic.Uint32

type sentinel struct{ _ *byte }

func init() { runtime.SetFinalizer(new(sentinel), countCollection) }

func countCollection(s *sentinel) {
	collections.Add(1)
	runtime.SetFinalizer(s, countCollection)
}

// Builder returns the workspace's Builder.
func (w *Workspace) Builder() *Builder { return &w.b }

// Scratch returns the workspace's pass Scratch.
func (w *Workspace) Scratch() *Scratch { return &w.s }

// ItemBin returns the workspace's item → bin array, n items long.
func (w *Workspace) ItemBin(n int) []int32 {
	w.itemBin = grow(w.itemBin, n)
	return w.itemBin
}

// Order returns the workspace's bin-order buffer, n bins long.
func (w *Workspace) Order(n int) []int {
	w.order = grow(w.order, n)
	return w.order
}

// Caps returns the workspace's per-bin data-cap buffer, n bins long.
func (w *Workspace) Caps(n int) []float64 {
	w.caps = grow(w.caps, n)
	return w.caps
}
