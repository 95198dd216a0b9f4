package gap

import "sync"

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
}

var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace draws a Workspace from the pool.
func GetWorkspace() *Workspace { return workspaces.Get().(*Workspace) }

// Release puts w back in the pool, after shed.
func (w *Workspace) Release() {
	w.shed()
	workspaces.Put(w)
}

const (
	// keepRuns is the most compiled runs' worth of builder arrays a
	// pooled Workspace keeps. An interval's solve lists a few hundred
	// runs, a whole tour of the paper's figures a few thousand, and a
	// path-loss tour, whose windows fold into no runs, one per slot:
	// tens of thousands at n = 600.
	keepRuns = 1 << 16
	// scratchMax is the largest pass buffer a pooled Workspace keeps.
	scratchMax = 1 << 20
)

// shed drops what w should not carry back into the pool: all of its
// state once the builder's arrays grew past keepRuns runs, and pass
// buffers grown past scratchMax entries. The knapsack arena trims its
// own.
func (w *Workspace) shed() {
	if cap(w.b.c.First) > keepRuns {
		*w = Workspace{}
	}
	if cap(w.s.claim) > scratchMax || cap(w.s.prof) > scratchMax {
		w.s = Scratch{}
	}
	w.s.ar.Trim()
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
