// Package matching provides maximum-weight bipartite matching, the engine of
// the special-case algorithms Offline_MaxMatch and Online_MaxMatch
// (paper §VI).
//
// The paper forms a bipartite graph G' with n'_i identical copies of each
// sensor node and runs a maximum weight matching. Identical copies are
// equivalent to a degree constraint, so the production solver here is a
// min-cost max-flow (successive shortest augmenting paths with Dijkstra and
// Johnson potentials) over the *uncopied* graph with per-left-node
// capacities — the same optimum, without inflating the node count. The
// tests check it against the paper's literal copies solved by the O(n³)
// Hungarian algorithm.
package matching

import (
	"context"
	"fmt"
	"math"
)

// Graph is a bipartite graph with nL left nodes (sensors), nR right nodes
// (time slots), per-left-node integer capacities, and weighted edges.
type Graph struct {
	nL, nR  int
	leftCap []int
	edges   []edge // as added
}

type edge struct {
	l, r int
	w    float64
	g    int // conflict group id scoped to l; -1 = unconstrained
}

// NewGraph creates a bipartite graph; every left node starts with capacity 1.
func NewGraph(nl, nr int) (*Graph, error) {
	if nl < 0 || nr < 0 {
		return nil, fmt.Errorf("matching: negative side size (%d, %d)", nl, nr)
	}
	caps := make([]int, nl)
	for i := range caps {
		caps[i] = 1
	}
	return &Graph{nL: nl, nR: nr, leftCap: caps}, nil
}

// SetLeftCap sets the degree capacity of left node l (the paper's n'_i
// sensor copies).
func (g *Graph) SetLeftCap(l, c int) error {
	if l < 0 || l >= g.nL {
		return fmt.Errorf("matching: left node %d out of range", l)
	}
	if c < 0 {
		return fmt.Errorf("matching: negative capacity %d", c)
	}
	g.leftCap[l] = c
	return nil
}

// AddEdge adds an edge between left node l and right node r with weight w.
// Non-positive-weight edges are legal but never matched.
func (g *Graph) AddEdge(l, r int, w float64) error {
	return g.addEdge(l, r, w, -1)
}

// AddEdgeInGroup adds an edge carrying a conflict group id: among all of
// left node l's edges sharing a group, at most one may be matched. Groups
// are scoped per left node — different left nodes may reuse the same id
// freely. This is the fleet constraint "a sensor talks to at most one
// sink per absolute time slot": right nodes are (sink, slot) pairs and
// the group id is the absolute slot. Groups with a single edge add no
// gadget node to the flow network, so graphs whose groups are all
// singletons (any K=1 instance) solve on exactly the legacy network.
func (g *Graph) AddEdgeInGroup(l, r int, w float64, group int) error {
	if group < 0 {
		return fmt.Errorf("matching: negative conflict group %d", group)
	}
	return g.addEdge(l, r, w, group)
}

func (g *Graph) addEdge(l, r int, w float64, group int) error {
	if l < 0 || l >= g.nL || r < 0 || r >= g.nR {
		return fmt.Errorf("matching: edge (%d,%d) out of range (%d×%d)", l, r, g.nL, g.nR)
	}
	g.edges = append(g.edges, edge{l, r, w, group})
	return nil
}

// Result is a maximum-weight degree-constrained matching.
type Result struct {
	// RightMatch[r] is the left node matched to right node r, or -1.
	RightMatch []int
	// LeftDegree[l] is the number of right nodes matched to left node l.
	LeftDegree []int
	// Weight is the total weight of matched edges.
	Weight float64
}

// MaxWeight computes a maximum-weight matching respecting left capacities
// via successive shortest augmenting paths. Runtime O(F·(E log V)) where F
// is the matching size.
func (g *Graph) MaxWeight() *Result {
	res, _ := g.MaxWeightCtx(context.Background())
	return res
}

// MaxWeightCtx is MaxWeight with cancellation: the context is polled once
// per augmenting path (each augmentation is one Dijkstra pass, the natural
// checkpoint granularity), returning ctx.Err() when the context is done.
//
// Conflict groups (AddEdgeInGroup) are enforced with a unit-capacity
// gadget node per (left, group) pair spliced between the left node and the
// group's right nodes: flow through the gadget is ≤ 1, so at most one of
// the group's edges can carry flow, and min-cost max-flow stays an exact
// oracle. Gadgets are only materialized for groups with ≥ 2 positive-weight
// edges; graphs without such groups build byte-identical legacy networks.
func (g *Graph) MaxWeightCtx(ctx context.Context) (*Result, error) {
	// Gadget ids in first-encounter order, one per (left, group) with ≥ 2
	// positive-weight edges.
	type lg struct{ l, g int }
	var groupCount map[lg]int
	for _, e := range g.edges {
		if e.g >= 0 && e.w > 0 {
			if groupCount == nil {
				groupCount = make(map[lg]int)
			}
			groupCount[lg{e.l, e.g}]++
		}
	}
	var gadgetID map[lg]int // (l, group) → gadget index in [0, nG)
	var gadgetOwner []int   // gadget index → owning left node
	if groupCount != nil {
		gadgetID = make(map[lg]int)
		for _, e := range g.edges {
			key := lg{e.l, e.g}
			if e.g < 0 || e.w <= 0 || groupCount[key] < 2 {
				continue
			}
			if _, ok := gadgetID[key]; ok {
				continue
			}
			gadgetID[key] = len(gadgetOwner)
			gadgetOwner = append(gadgetOwner, e.l)
		}
	}
	nG := len(gadgetOwner)

	// Flow network node ids: 0 = source, 1..nL = left, nL+1..nL+nG = gadgets,
	// nL+nG+1..nL+nG+nR = right, nL+nG+nR+1 = sink. Gadgets sit between the
	// left and right ranges so positive-capacity arcs still only go forward
	// in node order, preserving the DAG pass of initPotentials.
	n := g.nL + nG + g.nR + 2
	src, snk := 0, n-1
	rightBase := 1 + g.nL + nG
	f := newFlow(n)
	for l, c := range g.leftCap {
		if c > 0 {
			f.addArc(src, 1+l, c, 0)
		}
	}
	gadgetWired := make(map[lg]bool, nG)
	for _, e := range g.edges {
		if e.w <= 0 {
			continue
		}
		key := lg{e.l, e.g}
		gid, grouped := -1, false
		if e.g >= 0 {
			gid, grouped = gadgetID[key]
		}
		if !grouped {
			f.addArc(1+e.l, rightBase+e.r, 1, -e.w)
			continue
		}
		if !gadgetWired[key] {
			gadgetWired[key] = true
			f.addArc(1+e.l, 1+g.nL+gid, 1, 0)
		}
		f.addArc(1+g.nL+gid, rightBase+e.r, 1, -e.w)
	}
	for r := 0; r < g.nR; r++ {
		f.addArc(rightBase+r, snk, 1, 0)
	}
	if err := f.solve(ctx, src, snk); err != nil {
		return nil, err
	}

	res := &Result{
		RightMatch: make([]int, g.nR),
		LeftDegree: make([]int, g.nL),
	}
	for r := range res.RightMatch {
		res.RightMatch[r] = -1
	}
	// Recover matched edges: arcs into the right range with flow, issued
	// either directly from a left node or from one of its gadgets.
	record := func(l int, a *arc) {
		r := a.to - rightBase
		res.RightMatch[r] = l
		res.LeftDegree[l]++
		res.Weight += -a.cost
	}
	for l := 0; l < g.nL; l++ {
		for _, ai := range f.adj[1+l] {
			a := &f.arcs[ai]
			if a.to >= rightBase && a.to < snk && a.flow > 0 {
				record(l, a)
			}
		}
	}
	for gi, owner := range gadgetOwner {
		for _, ai := range f.adj[1+g.nL+gi] {
			a := &f.arcs[ai]
			if a.to >= rightBase && a.to < snk && a.flow > 0 {
				record(owner, a)
			}
		}
	}
	return res, nil
}

// flow is a small min-cost max-flow solver with float64 costs, successive
// shortest paths, and Johnson potentials (first potentials via DAG order —
// the network source→left→right→sink is acyclic).
type flow struct {
	adj  [][]int
	arcs []arc
	pot  []float64
}

type arc struct {
	to        int
	cap, flow int
	cost      float64
}

func newFlow(n int) *flow {
	return &flow{adj: make([][]int, n), pot: make([]float64, n)}
}

func (f *flow) addArc(u, v, capacity int, cost float64) {
	f.adj[u] = append(f.adj[u], len(f.arcs))
	f.arcs = append(f.arcs, arc{to: v, cap: capacity, cost: cost})
	f.adj[v] = append(f.adj[v], len(f.arcs))
	f.arcs = append(f.arcs, arc{to: u, cap: 0, cost: -cost})
}

type pqItem struct {
	node int
	dist float64
}

// pq is a plain binary min-heap over pqItem, avoiding the interface boxing
// of container/heap in the hot augmentation loop.
type pq struct {
	items []pqItem
}

func (q *pq) push(it pqItem) {
	q.items = append(q.items, it)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].dist <= q.items[i].dist {
			break
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

func (q *pq) pop() pqItem {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.items[l].dist < q.items[small].dist {
			small = l
		}
		if r < last && q.items[r].dist < q.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		q.items[i], q.items[small] = q.items[small], q.items[i]
		i = small
	}
	return top
}

func (q *pq) empty() bool { return len(q.items) == 0 }

func (q *pq) reset() { q.items = q.items[:0] }

const eps = 1e-9

// initPotentials runs one Bellman-Ford-style relaxation sweep set; the
// network is a DAG (source < left < right < sink in node order and all
// positive-capacity arcs go forward), so a single pass in node order
// suffices.
func (f *flow) initPotentials(src int) {
	for i := range f.pot {
		f.pot[i] = math.Inf(1)
	}
	f.pot[src] = 0
	for u := 0; u < len(f.adj); u++ {
		if math.IsInf(f.pot[u], 1) {
			continue
		}
		for _, ai := range f.adj[u] {
			a := f.arcs[ai]
			if a.cap > a.flow && f.pot[u]+a.cost < f.pot[a.to] {
				f.pot[a.to] = f.pot[u] + a.cost
			}
		}
	}
	for i := range f.pot {
		if math.IsInf(f.pot[i], 1) {
			f.pot[i] = 0
		}
	}
}

// solve augments along minimum-cost paths while the path cost is negative
// (every augmentation increases matched weight). The context is polled
// once per augmentation.
func (f *flow) solve(ctx context.Context, src, snk int) error {
	f.initPotentials(src)
	n := len(f.adj)
	dist := make([]float64, n)
	prevArc := make([]int, n)
	done := make([]bool, n)
	var q pq
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
			done[i] = false
		}
		dist[src] = 0
		q.reset()
		q.push(pqItem{src, 0})
		for !q.empty() {
			it := q.pop()
			if done[it.node] {
				continue
			}
			done[it.node] = true
			if it.node == snk {
				break // shortest path to sink settled; stop early
			}
			for _, ai := range f.adj[it.node] {
				a := f.arcs[ai]
				if a.cap <= a.flow || done[a.to] {
					continue
				}
				rc := a.cost + f.pot[it.node] - f.pot[a.to]
				if rc < 0 {
					rc = 0 // float noise; true reduced costs are ≥ 0
				}
				nd := dist[it.node] + rc
				if nd+eps < dist[a.to] {
					dist[a.to] = nd
					prevArc[a.to] = ai
					q.push(pqItem{a.to, nd})
				}
			}
		}
		if math.IsInf(dist[snk], 1) {
			return nil // no augmenting path at all
		}
		// True path cost = dist + pot difference.
		pathCost := dist[snk] + f.pot[snk] - f.pot[src]
		if pathCost >= -eps {
			return nil // augmenting further would not increase weight
		}
		// Update potentials; unsettled nodes clamp at dist[snk], which
		// keeps all reduced costs non-negative after early termination.
		for i := range f.pot {
			d := dist[i]
			if d > dist[snk] {
				d = dist[snk]
			}
			f.pot[i] += d
		}
		// Augment one unit along the path.
		for v := snk; v != src; {
			ai := prevArc[v]
			f.arcs[ai].flow++
			f.arcs[ai^1].flow--
			v = f.arcs[ai^1].to
		}
	}
}
