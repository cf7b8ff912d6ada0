// Package lp implements a transportation-problem solver: the linear
// program of Equation (17) that the paper solves to obtain exact 2-D
// Wasserstein distances between discrete distributions.
//
// The solver is the classical transportation simplex: a northwest-corner
// initial basic feasible solution followed by MODI (u-v) pivoting on the
// basis spanning tree, with deterministic tie-breaking and an iteration
// cap for anti-cycling safety. Zero-mass rows and columns are filtered
// before solving, which matters in practice because spatial histograms are
// sparse.
//
// Solve calls the cost function exactly once per pair of surviving rows
// and columns and keeps the m×n costs, with an m×n flag per basic cell,
// for the whole solve: 9·m·n bytes, at most ~5.6 KB for the 25 cells of
// the paper's d = 5 grids. Every other buffer is sized up front, so a
// pivot allocates nothing. Dantzig pricing with lowest-index ties fixes
// the pivot sequence, and every dual and every pivot cycle is the unique
// path in the basis tree, so the plan is bit-identical to that of a
// solver re-evaluating the costs on every pivot, which the tests keep as
// an oracle.
package lp

import (
	"fmt"
	"math"
	"slices"
)

// Flow is one nonzero entry of an optimal transportation plan.
type Flow struct {
	From, To int
	Amount   float64
}

// Plan is the result of solving a transportation problem.
type Plan struct {
	Flows     []Flow
	Objective float64
}

const (
	reducedCostTol = 1e-10
	balanceRelTol  = 1e-6
)

// Solve minimises Σ cost(i,j)·x(i,j) subject to row sums = supply, column
// sums = demand, x ≥ 0. Supply and demand must be finite, non-negative and
// have equal totals (within a small relative tolerance; demand is rescaled
// to balance exactly). cost is called with original indices, once for each
// pair of a positive supply and a positive demand, and must be finite
// there; Solve refuses a NaN or infinite mass or cost, naming its index.
func Solve(supply, demand []float64, cost func(i, j int) float64) (*Plan, error) {
	if len(supply) == 0 || len(demand) == 0 {
		return nil, fmt.Errorf("lp: empty supply or demand")
	}
	var supTotal, demTotal float64
	for i, s := range supply {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("lp: invalid supply %v at %d", s, i)
		}
		supTotal += s
	}
	for j, d := range demand {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("lp: invalid demand %v at %d", d, j)
		}
		demTotal += d
	}
	if supTotal <= 0 || demTotal <= 0 {
		return nil, fmt.Errorf("lp: zero total mass")
	}
	if math.IsInf(supTotal, 0) || math.IsInf(demTotal, 0) {
		return nil, fmt.Errorf("lp: total mass overflows (supply %v, demand %v)", supTotal, demTotal)
	}
	if math.Abs(supTotal-demTotal) > balanceRelTol*math.Max(supTotal, demTotal) {
		return nil, fmt.Errorf("lp: unbalanced problem (supply %v, demand %v)", supTotal, demTotal)
	}

	// Filter zero-mass rows/columns; rescale demand to balance exactly.
	rows := make([]int, 0, len(supply))
	for i, s := range supply {
		if s > 0 {
			rows = append(rows, i)
		}
	}
	cols := make([]int, 0, len(demand))
	for j, d := range demand {
		if d > 0 {
			cols = append(cols, j)
		}
	}
	m, n := len(rows), len(cols)
	t := newTableau(m, n)
	for k, i := range rows {
		t.a[k] = supply[i]
	}
	scale := supTotal / demTotal
	for k, j := range cols {
		t.b[k] = demand[j] * scale
	}
	for k, i := range rows {
		row := t.cost[k*n : (k+1)*n]
		for l, j := range cols {
			c := cost(i, j)
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("lp: invalid cost %v at (%d, %d)", c, i, j)
			}
			row[l] = c
		}
	}
	if err := t.solve(); err != nil {
		return nil, err
	}

	plan := &Plan{Flows: make([]Flow, 0, len(t.basis))}
	for _, arc := range t.basis {
		if arc.flow > 0 {
			plan.Flows = append(plan.Flows, Flow{
				From:   rows[arc.i],
				To:     cols[arc.j],
				Amount: arc.flow,
			})
			plan.Objective += arc.flow * t.cost[arc.i*n+arc.j]
		}
	}
	return plan, nil
}

type arc struct {
	i, j int
	flow float64
}

// tableau carries the transportation-simplex state. The basis is a
// spanning tree over m row-nodes and n column-nodes with exactly m+n-1
// arcs (some possibly degenerate with zero flow).
type tableau struct {
	m, n  int
	a, b  []float64
	cost  []float64 // m×n row-major: cost[i*n+j]
	basic []bool    // m×n row-major: whether cell (i, j) is in basis
	basis []arc

	// Adjacency of the basis tree, node id = i for rows and m+j for
	// columns: the basis indices of node k's arcs are adj[off[k]:off[k+1]].
	off, adj []int

	// Buffers every pivot reuses.
	u, v              []float64
	visited           []bool
	nodes             []int // computeDuals' stack, treePath's queue, rebuildAdjacency's cursors
	prevArc, prevNode []int
	path              []int
}

func newTableau(m, n int) *tableau {
	total := m + n
	return &tableau{
		m: m, n: n,
		a:        make([]float64, m),
		b:        make([]float64, n),
		cost:     make([]float64, m*n),
		basic:    make([]bool, m*n),
		basis:    make([]arc, 0, total-1),
		off:      make([]int, total+1),
		adj:      make([]int, 2*(total-1)),
		u:        make([]float64, m),
		v:        make([]float64, n),
		visited:  make([]bool, total),
		nodes:    make([]int, 0, total),
		prevArc:  make([]int, total),
		prevNode: make([]int, total),
		path:     make([]int, 0, total),
	}
}

func (t *tableau) solve() error {
	t.northwestCorner()
	t.rebuildAdjacency()

	maxIter := max(20*(t.m+t.n)*max(t.m, t.n), 1000)
	for iter := 0; iter < maxIter; iter++ {
		t.computeDuals()
		ei, ej, red := t.findEntering()
		if red >= -reducedCostTol {
			return nil // optimal
		}
		if err := t.pivot(ei, ej); err != nil {
			return err
		}
	}
	return fmt.Errorf("lp: simplex did not converge within %d iterations", maxIter)
}

// northwestCorner builds an initial basic feasible solution with exactly
// m+n-1 arcs: when a row and column exhaust simultaneously, only the row
// advances and a degenerate zero-flow arc enters the basis at the next
// step.
func (t *tableau) northwestCorner() {
	aRem := slices.Clone(t.a)
	bRem := slices.Clone(t.b)
	i, j := 0, 0
	for i < t.m && j < t.n {
		f := math.Min(aRem[i], bRem[j])
		t.basis = append(t.basis, arc{i: i, j: j, flow: f})
		t.basic[i*t.n+j] = true
		aRem[i] -= f
		bRem[j] -= f
		if i == t.m-1 && j == t.n-1 {
			break
		}
		// Advance exactly one index per step so the basis stays a tree of
		// m+n-1 arcs even under degeneracy.
		if aRem[i] <= bRem[j] && i < t.m-1 || j == t.n-1 {
			i++
		} else {
			j++
		}
	}
}

// rebuildAdjacency regroups the basis arcs by node, each node's arcs in
// basis order.
func (t *tableau) rebuildAdjacency() {
	off := t.off
	clear(off)
	for _, ar := range t.basis {
		off[ar.i+1]++
		off[t.m+ar.j+1]++
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	next := append(t.nodes[:0], off[:len(off)-1]...)
	for idx, ar := range t.basis {
		r, c := ar.i, t.m+ar.j
		t.adj[next[r]] = idx
		next[r]++
		t.adj[next[c]] = idx
		next[c]++
	}
}

// arcsAt returns the basis indices of the arcs at node k.
func (t *tableau) arcsAt(k int) []int {
	return t.adj[t.off[k]:t.off[k+1]]
}

// computeDuals solves u_i + v_j = cost(i,j) over the basis tree, rooted at
// row 0 with u_0 = 0.
func (t *tableau) computeDuals() {
	visited := t.visited
	clear(visited)
	stack := append(t.nodes[:0], 0)
	t.u[0] = 0
	visited[0] = true
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range t.arcsAt(node) {
			ar := t.basis[ai]
			c := t.cost[ar.i*t.n+ar.j]
			var other int
			if node < t.m { // row node: neighbour is the column
				other = t.m + ar.j
				if !visited[other] {
					t.v[ar.j] = c - t.u[ar.i]
				}
			} else { // column node: neighbour is the row
				other = ar.i
				if !visited[other] {
					t.u[ar.i] = c - t.v[ar.j]
				}
			}
			if !visited[other] {
				visited[other] = true
				stack = append(stack, other)
			}
		}
	}
}

// findEntering returns the non-basic cell with the most negative reduced
// cost (Dantzig's rule; ties broken by lowest index for determinism).
func (t *tableau) findEntering() (int, int, float64) {
	bestI, bestJ := -1, -1
	best := 0.0
	n := t.n
	v := t.v[:n]
	for i := 0; i < t.m; i++ {
		ui := t.u[i]
		costs := t.cost[i*n : (i+1)*n]
		basic := t.basic[i*n : (i+1)*n]
		for j, c := range costs {
			if basic[j] {
				continue
			}
			red := c - ui - v[j]
			if red < best {
				best = red
				bestI, bestJ = i, j
			}
		}
	}
	return bestI, bestJ, best
}

// pivot brings (ei, ej) into the basis: find the unique cycle formed with
// the basis tree, shift θ units of flow around it, and drop the arc that
// hits zero.
func (t *tableau) pivot(ei, ej int) error {
	path, err := t.treePath(ei, t.m+ej)
	if err != nil {
		return err
	}
	// The cycle alternates entering(+), path[0](-), path[1](+), ...
	theta := math.Inf(1)
	leaving := -1
	for k, ai := range path {
		if k%2 == 0 { // arcs losing flow
			if t.basis[ai].flow < theta {
				theta = t.basis[ai].flow
				leaving = ai
			}
		}
	}
	if leaving < 0 {
		return fmt.Errorf("lp: pivot found no leaving arc")
	}
	for k, ai := range path {
		if k%2 == 0 {
			t.basis[ai].flow -= theta
		} else {
			t.basis[ai].flow += theta
		}
	}
	out := t.basis[leaving]
	t.basic[out.i*t.n+out.j] = false
	t.basic[ei*t.n+ej] = true
	t.basis[leaving] = arc{i: ei, j: ej, flow: theta}
	t.rebuildAdjacency()
	return nil
}

// treePath returns the basis arcs along the unique tree path from node
// `from` (a row node) to node `to` (a column node), in order. The result
// aliases t.path and is valid until the next call.
func (t *tableau) treePath(from, to int) ([]int, error) {
	visited := t.visited
	clear(visited)
	queue := append(t.nodes[:0], from)
	visited[from] = true
	for head := 0; head < len(queue); head++ {
		node := queue[head]
		if node == to {
			break
		}
		for _, ai := range t.arcsAt(node) {
			ar := t.basis[ai]
			other := ar.i
			if node < t.m {
				other = t.m + ar.j
			}
			if !visited[other] {
				visited[other] = true
				t.prevArc[other] = ai
				t.prevNode[other] = node
				queue = append(queue, other)
			}
		}
	}
	if !visited[to] {
		return nil, fmt.Errorf("lp: basis tree is disconnected")
	}
	path := t.path[:0]
	for node := to; node != from; node = t.prevNode[node] {
		path = append(path, t.prevArc[node])
	}
	// path currently runs to→from; reverse so it runs from→to, matching
	// the alternation convention in pivot (first arc adjacent to `from`).
	slices.Reverse(path)
	return path, nil
}
