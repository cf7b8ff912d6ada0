package lp

import (
	"fmt"
	"math"
)

// oracleSolve is the solver Solve replaced, kept verbatim as its oracle:
// it re-evaluates the cost callback on every pivot, rebuilds a map of
// basic cells per pivot and allocates fresh traversal slices.
//
// It minimises Σ cost(i,j)·x(i,j) subject to row sums = supply, column
// sums = demand, x ≥ 0. Supply and demand must be non-negative and have
// equal totals (within a small relative tolerance; demand is rescaled to
// balance exactly). cost is called with original indices.
func oracleSolve(supply, demand []float64, cost func(i, j int) float64) (*Plan, error) {
	if len(supply) == 0 || len(demand) == 0 {
		return nil, fmt.Errorf("lp: empty supply or demand")
	}
	var supTotal, demTotal float64
	for i, s := range supply {
		if s < 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("lp: invalid supply %v at %d", s, i)
		}
		supTotal += s
	}
	for j, d := range demand {
		if d < 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("lp: invalid demand %v at %d", d, j)
		}
		demTotal += d
	}
	if supTotal <= 0 || demTotal <= 0 {
		return nil, fmt.Errorf("lp: zero total mass")
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
	a := make([]float64, m)
	for k, i := range rows {
		a[k] = supply[i]
	}
	b := make([]float64, n)
	scale := supTotal / demTotal
	for k, j := range cols {
		b[k] = demand[j] * scale
	}

	t := &oracleTableau{
		m: m, n: n,
		a: a, b: b,
		cost: func(i, j int) float64 { return cost(rows[i], cols[j]) },
	}
	if err := t.solve(); err != nil {
		return nil, err
	}

	plan := &Plan{}
	for _, arc := range t.basis {
		if arc.flow > 0 {
			plan.Flows = append(plan.Flows, Flow{
				From:   rows[arc.i],
				To:     cols[arc.j],
				Amount: arc.flow,
			})
			plan.Objective += arc.flow * t.cost(arc.i, arc.j)
		}
	}
	return plan, nil
}

type oracleArc struct {
	i, j int
	flow float64
}

// oracleTableau carries the transportation-simplex state. The basis is a
// spanning tree over m row-nodes and n column-nodes with exactly m+n-1
// arcs (some possibly degenerate with zero flow).
type oracleTableau struct {
	m, n  int
	a, b  []float64
	cost  func(i, j int) float64
	basis []oracleArc

	// adjacency: node id = i for rows, m+j for columns
	adj [][]int // node -> indices into basis
}

func (t *oracleTableau) solve() error {
	t.northwestCorner()
	t.rebuildAdjacency()

	maxIter := 20 * (t.m + t.n) * oracleMaxInt(t.m, t.n)
	if maxIter < 1000 {
		maxIter = 1000
	}
	u := make([]float64, t.m)
	v := make([]float64, t.n)
	for iter := 0; iter < maxIter; iter++ {
		t.computeDuals(u, v)
		ei, ej, red := t.findEntering(u, v)
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
func (t *oracleTableau) northwestCorner() {
	aRem := make([]float64, t.m)
	copy(aRem, t.a)
	bRem := make([]float64, t.n)
	copy(bRem, t.b)
	t.basis = make([]oracleArc, 0, t.m+t.n-1)
	i, j := 0, 0
	for i < t.m && j < t.n {
		f := math.Min(aRem[i], bRem[j])
		t.basis = append(t.basis, oracleArc{i: i, j: j, flow: f})
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

func (t *oracleTableau) rebuildAdjacency() {
	total := t.m + t.n
	if t.adj == nil {
		t.adj = make([][]int, total)
	}
	for k := range t.adj {
		t.adj[k] = t.adj[k][:0]
	}
	for idx, arc := range t.basis {
		t.adj[arc.i] = append(t.adj[arc.i], idx)
		t.adj[t.m+arc.j] = append(t.adj[t.m+arc.j], idx)
	}
}

// computeDuals solves u_i + v_j = cost(i,j) over the basis tree, rooted at
// row 0 with u_0 = 0.
func (t *oracleTableau) computeDuals(u, v []float64) {
	total := t.m + t.n
	visited := make([]bool, total)
	stack := []int{0}
	u[0] = 0
	visited[0] = true
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range t.adj[node] {
			ar := t.basis[ai]
			var other int
			if node < t.m { // row node: neighbour is the column
				other = t.m + ar.j
				if !visited[other] {
					v[ar.j] = t.cost(ar.i, ar.j) - u[ar.i]
				}
			} else { // column node: neighbour is the row
				other = ar.i
				if !visited[other] {
					u[ar.i] = t.cost(ar.i, ar.j) - v[ar.j]
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
func (t *oracleTableau) findEntering(u, v []float64) (int, int, float64) {
	bestI, bestJ := -1, -1
	best := 0.0
	inBasis := make(map[int]bool, len(t.basis))
	for _, ar := range t.basis {
		inBasis[ar.i*t.n+ar.j] = true
	}
	for i := 0; i < t.m; i++ {
		for j := 0; j < t.n; j++ {
			if inBasis[i*t.n+j] {
				continue
			}
			red := t.cost(i, j) - u[i] - v[j]
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
func (t *oracleTableau) pivot(ei, ej int) error {
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
	t.basis[leaving] = oracleArc{i: ei, j: ej, flow: theta}
	t.rebuildAdjacency()
	return nil
}

// treePath returns the basis arcs along the unique tree path from node
// `from` (a row node) to node `to` (a column node), in order.
func (t *oracleTableau) treePath(from, to int) ([]int, error) {
	total := t.m + t.n
	prevArc := make([]int, total)
	prevNode := make([]int, total)
	for k := range prevArc {
		prevArc[k] = -1
		prevNode[k] = -1
	}
	visited := make([]bool, total)
	queue := []int{from}
	visited[from] = true
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if node == to {
			break
		}
		for _, ai := range t.adj[node] {
			ar := t.basis[ai]
			other := ar.i
			if node < t.m {
				other = t.m + ar.j
			}
			if !visited[other] {
				visited[other] = true
				prevArc[other] = ai
				prevNode[other] = node
				queue = append(queue, other)
			}
		}
	}
	if !visited[to] {
		return nil, fmt.Errorf("lp: basis tree is disconnected")
	}
	var path []int
	for node := to; node != from; node = prevNode[node] {
		path = append(path, prevArc[node])
	}
	// path currently runs to→from; reverse so it runs from→to, matching
	// the alternation convention in pivot (first arc adjacent to `from`).
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path, nil
}

func oracleMaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
