package lp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"dpspatial/internal/rng"
)

func solveOrFail(t *testing.T, supply, demand []float64, cost func(i, j int) float64) *Plan {
	t.Helper()
	plan, err := Solve(supply, demand, cost)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestSolveTrivialSingleCell(t *testing.T) {
	plan := solveOrFail(t, []float64{5}, []float64{5}, func(i, j int) float64 { return 3 })
	if math.Abs(plan.Objective-15) > 1e-9 {
		t.Fatalf("objective %v, want 15", plan.Objective)
	}
}

func TestSolveIdentityIsFree(t *testing.T) {
	supply := []float64{1, 2, 3}
	cost := func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 1
	}
	plan := solveOrFail(t, supply, supply, cost)
	if plan.Objective > 1e-12 {
		t.Fatalf("identical marginals cost %v, want 0", plan.Objective)
	}
}

func TestSolveKnown2x2(t *testing.T) {
	// Supply (1,1), demand (1,1), costs [[0,2],[2,0]] vs [[2,0],[0,2]]:
	// the optimum pairs up the zero-cost arcs.
	plan := solveOrFail(t, []float64{1, 1}, []float64{1, 1}, func(i, j int) float64 {
		if i == j {
			return 2
		}
		return 0
	})
	if math.Abs(plan.Objective) > 1e-12 {
		t.Fatalf("objective %v, want 0 (swap assignment)", plan.Objective)
	}
}

func TestSolveKnown3x3(t *testing.T) {
	// Classic textbook instance with known optimum.
	supply := []float64{20, 30, 25}
	demand := []float64{10, 35, 30}
	costs := [][]float64{
		{2, 3, 1},
		{5, 4, 8},
		{5, 6, 8},
	}
	plan := solveOrFail(t, supply, demand, func(i, j int) float64 { return costs[i][j] })
	// Verify optimality against brute-force over vertices via LP duality:
	// here we simply check against an exhaustive search on a fine integer
	// grid of feasible plans (flows are integral at vertices for integral
	// marginals).
	best := bruteForce3x3(supply, demand, costs)
	if math.Abs(plan.Objective-best) > 1e-6 {
		t.Fatalf("objective %v, brute force %v", plan.Objective, best)
	}
}

// bruteForce3x3 enumerates all integral feasible plans of a 3x3
// transportation problem (valid because some optimal vertex is integral
// when marginals are integral).
func bruteForce3x3(supply, demand []float64, costs [][]float64) float64 {
	best := math.Inf(1)
	s0, s1 := int(supply[0]), int(supply[1])
	d0, d1 := int(demand[0]), int(demand[1])
	for x00 := 0; x00 <= min(s0, d0); x00++ {
		for x01 := 0; x01 <= min(s0-x00, d1); x01++ {
			x02 := s0 - x00 - x01
			for x10 := 0; x10 <= min(s1, d0-x00); x10++ {
				for x11 := 0; x11 <= min(s1-x10, d1-x01); x11++ {
					x12 := s1 - x10 - x11
					x20 := d0 - x00 - x10
					x21 := d1 - x01 - x11
					x22 := int(supply[2]) - x20 - x21
					if x02 < 0 || x12 < 0 || x20 < 0 || x21 < 0 || x22 < 0 {
						continue
					}
					if x02+x12+x22 != int(demand[2]) {
						continue
					}
					c := float64(x00)*costs[0][0] + float64(x01)*costs[0][1] + float64(x02)*costs[0][2] +
						float64(x10)*costs[1][0] + float64(x11)*costs[1][1] + float64(x12)*costs[1][2] +
						float64(x20)*costs[2][0] + float64(x21)*costs[2][1] + float64(x22)*costs[2][2]
					if c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSolveMatchesMonotoneCouplingOnLine(t *testing.T) {
	// For distributions on a line with convex cost |x-y|^p, the monotone
	// (quantile) coupling is optimal. Compare the LP objective against it.
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(8)
		supply := make([]float64, n)
		demand := make([]float64, n)
		for i := range supply {
			supply[i] = r.Float64()
			demand[i] = r.Float64()
		}
		normalize(supply)
		normalize(demand)
		for _, p := range []float64{1, 2} {
			cost := func(i, j int) float64 {
				return math.Pow(math.Abs(float64(i-j)), p)
			}
			plan := solveOrFail(t, supply, demand, cost)
			want := monotoneCouplingCost(supply, demand, p)
			if math.Abs(plan.Objective-want) > 1e-8 {
				t.Fatalf("trial %d p=%v: LP %v, monotone coupling %v", trial, p, plan.Objective, want)
			}
		}
	}
}

func normalize(v []float64) {
	total := 0.0
	for _, x := range v {
		total += x
	}
	for i := range v {
		v[i] /= total
	}
}

// monotoneCouplingCost computes the optimal 1-D transport cost by pairing
// quantiles in order.
func monotoneCouplingCost(a, b []float64, p float64) float64 {
	i, j := 0, 0
	ra, rb := a[0], b[0]
	cost := 0.0
	for i < len(a) && j < len(b) {
		move := math.Min(ra, rb)
		cost += move * math.Pow(math.Abs(float64(i-j)), p)
		ra -= move
		rb -= move
		if ra <= 1e-15 {
			i++
			if i < len(a) {
				ra = a[i]
			}
		}
		if rb <= 1e-15 {
			j++
			if j < len(b) {
				rb = b[j]
			}
		}
	}
	return cost
}

func TestSolvePlanIsFeasible(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		m, n := 4+r.Intn(5), 4+r.Intn(5)
		supply := make([]float64, m)
		demand := make([]float64, n)
		for i := range supply {
			supply[i] = r.Float64()
		}
		for j := range demand {
			demand[j] = r.Float64()
		}
		normalize(supply)
		normalize(demand)
		costM := make([][]float64, m)
		for i := range costM {
			costM[i] = make([]float64, n)
			for j := range costM[i] {
				costM[i][j] = r.Float64() * 10
			}
		}
		plan := solveOrFail(t, supply, demand, func(i, j int) float64 { return costM[i][j] })
		rowSum := make([]float64, m)
		colSum := make([]float64, n)
		for _, f := range plan.Flows {
			if f.Amount < 0 {
				t.Fatalf("negative flow %v", f)
			}
			rowSum[f.From] += f.Amount
			colSum[f.To] += f.Amount
		}
		for i := range rowSum {
			if math.Abs(rowSum[i]-supply[i]) > 1e-9 {
				t.Fatalf("trial %d: row %d ships %v, supply %v", trial, i, rowSum[i], supply[i])
			}
		}
		for j := range colSum {
			if math.Abs(colSum[j]-demand[j]) > 1e-9 {
				t.Fatalf("trial %d: col %d receives %v, demand %v", trial, j, colSum[j], demand[j])
			}
		}
	}
}

func TestSolveNeverBeatenByRandomFeasiblePlans(t *testing.T) {
	// The LP optimum must lower-bound the cost of arbitrary feasible
	// plans, here independent (product) couplings.
	r := rng.New(13)
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(6)
		supply := make([]float64, n)
		demand := make([]float64, n)
		for i := range supply {
			supply[i] = r.Float64() + 0.01
			demand[i] = r.Float64() + 0.01
		}
		normalize(supply)
		normalize(demand)
		costM := make([][]float64, n)
		for i := range costM {
			costM[i] = make([]float64, n)
			for j := range costM[i] {
				costM[i][j] = r.Float64() * 5
			}
		}
		plan := solveOrFail(t, supply, demand, func(i, j int) float64 { return costM[i][j] })
		product := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				product += supply[i] * demand[j] * costM[i][j]
			}
		}
		if plan.Objective > product+1e-9 {
			t.Fatalf("trial %d: LP %v exceeds product coupling %v", trial, plan.Objective, product)
		}
	}
}

func TestSolveDegenerateManyZeros(t *testing.T) {
	supply := []float64{0, 0, 1, 0, 0, 1, 0}
	demand := []float64{1, 0, 0, 0, 1, 0, 0}
	plan := solveOrFail(t, supply, demand, func(i, j int) float64 {
		return math.Abs(float64(i - j))
	})
	// Mass at 2 and 5 must travel to 0 and 4: optimal pairing 2→0 (cost 2)
	// and 5→4 (cost 1) for total 3; the crossed pairing costs 3+5.
	if math.Abs(plan.Objective-3) > 1e-9 {
		t.Fatalf("objective %v, want 3", plan.Objective)
	}
}

func TestSolveRejectsInvalidInput(t *testing.T) {
	cost := func(i, j int) float64 { return 1 }
	if _, err := Solve(nil, []float64{1}, cost); err == nil {
		t.Fatal("empty supply accepted")
	}
	if _, err := Solve([]float64{1}, nil, cost); err == nil {
		t.Fatal("empty demand accepted")
	}
	if _, err := Solve([]float64{-1, 2}, []float64{1}, cost); err == nil {
		t.Fatal("negative supply accepted")
	}
	if _, err := Solve([]float64{1}, []float64{2}, cost); err == nil {
		t.Fatal("unbalanced problem accepted")
	}
	if _, err := Solve([]float64{0}, []float64{0}, cost); err == nil {
		t.Fatal("zero-mass problem accepted")
	}
	if _, err := Solve([]float64{math.NaN()}, []float64{1}, cost); err == nil {
		t.Fatal("NaN supply accepted")
	}
}

func TestSolveSymmetricCostSymmetricObjective(t *testing.T) {
	r := rng.New(17)
	n := 6
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.Float64() + 0.1
		b[i] = r.Float64() + 0.1
	}
	normalize(a)
	normalize(b)
	cost := func(i, j int) float64 { d := float64(i - j); return d * d }
	ab := solveOrFail(t, a, b, cost)
	ba := solveOrFail(t, b, a, cost)
	if math.Abs(ab.Objective-ba.Objective) > 1e-9 {
		t.Fatalf("W(a,b)=%v but W(b,a)=%v", ab.Objective, ba.Objective)
	}
}

func TestSolveLargerGridConverges(t *testing.T) {
	// 15x15 grid squared-Euclidean instance (the size the paper solves
	// exactly): must converge and match the monotone lower bound sanity.
	const d = 15
	n := d * d
	r := rng.New(23)
	supply := make([]float64, n)
	demand := make([]float64, n)
	for i := range supply {
		supply[i] = r.Float64()
		demand[i] = r.Float64()
	}
	normalize(supply)
	normalize(demand)
	cost := func(i, j int) float64 {
		xi, yi := i%d, i/d
		xj, yj := j%d, j/d
		dx, dy := float64(xi-xj), float64(yi-yj)
		return dx*dx + dy*dy
	}
	plan := solveOrFail(t, supply, demand, cost)
	if plan.Objective < 0 {
		t.Fatalf("negative objective %v", plan.Objective)
	}
	// Sanity: moving everything at most the grid diameter bounds the cost.
	if plan.Objective > 2*float64(d*d) {
		t.Fatalf("objective %v exceeds diameter bound", plan.Objective)
	}
}

func TestPlanFlowsSortedDeterministic(t *testing.T) {
	supply := []float64{1, 1}
	demand := []float64{1, 1}
	cost := func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 1
	}
	p1 := solveOrFail(t, supply, demand, cost)
	p2 := solveOrFail(t, supply, demand, cost)
	key := func(p *Plan) []int {
		var k []int
		for _, f := range p.Flows {
			k = append(k, f.From*100+f.To)
		}
		sort.Ints(k)
		return k
	}
	k1, k2 := key(p1), key(p2)
	if len(k1) != len(k2) {
		t.Fatal("non-deterministic plan structure")
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("non-deterministic plan contents")
		}
	}
}

// gridCost is the cell-unit cost ‖x−y‖ᵖ between the cells of a d×d grid,
// evaluated as transport.WpExactPow does.
func gridCost(d int, p float64) func(i, j int) float64 {
	return func(i, j int) float64 {
		dist := math.Hypot(float64(i%d-j%d), float64(i/d-j/d))
		return math.Pow(dist, p)
	}
}

// quarterMasses returns two d×d histograms holding whole quarters, with
// equal totals and some massless cells, so that the simplex meets ties
// and degenerate pivots.
func quarterMasses(r *rng.RNG, d int) (supply, demand []float64) {
	n := d * d
	supply = make([]float64, n)
	for i := range supply {
		supply[i] = float64(r.Intn(5)) / 4
	}
	supply[r.Intn(n)] += 1 // so the total is positive
	demand = slices.Clone(supply)
	for moves := 0; moves < 2*n; moves++ {
		from, to := r.Intn(n), r.Intn(n)
		if demand[from] >= 0.25 {
			demand[from] -= 0.25
			demand[to] += 0.25
		}
	}
	return supply, demand
}

// holedMasses returns a random normalised d×d histogram with about a
// third of its cells massless.
func holedMasses(r *rng.RNG, d int) []float64 {
	h := make([]float64, d*d)
	for i := range h {
		if r.Intn(3) > 0 {
			h[i] = r.Float64()
		}
	}
	h[r.Intn(len(h))] += 0.5
	normalize(h)
	return h
}

// requireSameAsOracle solves one instance with Solve and with oracleSolve
// and requires the same error, or the same objective and flows bit for
// bit.
func requireSameAsOracle(t *testing.T, name string, supply, demand []float64, cost func(i, j int) float64) {
	t.Helper()
	got, gotErr := Solve(supply, demand, cost)
	want, wantErr := oracleSolve(supply, demand, cost)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, oracle error %v", name, gotErr, wantErr)
		}
		return
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("%s: objective %v, oracle %v", name, got.Objective, want.Objective)
	}
	if len(got.Flows) != len(want.Flows) {
		t.Errorf("%s: %d flows, oracle %d", name, len(got.Flows), len(want.Flows))
		return
	}
	for k, f := range got.Flows {
		w := want.Flows[k]
		if f.From != w.From || f.To != w.To || math.Float64bits(f.Amount) != math.Float64bits(w.Amount) {
			t.Errorf("%s: flow %d is %+v, oracle %+v", name, k, f, w)
		}
	}
}

func TestSolveMatchesOracleBitForBit(t *testing.T) {
	r := rng.New(41)
	for d := 1; d <= 7; d++ {
		n := d * d
		one := make([]float64, n)
		one[n/2] = 1
		corner := make([]float64, n)
		corner[0] = 1
		for draw := 0; draw < 3; draw++ {
			qa, qb := quarterMasses(r, d)
			ha, hb := holedMasses(r, d), holedMasses(r, d)
			instances := []struct {
				kind           string
				supply, demand []float64
			}{
				{"quarters", qa, qb},
				{"holed", ha, hb},
				{"one-cell-supply", one, hb},
				{"one-cell-demand", ha, corner},
				{"one-cell-both", one, corner},
			}
			for _, p := range []float64{1, 2} {
				for _, in := range instances {
					name := fmt.Sprintf("d=%d/draw=%d/p=%v/%s", d, draw, p, in.kind)
					requireSameAsOracle(t, name, in.supply, in.demand, gridCost(d, p))
				}
			}
		}
	}

	// The random dense costs of BenchmarkTransportSimplex.
	supply, demand, costs := denseInstance(50)
	requireSameAsOracle(t, "dense-50", supply, demand, func(i, j int) float64 { return costs[i*50+j] })

	// Refusals both solvers share.
	cost := gridCost(2, 2)
	for _, in := range []struct {
		name           string
		supply, demand []float64
	}{
		{"empty", nil, []float64{1}},
		{"negative", []float64{1, -1, 1, 0}, []float64{1, 0, 0, 0}},
		{"NaN", []float64{1, 0, 0, 0}, []float64{math.NaN(), 0, 0, 0}},
		{"zero", []float64{0, 0, 0, 0}, []float64{0, 0, 0, 0}},
		{"unbalanced", []float64{1, 0, 0, 0}, []float64{1, 1, 0, 0}},
	} {
		requireSameAsOracle(t, "refusal/"+in.name, in.supply, in.demand, cost)
	}
}

// denseInstance is BenchmarkTransportSimplex's n×n problem: random
// balanced marginals and uniform random costs in [0, 10).
func denseInstance(n int) (supply, demand, costs []float64) {
	r := rng.New(6)
	supply = make([]float64, n)
	demand = make([]float64, n)
	var st, dt float64
	for i := 0; i < n; i++ {
		supply[i] = r.Float64() + 0.01
		demand[i] = r.Float64() + 0.01
		st += supply[i]
		dt += demand[i]
	}
	for i := range demand {
		demand[i] *= st / dt
	}
	costs = make([]float64, n*n)
	for i := range costs {
		costs[i] = r.Float64() * 10
	}
	return supply, demand, costs
}

func TestSolveRefusesNonFiniteInput(t *testing.T) {
	unit := func(i, j int) float64 { return float64(i + j) }
	for _, c := range []struct {
		name           string
		supply, demand []float64
		cost           func(i, j int) float64
		want           string
	}{
		{"infinite supply", []float64{math.Inf(1), 1}, []float64{1, 1}, unit, "supply +Inf at 0"},
		{"infinite demand", []float64{1, 1}, []float64{1, math.Inf(1)}, unit, "demand +Inf at 1"},
		{"overflowing total", []float64{math.MaxFloat64, math.MaxFloat64}, []float64{1, 1}, unit, "overflows"},
		{"NaN cost", []float64{1, 1}, []float64{1, 1}, offDiagonal(math.NaN()), "cost NaN at (0, 1)"},
		{"+Inf cost", []float64{1, 1}, []float64{1, 1}, offDiagonal(math.Inf(1)), "cost +Inf at (0, 1)"},
		{"-Inf cost", []float64{1, 1}, []float64{1, 1}, offDiagonal(math.Inf(-1)), "cost -Inf at (0, 1)"},
	} {
		plan, err := Solve(c.supply, c.demand, c.cost)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: plan %+v, err %v; want a refusal containing %q", c.name, plan, err, c.want)
		}
	}
}

// offDiagonal is a 0/bad cost: zero on the diagonal, bad elsewhere.
func offDiagonal(bad float64) func(i, j int) float64 {
	return func(i, j int) float64 {
		if i == j {
			return 0
		}
		return bad
	}
}

func TestSolveCallsCostOncePerSurvivingPair(t *testing.T) {
	supply := []float64{0.5, 0, 0.5}
	demand := []float64{0, 0.25, 0.25, 0.5}
	calls := map[[2]int]int{}
	plan := solveOrFail(t, supply, demand, func(i, j int) float64 {
		calls[[2]int{i, j}]++
		if supply[i] == 0 || demand[j] == 0 {
			return math.NaN() // never evaluated: the row or column is filtered
		}
		return math.Abs(float64(i - j))
	})
	if len(calls) != 2*3 {
		t.Fatalf("cost evaluated at %d pairs, want the 6 with mass on both sides: %v", len(calls), calls)
	}
	for pair, k := range calls {
		if k != 1 {
			t.Errorf("cost(%d, %d) evaluated %d times", pair[0], pair[1], k)
		}
	}
	if plan.Objective <= 0 {
		t.Fatalf("objective %v", plan.Objective)
	}
}

// TestSolveAllocationsDoNotGrowWithPivots pins the allocations of one
// solve of BenchmarkW2Exact's 10×10 grid instance: the buffers are sized
// once, so a 3×3 instance, with far fewer pivots, allocates as often.
func TestSolveAllocationsDoNotGrowWithPivots(t *testing.T) {
	allocsPerSolve := func(d int) float64 {
		r := rng.New(3)
		supply := make([]float64, d*d)
		demand := make([]float64, d*d)
		for i := range supply {
			supply[i] = r.Float64()
			demand[i] = r.Float64()
		}
		normalize(supply)
		normalize(demand)
		cost := gridCost(d, 2)
		return testing.AllocsPerRun(3, func() {
			if _, err := Solve(supply, demand, cost); err != nil {
				t.Fatal(err)
			}
		})
	}
	big, small := allocsPerSolve(10), allocsPerSolve(3)
	if big > 32 {
		t.Errorf("%v allocations per 10×10 solve, want at most 32", big)
	}
	if big != small {
		t.Errorf("%v allocations per 10×10 solve but %v per 3×3 solve; want the same", big, small)
	}
}
