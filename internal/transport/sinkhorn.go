package transport

import (
	"fmt"
	"math"

	"dpspatial/internal/grid"
)

// SinkhornOptions controls the entropy-regularised solver.
type SinkhornOptions struct {
	// Reg is the entropic regularisation strength λ in squared-cell-unit
	// cost units. Smaller values approximate the exact distance more
	// closely but converge more slowly. Zero selects 0.5 (roughly a
	// 0.7-cell blur), which keeps mechanism orderings intact at the
	// paper's grid sizes; use Debias (or a smaller Reg) when absolute
	// values near zero matter.
	Reg float64
	// MaxIter caps the number of Sinkhorn iterations (default 2000).
	MaxIter int
	// Tol is the marginal violation at which iteration stops
	// (default 1e-7).
	Tol float64
	// Debias computes the Sinkhorn-divergence correction
	// cost(a,b) − ½cost(a,a) − ½cost(b,b), which removes the entropic
	// blur's additive floor (three solves instead of one).
	Debias bool
}

func (o *SinkhornOptions) withDefaults() SinkhornOptions {
	out := SinkhornOptions{Reg: 0, MaxIter: 2000, Tol: 1e-7}
	if o != nil {
		out = *o
	}
	if out.Reg <= 0 {
		out.Reg = 0.5
	}
	if out.MaxIter <= 0 {
		out.MaxIter = 2000
	}
	if out.Tol <= 0 {
		out.Tol = 1e-7
	}
	return out
}

// W2Sinkhorn approximates the 2-norm Wasserstein distance between two
// normalised histograms using log-domain stabilised Sinkhorn iterations.
// The returned value is the transport cost of the regularised plan (not
// including the entropy term), square-rooted, so it converges to W2Exact
// as Reg → 0. With Debias set, the entropic self-transport floor is
// subtracted first (Sinkhorn divergence), so identical inputs score ≈0
// at any regularisation.
//
// Every mass must be finite and non-negative; the first cell that is not
// is named in the error. The solve runs on supp(a)×supp(b) only and is
// bit-identical to the dense solve over all cell pairs.
func W2Sinkhorn(a, b *grid.Hist2D, opts *SinkhornOptions) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	if err := checkMasses(a, "first"); err != nil {
		return 0, err
	}
	if err := checkMasses(b, "second"); err != nil {
		return 0, err
	}
	o := opts.withDefaults()
	if o.Debias {
		ab, err := sinkhornCost(a, b, o)
		if err != nil {
			return 0, err
		}
		aa, err := sinkhornCost(a, a, o)
		if err != nil {
			return 0, err
		}
		bb, err := sinkhornCost(b, b, o)
		if err != nil {
			return 0, err
		}
		div := ab - (aa+bb)/2
		if div < 0 {
			div = 0
		}
		return math.Sqrt(div), nil
	}
	c, err := sinkhornCost(a, b, o)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(c), nil
}

// checkMasses refuses a histogram holding a negative, NaN or infinite
// mass, naming the first such cell.
func checkMasses(h *grid.Hist2D, which string) error {
	for i, m := range h.Mass {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("transport: invalid mass %v at cell (%d,%d) of the %s histogram",
				m, i%h.Dom.D, i/h.Dom.D, which)
		}
	}
	return nil
}

// sinkhornCost returns the (squared-distance) transport cost of the
// regularised plan between two histograms.
//
// The log-domain potentials f, g define the plan exp((f_i + g_j − C_ij)/λ).
// A massless cell's potential is −Inf, so its every kernel term is an
// exact +0 inside each log-sum-exp; leaving it out, with the surviving
// terms in their original order, changes no bit. The sweeps therefore
// run over supp(μ)×supp(ν) with the costs held contiguously for both
// half-sweeps (cost row-major by supp(μ), costT by supp(ν)). The one
// exception is the first f-sweep: g starts at 0 on every cell, so it runs
// over all n columns, and massless columns turn −Inf only at the first
// g-sweep.
func sinkhornCost(a, b *grid.Hist2D, o SinkhornOptions) (float64, error) {
	d := a.Dom.D
	n := len(a.Mass)

	mu := normalizedCopy(a.Mass)
	nu := normalizedCopy(b.Mass)
	if mu == nil || nu == nil {
		return 0, fmt.Errorf("transport: zero-mass histogram")
	}
	rows, logMu := supportLogs(mu)
	cols, logNu := supportLogs(nu)
	m, k := len(rows), len(cols)

	// Squared-Euclidean cell-unit costs on supp(μ)×supp(ν), and transposed.
	sqDist := func(i, j int) float64 {
		dx, dy := float64(i%d-j%d), float64(i/d-j/d)
		return dx*dx + dy*dy
	}
	cost := make([]float64, m*k)
	costT := make([]float64, k*m)
	for r, i := range rows {
		for c, j := range cols {
			cij := sqDist(i, j)
			cost[r*k+c] = cij
			costT[c*m+r] = cij
		}
	}

	lam := o.Reg
	s := scaler{lam: lam}
	// x·(1/λ) and x/λ round the same real value, so they agree bit for
	// bit whenever 1/λ is exact: λ a power of two with a finite inverse.
	if inv := 1 / lam; !math.IsInf(inv, 0) {
		if frac, _ := math.Frexp(lam); frac == 0.5 {
			s.inv, s.mul = inv, true
		}
	}

	f := make([]float64, m)
	g := make([]float64, k)
	row := make([]float64, n)
	zeros, full := make([]float64, n), make([]float64, n)
	for iter := 0; iter < o.MaxIter; iter++ {
		// f_i = λ·log μ_i − λ·logΣ_j exp((g_j − C_ij)/λ)
		for r := range f {
			x, pot, costs := row[:k], g, cost[r*k:(r+1)*k]
			if iter == 0 {
				// g is still 0 on all n columns, massless ones included.
				for j := range full {
					full[j] = sqDist(rows[r], j)
				}
				x, pot, costs = row, zeros, full
			}
			f[r] = lam*logMu[r] - lam*logSumExpMax(x, s.fill(x, pot, costs))
		}
		// g_j update symmetric.
		for c := range g {
			x := row[:m]
			g[c] = lam*logNu[c] - lam*logSumExpMax(x, s.fill(x, f, costT[c*m:(c+1)*m]))
		}
		if iter%10 == 9 || iter == o.MaxIter-1 {
			if supportMarginalError(f, g, cost, mu, rows, s) < o.Tol {
				break
			}
		}
	}

	// Transport cost of the regularised plan.
	total := 0.0
	for r, fr := range f {
		if math.IsInf(fr, -1) {
			continue
		}
		for c, gc := range g {
			if math.IsInf(gc, -1) {
				continue
			}
			cij := cost[r*k+c]
			pij := math.Exp(s.apply(fr + gc - cij))
			if pij > 0 {
				total += pij * cij
			}
		}
	}
	if total < 0 {
		total = 0
	}
	return total, nil
}

func normalizedCopy(mass []float64) []float64 {
	total := 0.0
	for _, m := range mass {
		total += m
	}
	if total <= 0 {
		return nil
	}
	out := make([]float64, len(mass))
	for i, m := range mass {
		out[i] = m / total
	}
	return out
}

// supportLogs returns the cells of v holding positive mass, in order, and
// the log of each one's mass.
func supportLogs(v []float64) ([]int, []float64) {
	var idx []int
	var logs []float64
	for i, x := range v {
		if x > 0 {
			idx = append(idx, i)
			logs = append(logs, math.Log(x))
		}
	}
	return idx, logs
}

// scaler divides by λ, or multiplies by 1/λ where that is exact.
type scaler struct {
	lam, inv float64
	mul      bool
}

func (s scaler) apply(x float64) float64 {
	if s.mul {
		return x * s.inv
	}
	return x / s.lam
}

// fill sets x_t = (pot_t − costs_t)/λ and returns the maximum (−Inf when
// empty).
func (s scaler) fill(x, pot, costs []float64) float64 {
	maxV := math.Inf(-1)
	x, pot = x[:len(costs)], pot[:len(costs)]
	for t, c := range costs {
		v := s.apply(pot[t] - c)
		x[t] = v
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// logSumExpMax returns log Σ exp(x_t) given maxV = max_t x_t.
func logSumExpMax(x []float64, maxV float64) float64 {
	if math.IsInf(maxV, -1) {
		return maxV
	}
	sum, cut := 0.0, negligibleBelow(0)
	for _, v := range x {
		y := v - maxV
		if y < cut {
			continue
		}
		sum += math.Exp(y)
		cut = negligibleBelow(sum)
	}
	return maxV + math.Log(sum)
}

// negligibleBelow returns a cut under which adding math.Exp(y) to s ≥ 0
// leaves s unchanged, so skipping that addend changes no bit. Below the
// cut, e^y is under half an ulp of s by a factor e, far more than
// math.Exp's error, and s plus less than half an ulp rounds back to s.
// For s = 0 the cut, ≈ −746.1, lies where math.Exp has underflowed to 0.
func negligibleBelow(s float64) float64 {
	e := int(math.Float64bits(s)>>52) & 0x7ff // biased exponent
	return float64(max(e, 1)-1076)*math.Ln2 - 1
}

// supportMarginalError measures how far the current plan's row marginals
// are from μ (the column marginals match exactly right after the g
// update).
func supportMarginalError(f, g, cost, mu []float64, rows []int, s scaler) float64 {
	k := len(g)
	worst := 0.0
	for r, fr := range f {
		if math.IsInf(fr, -1) {
			continue
		}
		rowSum, cut := 0.0, negligibleBelow(0)
		for c, gc := range g {
			y := s.apply(fr + gc - cost[r*k+c])
			if math.IsInf(gc, -1) || y < cut {
				continue
			}
			rowSum += math.Exp(y)
			cut = negligibleBelow(rowSum)
		}
		if e := math.Abs(rowSum - mu[rows[r]]); e > worst {
			worst = e
		}
	}
	return worst
}
