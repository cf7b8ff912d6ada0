package transport

import (
	"fmt"
	"math"

	"dpspatial/internal/grid"
)

// denseSinkhornCost is the dense solver sinkhornCost replaced, kept as its
// oracle: it sweeps all n² cell pairs and divides by λ.
func denseSinkhornCost(a, b *grid.Hist2D, o SinkhornOptions) (float64, error) {
	d := a.Dom.D
	n := len(a.Mass)

	mu := normalizedCopy(a.Mass)
	nu := normalizedCopy(b.Mass)
	if mu == nil || nu == nil {
		return 0, fmt.Errorf("transport: zero-mass histogram")
	}

	// Squared-Euclidean cost matrix in cell units.
	cost := make([]float64, n*n)
	for i := 0; i < n; i++ {
		xi, yi := i%d, i/d
		for j := 0; j < n; j++ {
			xj, yj := j%d, j/d
			dx, dy := float64(xi-xj), float64(yi-yj)
			cost[i*n+j] = dx*dx + dy*dy
		}
	}

	// Log-domain potentials f, g with kernel K = exp((f_i + g_j - C_ij)/λ).
	f := make([]float64, n)
	g := make([]float64, n)
	logMu := logOf(mu)
	logNu := logOf(nu)
	lam := o.Reg

	row := make([]float64, n)
	for iter := 0; iter < o.MaxIter; iter++ {
		// f_i = λ·log μ_i − λ·logΣ_j exp((g_j − C_ij)/λ)
		for i := 0; i < n; i++ {
			if math.IsInf(logMu[i], -1) {
				f[i] = math.Inf(-1)
				continue
			}
			for j := 0; j < n; j++ {
				row[j] = (g[j] - cost[i*n+j]) / lam
			}
			f[i] = lam*logMu[i] - lam*logSumExp(row)
		}
		// g_j update symmetric.
		for j := 0; j < n; j++ {
			if math.IsInf(logNu[j], -1) {
				g[j] = math.Inf(-1)
				continue
			}
			for i := 0; i < n; i++ {
				row[i] = (f[i] - cost[i*n+j]) / lam
			}
			g[j] = lam*logNu[j] - lam*logSumExp(row)
		}
		if iter%10 == 9 || iter == o.MaxIter-1 {
			if marginalError(f, g, cost, mu, lam, n) < o.Tol {
				break
			}
		}
	}

	// Transport cost of the regularised plan.
	total := 0.0
	for i := 0; i < n; i++ {
		if math.IsInf(f[i], -1) {
			continue
		}
		for j := 0; j < n; j++ {
			if math.IsInf(g[j], -1) {
				continue
			}
			pij := math.Exp((f[i] + g[j] - cost[i*n+j]) / lam)
			if pij > 0 {
				total += pij * cost[i*n+j]
			}
		}
	}
	if total < 0 {
		total = 0
	}
	return total, nil
}

func logOf(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if x > 0 {
			out[i] = math.Log(x)
		} else {
			out[i] = math.Inf(-1)
		}
	}
	return out
}

func logSumExp(v []float64) float64 {
	maxV := math.Inf(-1)
	for _, x := range v {
		if x > maxV {
			maxV = x
		}
	}
	if math.IsInf(maxV, -1) {
		return maxV
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Exp(x - maxV)
	}
	return maxV + math.Log(sum)
}

// marginalError measures how far the current plan's row marginals are from
// μ (the column marginals match exactly right after the g update).
func marginalError(f, g, cost, mu []float64, lam float64, n int) float64 {
	worst := 0.0
	for i := 0; i < n; i++ {
		if math.IsInf(f[i], -1) {
			continue
		}
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if math.IsInf(g[j], -1) {
				continue
			}
			rowSum += math.Exp((f[i] + g[j] - cost[i*n+j]) / lam)
		}
		if e := math.Abs(rowSum - mu[i]); e > worst {
			worst = e
		}
	}
	return worst
}
