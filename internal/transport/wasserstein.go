// Package transport implements the distance metrics of the paper:
//
//   - exact p-Wasserstein distance between grid histograms via the
//     transportation LP of Equation (17);
//   - the closed-form 1-D Wasserstein distance (quantile coupling) used by
//     the sliced analysis of Section V;
//   - Sinkhorn's entropy-regularised approximation (Cuturi 2013), which
//     the paper uses when d is too large for exact LP. It iterates over
//     the supports of the two histograms only and is bit-identical to
//     the dense solver over all cell pairs, which the tests keep as an
//     oracle;
//   - the Radon projection of planar measures and the sliced Wasserstein
//     distance of Definitions 6–7.
package transport

import (
	"fmt"
	"math"
	"sort"

	"dpspatial/internal/grid"
	"dpspatial/internal/lp"
)

// W2Exact returns the 2-norm Wasserstein distance W₂ = √(W₂²) between two
// normalised histograms on equally-shaped domains, computed exactly via
// the transportation LP with squared-Euclidean cell-centre costs measured
// in cell units (the paper's discrete convention).
func W2Exact(a, b *grid.Hist2D) (float64, error) {
	obj, err := WpExactPow(a, b, 2)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(obj), nil
}

// WpExactPow returns the raw optimal-transport objective Σ‖x−y‖ᵖ·π(x,y)
// (that is, Wₚᵖ, not its p-th root) for normalised histograms. It refuses
// a negative, NaN or infinite mass, naming the cell.
func WpExactPow(a, b *grid.Hist2D, p float64) (float64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	if err := checkMasses(a, "first"); err != nil {
		return 0, err
	}
	if err := checkMasses(b, "second"); err != nil {
		return 0, err
	}
	d := a.Dom.D
	cost := func(i, j int) float64 {
		xi, yi := i%d, i/d
		xj, yj := j%d, j/d
		dist := math.Hypot(float64(xi-xj), float64(yi-yj))
		return math.Pow(dist, p)
	}
	plan, err := lp.Solve(a.Mass, b.Mass, cost)
	if err != nil {
		return 0, fmt.Errorf("transport: %w", err)
	}
	return plan.Objective, nil
}

func compatible(a, b *grid.Hist2D) error {
	if a.Dom.D != b.Dom.D {
		return fmt.Errorf("transport: domain sizes differ (%d vs %d)", a.Dom.D, b.Dom.D)
	}
	if len(a.Mass) != len(b.Mass) {
		return fmt.Errorf("transport: mass lengths differ")
	}
	return nil
}

// WeightedPoint is a support point of a discrete 1-D measure.
type WeightedPoint struct {
	Pos  float64
	Mass float64
}

// W1D returns Wₚᵖ between two discrete 1-D measures via the monotone
// (quantile) coupling, which is optimal for convex costs on the line. The
// measures are normalised internally. Points need not be sorted.
func W1D(a, b []WeightedPoint, p float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("transport: empty 1-D measure")
	}
	as := normSorted(a)
	bs := normSorted(b)
	if as == nil || bs == nil {
		return 0, fmt.Errorf("transport: zero-mass 1-D measure")
	}
	i, j := 0, 0
	ra, rb := as[0].Mass, bs[0].Mass
	cost := 0.0
	for i < len(as) && j < len(bs) {
		move := math.Min(ra, rb)
		cost += move * math.Pow(math.Abs(as[i].Pos-bs[j].Pos), p)
		ra -= move
		rb -= move
		if ra <= 1e-15 {
			i++
			if i < len(as) {
				ra = as[i].Mass
			}
		}
		if rb <= 1e-15 {
			j++
			if j < len(bs) {
				rb = bs[j].Mass
			}
		}
	}
	return cost, nil
}

func normSorted(pts []WeightedPoint) []WeightedPoint {
	total := 0.0
	for _, p := range pts {
		total += p.Mass
	}
	if total <= 0 {
		return nil
	}
	out := make([]WeightedPoint, 0, len(pts))
	for _, p := range pts {
		if p.Mass > 0 {
			out = append(out, WeightedPoint{Pos: p.Pos, Mass: p.Mass / total})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Marginal1D converts a normalised 1-D mass vector over integer bucket
// positions into a weighted point measure.
func Marginal1D(mass []float64) []WeightedPoint {
	pts := make([]WeightedPoint, 0, len(mass))
	for i, m := range mass {
		if m > 0 {
			pts = append(pts, WeightedPoint{Pos: float64(i), Mass: m})
		}
	}
	return pts
}
