package transport

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// sparseHist draws a histogram with roughly a third of its cells
// massless, in the manner of a sparse ground truth.
func sparseHist(dom grid.Domain, r *rng.RNG) *grid.Hist2D {
	h := grid.NewHist(dom)
	for i := range h.Mass {
		if r.Intn(3) > 0 {
			h.Mass[i] = r.Float64()
		}
	}
	h.Mass[r.Intn(len(h.Mass))] = 1
	return h.Normalize()
}

// holedHist draws a dense histogram whose grid column x=0 and a few other
// cells are massless. A massless ν cell still carries g = 0 in the first
// f-sweep, so a solver that drops it too early disagrees with the oracle.
func holedHist(dom grid.Domain, r *rng.RNG) *grid.Hist2D {
	h := grid.NewHist(dom)
	for i := range h.Mass {
		h.Mass[i] = 0.05 + r.Float64()
		if i%dom.D == 0 || r.Intn(8) == 0 {
			h.Mass[i] = 0
		}
	}
	h.Mass[len(h.Mass)-1] = 1
	return h.Normalize()
}

// oracleW2 is W2Sinkhorn with the dense oracle solving every transport.
func oracleW2(a, b *grid.Hist2D, o SinkhornOptions) (float64, error) {
	ab, err := denseSinkhornCost(a, b, o)
	if err != nil || !o.Debias {
		return math.Sqrt(ab), err
	}
	aa, err := denseSinkhornCost(a, a, o)
	if err != nil {
		return 0, err
	}
	bb, err := denseSinkhornCost(b, b, o)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(max(ab-(aa+bb)/2, 0)), nil
}

func TestSinkhornSupportSolveMatchesDenseOracleBitForBit(t *testing.T) {
	type pair struct {
		name    string
		a, b    *grid.Hist2D
		maxIter int // 0 = the default 2000
	}
	var pairs []pair
	for _, d := range []int{1, 2, 3, 5, 10, 15} {
		dom := newDomain(t, d)
		r := rng.New(uint64(100 + d))
		p := pair{name: fmt.Sprintf("d=%d", d), a: sparseHist(dom, r), b: holedHist(dom, r)}
		switch d {
		case 1:
			p.name += "/one-cell"
			p.a, p.b = uniformHist(dom), uniformHist(dom)
		case 10:
			p.maxIter = 300 // the dense oracle is slow
		case 15:
			p.maxIter = 30
		}
		pairs = append(pairs, p)
	}
	dom := newDomain(t, 5)
	r := rng.New(7)
	pairs = append(pairs,
		pair{name: "d=5/one-cell-mu", a: pointHist(dom, geom.Cell{X: 2, Y: 3}), b: holedHist(dom, r)},
		pair{name: "d=5/swapped", a: holedHist(dom, r), b: sparseHist(dom, r)})

	// Ten more allowed iterations leave a solve that stopped on Tol
	// unchanged and move one that ran to MaxIter; both kinds must occur.
	stops := map[bool]int{}

	for _, p := range pairs {
		// λ = 0.3 happens to round x·(1/λ) like x/λ on these inputs;
		// λ = 0.7 does not, so it makes the division path count.
		for _, reg := range []float64{0.5, 0.25, 0.3, 0.7, 1} {
			for _, debias := range []bool{false, true} {
				o := (&SinkhornOptions{Reg: reg, MaxIter: p.maxIter, Debias: debias}).withDefaults()
				name := fmt.Sprintf("%s/reg=%v/debias=%v", p.name, reg, debias)
				if debias {
					got, err := W2Sinkhorn(p.a, p.b, &o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := oracleW2(p.a, p.b, o)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: W2 %v, oracle %v", name, got, want)
					}
					continue
				}
				got, err := sinkhornCost(p.a, p.b, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := denseSinkhornCost(p.a, p.b, o)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: cost %v (%#x), oracle %v (%#x)", name,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if p.a.Dom.D == 1 {
					continue
				}
				more := o
				more.MaxIter += 10
				longer, err := sinkhornCost(p.a, p.b, more)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				stops[longer == got]++
			}
		}
	}
	if stops[true] == 0 || stops[false] == 0 {
		t.Fatalf("solves stopping on Tol: %d, running to MaxIter: %d; want both", stops[true], stops[false])
	}
}

func TestW2SinkhornRefusesInvalidMass(t *testing.T) {
	dom := newDomain(t, 4)
	for _, bad := range []float64{-0.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, second := range []bool{false, true} {
			a, b := uniformHist(dom), uniformHist(dom)
			h, which := a, "first"
			if second {
				h, which = b, "second"
			}
			h.Mass[dom.Index(geom.Cell{X: 3, Y: 2})] = bad
			_, err := W2Sinkhorn(a, b, nil)
			want := fmt.Sprintf("invalid mass %v at cell (3,2) of the %s histogram", bad, which)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("mass %v in the %s histogram: err %v, want %q", bad, which, err, want)
			}
		}
	}
}
