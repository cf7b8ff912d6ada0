package dpspatial

import (
	"math"
	"strings"
	"testing"
)

func clusterPoints(n int, cx, cy float64) []Point {
	r := NewRand(12345)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: cx + 0.3*r.NormFloat64(), Y: cy + 0.3*r.NormFloat64()}
	}
	return pts
}

func TestEstimateQuickstart(t *testing.T) {
	pts := clusterPoints(20000, 5, 5)
	est, err := Estimate(pts, 8, 4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Total()-1) > 1e-9 {
		t.Fatalf("estimate total %v", est.Total())
	}
	// The mass should concentrate near the cluster centre cell.
	c := est.Dom.CellOf(Point{X: 5, Y: 5})
	centreMass := 0.0
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			cc := Cell{X: c.X + dx, Y: c.Y + dy}
			if est.Dom.Contains(cc) {
				centreMass += est.At(cc)
			}
		}
	}
	if centreMass < 0.3 {
		t.Fatalf("estimate failed to concentrate: centre mass %v", centreMass)
	}
}

func TestEstimateMechanismSelection(t *testing.T) {
	pts := clusterPoints(2000, 0, 0)
	for _, mech := range EstimateMechanismNames() {
		est, err := Estimate(pts, 5, 2, WithMechanism(mech), WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if math.Abs(est.Total()-1) > 1e-9 {
			t.Fatalf("%s: total %v", mech, est.Total())
		}
	}
	_, err := Estimate(pts, 5, 2, WithMechanism("nope"))
	if err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	for _, name := range EstimateMechanismNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list accepted mechanism %s", err, name)
		}
	}
}

func TestEstimateWithWorkers(t *testing.T) {
	pts := clusterPoints(4000, 2, 2)
	for _, mech := range EstimateMechanismNames() {
		run := func() *Histogram {
			est, err := Estimate(pts, 5, 2,
				WithMechanism(mech), WithSeed(3), WithWorkers(3))
			if err != nil {
				t.Fatalf("%s: %v", mech, err)
			}
			return est
		}
		a, b := run(), run()
		for i := range a.Mass {
			if a.Mass[i] != b.Mass[i] {
				t.Fatalf("%s: same seed and worker count diverged", mech)
			}
		}
		if math.Abs(a.Total()-1) > 1e-9 {
			t.Fatalf("%s: total %v", mech, a.Total())
		}
	}
}

func TestEstimateEmptyPoints(t *testing.T) {
	if _, err := Estimate(nil, 5, 2); err == nil {
		t.Fatal("empty point set accepted")
	}
}

func TestEstimateDeterministicWithSeed(t *testing.T) {
	pts := clusterPoints(3000, 1, 1)
	a, err := Estimate(pts, 6, 2, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(pts, 6, 2, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Mass {
		if a.Mass[i] != b.Mass[i] {
			t.Fatal("same seed produced different estimates")
		}
	}
}

func TestMechanismConstructorsAndMetrics(t *testing.T) {
	dom, err := NewDomain(0, 0, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewDAM(dom, 3)
	if err != nil {
		t.Fatal(err)
	}
	truth := HistFromPoints(dom, clusterPoints(5000, 5, 5))
	est, err := dam.EstimateHist(truth, NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	normTruth := truth.Clone().Normalize()
	w2, err := Wasserstein2(normTruth, est)
	if err != nil {
		t.Fatal(err)
	}
	w2s, err := Wasserstein2Sinkhorn(normTruth, est)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := SlicedWasserstein(normTruth, est, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if w2 < 0 || w2s < 0 || sw < 0 {
		t.Fatalf("negative distances: %v %v %v", w2, w2s, sw)
	}
	if sw > w2+1e-6 {
		t.Fatalf("sliced distance %v exceeds W2 %v", sw, w2)
	}
}

func TestWasserstein2RefusesInvalidMass(t *testing.T) {
	requireRefusesInvalidMass(t, Wasserstein2)
}

func TestWasserstein2SinkhornRefusesInvalidMass(t *testing.T) {
	requireRefusesInvalidMass(t, Wasserstein2Sinkhorn)
}

// requireRefusesInvalidMass requires w2 to refuse a negative, NaN or
// infinite mass, naming the cell.
func requireRefusesInvalidMass(t *testing.T, w2 func(a, b *Histogram) (float64, error)) {
	t.Helper()
	dom, err := NewDomain(0, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := HistFromPoints(dom, clusterPoints(500, 5, 5)).Normalize()
	allNaN := good.Clone()
	for i := range allNaN.Mass {
		allNaN.Mass[i] = math.NaN()
	}
	if w, err := w2(allNaN, allNaN); err == nil || !strings.Contains(err.Error(), "cell (0,0)") {
		t.Fatalf("all-NaN histograms: W2 %v, err %v; want a refusal naming cell (0,0)", w, err)
	}
	for _, bad := range []float64{-1e-3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		h := good.Clone()
		h.Mass[3*5+4] = bad // cell x=4, y=3
		if w, err := w2(good, h); err == nil || !strings.Contains(err.Error(), "cell (4,3)") {
			t.Errorf("mass %v: W2 %v, err %v; want a refusal naming cell (4,3)", bad, w, err)
		}
	}
}

func TestWithRadiusOption(t *testing.T) {
	dom, err := NewDomain(0, 0, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewDAM(dom, 2, WithRadius(1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewDAM(dom, 2, WithRadius(3))
	if err != nil {
		t.Fatal(err)
	}
	if small.Name() != "DAM" || big.Name() != "DAM" {
		t.Fatal("unexpected mechanism names")
	}
}

func TestOptimalRadiusMonotoneInEps(t *testing.T) {
	prev := math.Inf(1)
	for _, eps := range []float64{0.5, 1, 2, 4, 8} {
		b, err := OptimalRadius(eps, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b >= prev {
			t.Fatalf("b̌(%v) = %v not decreasing", eps, b)
		}
		prev = b
	}
}

func TestLocalPrivacyAndCalibration(t *testing.T) {
	dom, err := NewDomain(0, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewDAM(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	lpDAM, err := LocalPrivacy(dom, dam)
	if err != nil {
		t.Fatal(err)
	}
	if lpDAM <= 0 {
		t.Fatalf("DAM local privacy %v", lpDAM)
	}
	epsGeo, err := CalibrateSEMGeoI(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	sem, err := NewSEMGeoI(dom, epsGeo)
	if err != nil {
		t.Fatal(err)
	}
	lpSEM, err := LocalPrivacy(dom, sem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpSEM-lpDAM) > 0.05*lpDAM {
		t.Fatalf("calibrated SEM LP %v vs DAM LP %v", lpSEM, lpDAM)
	}
	// MDSW does not expose a per-cell channel.
	mdswMech, err := NewMDSW(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LocalPrivacy(dom, mdswMech); err == nil {
		t.Fatal("LocalPrivacy accepted a marginal mechanism")
	}
}

func TestDAMBeatsMDSWPublicAPI(t *testing.T) {
	// The paper's headline result through the public API: on correlated
	// Gaussian data DAM's recovered distribution is closer in W2.
	r := NewRand(77)
	pts := make([]Point, 30000)
	for i := range pts {
		z1, z2 := r.NormFloat64(), r.NormFloat64()
		pts[i] = Point{X: z1, Y: 0.5*z1 + 0.866*z2}
	}
	dom, err := DomainOver(pts, 6)
	if err != nil {
		t.Fatal(err)
	}
	truth := HistFromPoints(dom, pts)
	normTruth := truth.Clone().Normalize()

	eval := func(m Mechanism) float64 {
		est, err := m.EstimateHist(truth, NewRand(5))
		if err != nil {
			t.Fatal(err)
		}
		w2, err := Wasserstein2(normTruth, est)
		if err != nil {
			t.Fatal(err)
		}
		return w2
	}
	dam, err := NewDAM(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	mdswMech, err := NewMDSW(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if wDAM, wMDSW := eval(dam), eval(mdswMech); wDAM >= wMDSW {
		t.Fatalf("DAM W2 %v not below MDSW %v", wDAM, wMDSW)
	}
}
