package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"dpspatial"
	"dpspatial/internal/experiments"
	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/synth"
	"dpspatial/internal/transport"
)

// The two paper-harness workloads regenerate Figure 9 panels through
// experiments.Suite, exactly as `damctl fig` does. A pass builds a fresh
// suite on the run's seed and regenerates every panel of the workload
// once; passes repeat until the run's time is used. Every pass of a run
// has the same inputs, so how many passes fit in the time (which depends
// on the machine) does not change what the median is taken over.
//
// The traced run evaluates the same (mechanism, dataset, d, ε, W₂
// method) cells one at a time through the public layer calls, timing
// each call, so the layer times add up to a serial pass. It must
// reproduce every point of the figure exactly, which also proves that
// the benchmark's copy of the suite's input generation matches the
// suite's own.

// harnessConfig is the bench-harness configuration of bench_test.go.
func harnessConfig(seed uint64, workers int) experiments.Config {
	return experiments.Config{
		Scale:         0.002,
		Repeats:       1,
		Seed:          seed,
		MaxPoints:     2000,
		LPCalibration: false,
		Workers:       workers,
	}
}

// figureWorkload describes the panels a harness workload regenerates and
// the cells behind them, in the suite's order.
type figureWorkload struct {
	datasets []string
	figure   func(s *experiments.Suite, dataset string) (*experiments.Figure, error)
	mechs    []string
	ds       []int
	eps      float64
	exact    bool // W₂ by the exact LP; Sinkhorn otherwise
}

var (
	fig9SmallD = figureWorkload{
		datasets: experiments.DatasetNames(),
		figure:   (*experiments.Suite).Fig9SmallD,
		mechs:    experiments.MechanismNames(),
		ds:       experiments.SmallDValues,
		eps:      experiments.DefaultEps,
		exact:    true,
	}
	fig9LargeD = figureWorkload{
		datasets: []string{"SZipf"},
		figure:   (*experiments.Suite).Fig9LargeD,
		mechs:    []string{"SEM-Geo-I", "DAM"},
		ds:       experiments.LargeDValues,
		eps:      5, // Fig9LargeD's fixed budget
		exact:    false,
	}
)

func runFig9SmallD(opts options, out io.Writer) (*result, error) {
	return runHarness(opts, out, fig9SmallD)
}

func runFig9LargeD(opts options, out io.Writer) (*result, error) {
	return runHarness(opts, out, fig9LargeD)
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. setupGap spaces the repetitions out, so that a short burst of
// load from elsewhere on the machine slows only a few of them.
const (
	setupReps = 15
	setupGap  = 100 * time.Millisecond
)

// setupPause waits before every set-up repetition but the first.
func setupPause(i int) {
	if i > 0 {
		time.Sleep(setupGap)
	}
}

func runHarness(opts options, out io.Writer, w figureWorkload) (*result, error) {
	cfg := harnessConfig(opts.seed, opts.workers)
	res := &result{}

	// Set-up: construct the suite, generate the datasets and build every
	// cell's mechanisms, so work moved from trials into construction
	// shows. Only the program's calls are timed (NewSuite, the synth
	// generators, NewMechanism/NewSEMGeoI); the suite generates lazily
	// inside a pass, so the benchmark's own copy of its thinning and
	// binning, which makes the traced run's inputs, is left out.
	var setup []float64
	var in *harnessInputs
	for i := 0; i < setupReps; i++ {
		setupPause(i)
		t0 := time.Now()
		s := experiments.NewSuite(cfg)
		parts, err := w.generate(s.Config())
		if err != nil {
			return nil, err
		}
		spent := time.Since(t0)
		if in, err = w.inputs(s.Config(), parts); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := w.buildAll(in); err != nil {
			return nil, err
		}
		setup = append(setup, (spent + time.Since(t1)).Seconds())
	}
	refs := referenceFor(opts, w)

	// Every pass must reproduce the first bit for bit; at referenceSeed
	// the first is also compared with the stored reference.
	var passMs []float64
	var figs []*experiments.Figure
	layers := newLayerSet()
	clock := newLayerClock()
	serialTime := 0.0
	passCPU := 0.0
	start := time.Now()
	for k := 0; ; k++ {
		t0, c0 := time.Now(), cpuSeconds()
		got, err := w.pass(cfg)
		passCPU += cpuSeconds() - c0
		res.attempted++
		if err != nil {
			res.failed++
			res.fail("pass %d: %v", k, err)
			passMs = append(passMs, math.Inf(1))
		} else {
			passMs = append(passMs, msSince(t0))
			msgs := checkFigures(got, w, refs)
			if figs != nil {
				if msg := sameFigures(figs, got); msg != "" {
					msgs = append(msgs, "differs from the first pass: "+msg)
				}
			}
			if len(msgs) > 0 {
				res.failed++
				for _, m := range msgs {
					res.fail("pass %d: %s", k, m)
				}
			}
			if figs == nil {
				figs = got
				res.rssMiB = peakRSSMiB()
			}
			refs = nil
		}
		if opts.trace && figs != nil {
			t1 := time.Now()
			means, err := w.serialEval(in, clock)
			serialTime += time.Since(t1).Seconds()
			if err != nil {
				return nil, fmt.Errorf("traced evaluation: %w", err)
			}
			if msg := compareSerial(figs, means); msg != "" {
				res.fail("traced evaluation does not reproduce the figure: %s", msg)
			}
		}
		if time.Since(start) >= opts.duration {
			break
		}
	}
	elapsed := 0.0
	for _, v := range passMs {
		elapsed += v / 1000
	}
	fmt.Fprintf(out, "passes_s")
	for _, v := range passMs {
		fmt.Fprintf(out, " %.4g", v/1000)
	}
	fmt.Fprintln(out)
	res.report = []metric{
		{name: "setup_s", unit: "s", value: median(setup), n: len(setup)},
		{name: "fig_pass_s", unit: "s", value: median(passMs) / 1000, n: len(passMs)},
	}
	if !opts.trace {
		res.contract = e2eContract(setup, median(passMs), float64(len(passMs))/elapsed, passCPU, len(passMs))
		return res, nil
	}

	passes := float64(clock.evals)
	layers.set("experiments.cells", float64(len(w.datasets)*len(w.mechs)*len(w.ds)), 0, "in-situ")
	layers.set("experiments.parallel_efficiency",
		serialTime/passes/(float64(opts.workers)*median(passMs)/1000), clock.evals, "in-situ")
	clock.report(layers, serialTime)
	if err := probeServedLayers(opts, out, layers, clock.blobs()); err != nil {
		return nil, err
	}
	var err error
	res.contract, err = layers.list()
	return res, err
}

// pass regenerates every panel of the workload on a fresh suite.
func (w figureWorkload) pass(cfg experiments.Config) ([]*experiments.Figure, error) {
	s := experiments.NewSuite(cfg)
	figs := make([]*experiments.Figure, 0, len(w.datasets))
	for _, ds := range w.datasets {
		fig, err := w.figure(s, ds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ds, err)
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// harnessInputs are the truth histograms of every dataset part at every
// d the workload evaluates: truths[dataset][d][part].
type harnessInputs struct {
	seed   uint64
	truths map[string]map[int][]*grid.Hist2D
}

// generate runs the suite's dataset generators for every dataset of the
// workload, one RNG stream per dataset name, and returns each dataset's
// parts before thinning.
func (w figureWorkload) generate(cfg experiments.Config) (map[string][][]geom.Point, error) {
	parts := map[string][][]geom.Point{}
	for _, ds := range w.datasets {
		p, err := datasetParts(cfg, ds)
		if err != nil {
			return nil, err
		}
		parts[ds] = p
	}
	return parts, nil
}

// inputs makes the workload's truth histograms from the generated parts
// the way experiments.Suite does on first use of a dataset: the
// MaxPoints thinning, and one histogram per part over the part's own
// square bounds.
func (w figureWorkload) inputs(cfg experiments.Config, parts map[string][][]geom.Point) (*harnessInputs, error) {
	in := &harnessInputs{seed: cfg.Seed, truths: map[string]map[int][]*grid.Hist2D{}}
	for _, ds := range w.datasets {
		byD := map[int][]*grid.Hist2D{}
		for _, pts := range parts[ds] {
			pts = thin(pts, cfg.MaxPoints)
			for _, d := range w.ds {
				h, err := truthHist(pts, d)
				if err != nil {
					return nil, err
				}
				byD[d] = append(byD[d], h)
			}
		}
		in.truths[ds] = byD
	}
	return in, nil
}

func datasetParts(cfg experiments.Config, name string) ([][]geom.Point, error) {
	r := dpspatial.NewRand(cfg.Seed ^ hashName(name))
	var parts [][]geom.Point
	split := func(ds *synth.Dataset, err error) error {
		if err != nil {
			return err
		}
		for _, p := range ds.Parts {
			parts = append(parts, ds.Extract(p))
		}
		return nil
	}
	one := func(pts []geom.Point, err error) error {
		parts = append(parts, pts)
		return err
	}
	var err error
	switch name {
	case "Crime":
		err = split(synth.ChicagoCrimeLike(r, cfg.Scale))
	case "NYC":
		err = split(synth.NYCGreenTaxiLike(r, cfg.Scale))
	case "Normal":
		err = one(synth.Normal(r, cfg.Scale.Of(300000), 0, 0, 1, 1, 0.5, 5))
	case "SZipf":
		err = one(synth.SkewZipf(r, cfg.Scale.Of(100000)))
	case "MNormal":
		err = one(synth.MNormal(r, cfg.Scale.Of(300000)))
	default:
		err = fmt.Errorf("unknown dataset %q", name)
	}
	return parts, err
}

// thin keeps at most maxPoints points at an even stride, as the suite's
// MaxPoints does (0 keeps them all).
func thin(pts []geom.Point, maxPoints int) []geom.Point {
	if maxPoints <= 0 || len(pts) <= maxPoints {
		return pts
	}
	stride := float64(len(pts)) / float64(maxPoints)
	thinned := make([]geom.Point, 0, maxPoints)
	for k := 0; k < maxPoints; k++ {
		thinned = append(thinned, pts[int(float64(k)*stride)])
	}
	return thinned
}

func truthHist(pts []geom.Point, d int) (*grid.Hist2D, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("empty dataset part")
	}
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	side := math.Max(maxX-minX, maxY-minY)
	if side == 0 {
		side = 1
	}
	dom, err := grid.NewDomain(minX, minY, side, d)
	if err != nil {
		return nil, err
	}
	h := grid.NewHist(dom)
	g := dom.CellSize()
	for _, p := range pts {
		x := min(max(int((p.X-minX)/g), 0), d-1)
		y := min(max(int((p.Y-minY)/g), 0), d-1)
		h.Mass[y*d+x]++
	}
	return h, nil
}

// hashName is the suite's FNV-1a stream key.
func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// serialEval evaluates every cell of the workload one call at a time,
// timing each layer call on clock, and returns the mean W₂ of each cell
// keyed like the figure points.
func (w figureWorkload) serialEval(in *harnessInputs, clock *layerClock) (map[string]float64, error) {
	means := map[string]float64{}
	for _, ds := range w.datasets {
		for _, mech := range w.mechs {
			for _, d := range w.ds {
				truths := in.truths[ds][d]
				total := 0.0
				for pi, truth := range truths {
					w2, err := w.trial(clock, mech, ds, d, pi, truth, in.seed)
					if err != nil {
						return nil, fmt.Errorf("%s on %s at d=%d: %w", mech, ds, d, err)
					}
					total += w2
				}
				means[pointKey(ds, mech, d)] = total / float64(len(truths))
			}
		}
	}
	clock.evals++
	return means, nil
}

// trial is one (part, repeat) measurement with the suite's seed
// derivation (the harness config has one repeat).
func (w figureWorkload) trial(clock *layerClock, mech, ds string, d, pi int, truth *grid.Hist2D, seed uint64) (float64, error) {
	const rep = 0
	var m dpspatial.Mechanism
	buildLayer := map[string]string{"SEM-Geo-I": "semgeoi.build", "MDSW": "mdsw.build"}[mech]
	if buildLayer == "" {
		buildLayer = "sam.build"
	}
	err := clock.time(buildLayer, func() (err error) {
		m, err = w.build(mech, truth.Dom)
		return err
	})
	if err != nil {
		return 0, err
	}
	norm := truth.Clone().Normalize()
	r := dpspatial.NewRand(seed + uint64(rep)*1000003 + uint64(pi)*7919 ^ hashName(mech+ds))
	agg, err := dpspatial.NewAggregateFor(m)
	if err != nil {
		return 0, err
	}
	users := 0.0
	for _, c := range truth.Mass {
		users += c
	}
	t0 := time.Now()
	if err := dpspatial.AccumulateHist(m, agg, truth, r); err != nil {
		return 0, err
	}
	clock.addN("fo.accumulate", time.Since(t0), users)
	clock.keepAggregate(agg)

	var est *grid.Hist2D
	err = clock.time("em.decode", func() error {
		e, stats, err := dpspatial.EstimateFromAggregateWarm(m, agg, nil)
		if err == nil {
			est = e
			clock.iterations.add(float64(stats.Iterations))
			return nil
		}
		// Only the DAM family decodes with iteration stats.
		est, err = dpspatial.EstimateFromAggregate(m, agg)
		return err
	})
	if err != nil {
		return 0, err
	}
	var w2 float64
	if w.exact {
		err = clock.time("lp.w2_exact", func() (err error) {
			w2, err = transport.W2Exact(norm, est)
			return err
		})
	} else {
		err = clock.time("transport.sinkhorn", func() (err error) {
			w2, err = transport.W2Sinkhorn(norm, est, &transport.SinkhornOptions{})
			return err
		})
	}
	return w2, err
}

// build constructs one compared mechanism as the suite does.
func (w figureWorkload) build(mech string, dom dpspatial.Domain) (dpspatial.Mechanism, error) {
	if mech == "SEM-Geo-I" {
		// LP calibration is off, so the suite uses ε' = ε.
		return dpspatial.NewSEMGeoI(dom, w.eps)
	}
	return dpspatial.NewMechanism(mech, dom, w.eps)
}

// buildAll constructs the mechanisms of every cell and part once.
func (w figureWorkload) buildAll(in *harnessInputs) error {
	for _, ds := range w.datasets {
		for _, mech := range w.mechs {
			for _, d := range w.ds {
				for _, truth := range in.truths[ds][d] {
					if _, err := w.build(mech, truth.Dom); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func pointKey(ds, mech string, d int) string {
	return ds + "/" + mech + "/" + strconv.Itoa(d)
}

// compareSerial checks the traced cell means against the figure points
// bit for bit.
func compareSerial(figs []*experiments.Figure, means map[string]float64) string {
	for _, fig := range figs {
		for _, s := range fig.Series {
			for i, x := range s.X {
				key := pointKey(datasetOf(fig), s.Label, int(x))
				got, ok := means[key]
				if !ok || math.Float64bits(got) != math.Float64bits(s.Y[i]) {
					return fmt.Sprintf("%s: figure %v, traced %v", key, s.Y[i], got)
				}
			}
		}
	}
	return ""
}

// sameFigures checks two passes' panels point for point, bit for bit.
func sameFigures(want, got []*experiments.Figure) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d panels, want %d", len(got), len(want))
	}
	for i, fig := range want {
		if len(got[i].Series) != len(fig.Series) {
			return fmt.Sprintf("%s: %d series, want %d", fig.Name, len(got[i].Series), len(fig.Series))
		}
		for j, s := range fig.Series {
			g := got[i].Series[j]
			if len(g.Y) != len(s.Y) {
				return fmt.Sprintf("%s/%s: %d points, want %d", fig.Name, s.Label, len(g.Y), len(s.Y))
			}
			for k := range s.Y {
				if math.Float64bits(g.Y[k]) != math.Float64bits(s.Y[k]) {
					return fmt.Sprintf("%s/%s point %d: %v, first pass %v", fig.Name, s.Label, k, g.Y[k], s.Y[k])
				}
			}
		}
	}
	return ""
}

// datasetOf recovers a Figure 9 panel's dataset from its panel letter.
func datasetOf(fig *experiments.Figure) string {
	names := experiments.DatasetNames()
	letter := int(fig.Name[len(fig.Name)-1] - 'a')
	return names[letter%len(names)]
}

// msSince is the time since t0 in milliseconds.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
