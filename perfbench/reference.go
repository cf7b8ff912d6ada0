package main

import (
	"fmt"
	"math"
	"strconv"

	"dpspatial/internal/experiments"
)

// referenceSeed is the seed the stored W₂ reference was captured at.
const referenceSeed = 42

// refSeries is one stored series of a figure panel.
type refSeries struct {
	label string
	w2    []float64
}

// referenceW2 holds every W₂ point of the harness workloads' panels at
// referenceSeed under harnessConfig, exactly as the program produced it
// when this benchmark was defined. The values are printed with
// strconv.FormatFloat(v, 'g', -1, 64), so they compare bit for bit.
var referenceW2 = map[string][]refSeries{
	"fig9a": {
		{"SEM-Geo-I", []float64{0, 0.2695047571584333, 0.3288010083461941, 0.4664280727127483, 0.5385445763962821}},
		{"MDSW", []float64{0, 0.26787518759378676, 0.39846147511539015, 0.5718741487447728, 0.6234777171357094}},
		{"HUEM", []float64{0, 0.1425581242183531, 0.2666774067033862, 0.3987249344311063, 0.592173491560609}},
		{"DAM-NS", []float64{0, 0.2035720765372865, 0.31927967214811664, 0.40095300462214406, 0.5762403400287056}},
		{"DAM", []float64{0, 0.14664096006081828, 0.3010312208493928, 0.409744926680113, 0.7248491478942963}},
	},
	"fig9b": {
		{"SEM-Geo-I", []float64{0, 0.4542342722448758, 0.558468113979428, 0.764161516706964, 0.8480494342159063}},
		{"MDSW", []float64{0, 0.4307840563323593, 0.5845064504892815, 0.7908879658379666, 1.0201416774471037}},
		{"HUEM", []float64{0, 0.16302656793438208, 0.437077647332718, 0.5591340628642003, 1.027022585008708}},
		{"DAM-NS", []float64{0, 0.2657745683302166, 0.503140988305821, 0.6728313274133848, 1.033909933824466}},
		{"DAM", []float64{0, 0.19964696269464324, 0.4705352045531441, 0.7359319858719592, 1.0826775499736871}},
	},
	"fig9c": {
		{"SEM-Geo-I", []float64{0, 0.2345207879911714, 0.37768659005342203, 0.4314683912403884, 0.42782717539733955}},
		{"MDSW", []float64{0, 0.41613640591295614, 0.7784090735631133, 0.8705052828352651, 0.9486947912088679}},
		{"HUEM", []float64{0, 0.09799390744367695, 0.2489538963069963, 0.3148645837816993, 0.4913515672391354}},
		{"DAM-NS", []float64{0, 0.15683371554938333, 0.21203814823962785, 0.2864857750590104, 0.4185229392312629}},
		{"DAM", []float64{0, 0.1568337154366946, 0.22464088567905047, 0.2659079286791005, 0.4513346045225153}},
	},
	"fig9d": {
		{"SEM-Geo-I", []float64{0, 0.4180679024572465, 0.33923281169085867, 0.4859914296558016, 0.603411756280003}},
		{"MDSW", []float64{0, 0.293108976095716, 0.44768612400547025, 0.4621925813784369, 0.5603838211752994}},
		{"HUEM", []float64{0, 0.15595936385719825, 0.2650497504751275, 0.3868107192660734, 0.7267600871731205}},
		{"DAM-NS", []float64{0, 0.15203212132668922, 0.33798439344965464, 0.38997127944886717, 0.6318772404676194}},
		{"DAM", []float64{0, 0.1274578610969002, 0.27518088200512475, 0.4029456406290343, 0.6495774054386451}},
	},
	"fig9e": {
		{"SEM-Geo-I", []float64{0, 0.29948124728110304, 0.3479998903808344, 0.31851579752277875, 0.38642345592530797}},
		{"MDSW", []float64{0, 0.3580887292798131, 0.678714087354788, 0.9435260948500982, 1.0465573308441345}},
		{"HUEM", []float64{0, 0.08599504413856059, 0.23203099100728003, 0.3317988623196925, 0.5222245614392304}},
		{"DAM-NS", []float64{0, 0.19093706033467314, 0.23257845345740522, 0.33601930705375765, 0.4123338875158544}},
		{"DAM", []float64{0, 0.15276519860380952, 0.20064411775118937, 0.211518225368277, 0.5594664702730245}},
	},
	"fig9i": {
		{"SEM-Geo-I", []float64{0, 0.6300135564440297, 0.7199359108721991, 0.7400610839062822, 0.7648837998218105}},
		{"DAM", []float64{0, 0.6024541007119387, 0.9821376564353793, 1.2326931995227592, 1.6923280489975008}},
	},
}

// historicalLastW2 are the last points of each panel as the
// BENCH_pr7.json record printed them, to four significant digits.
var historicalLastW2 = map[string]string{
	"fig9a": "0.7248", "fig9b": "1.083", "fig9c": "0.4513",
	"fig9d": "0.6496", "fig9e": "0.5595", "fig9i": "1.692",
}

// referenceFor returns the stored reference for the run's seed, nil at
// any other seed. The tamperReference fault perturbs one point of a
// private copy.
func referenceFor(opts options, w figureWorkload) map[string][]refSeries {
	if opts.seed != referenceSeed {
		return nil
	}
	refs := map[string][]refSeries{}
	for _, ds := range w.datasets {
		name := panelName(w, ds)
		for _, s := range referenceW2[name] {
			refs[name] = append(refs[name], refSeries{s.label, append([]float64(nil), s.w2...)})
		}
	}
	if opts.faults.tamperReference {
		name := panelName(w, w.datasets[0])
		refs[name][0].w2[1] *= 1 + 1e-12
	}
	return refs
}

// panelName is the Figure 9 panel of a dataset in this workload.
func panelName(w figureWorkload, dataset string) string {
	offset := 0
	if !w.exact {
		offset = 5 // Fig9LargeD's panels are f–j
	}
	for i, n := range experiments.DatasetNames() {
		if n == dataset {
			return fmt.Sprintf("fig9%c", 'a'+offset+i)
		}
	}
	return ""
}

// checkFigures validates one pass. Every seed gets the structural
// checks: one panel per dataset, one series per mechanism in legend
// order, the workload's d values, and W₂ finite and non-negative —
// positive wherever d > 1 (a one-cell grid has W₂ = 0). At referenceSeed
// every point must also equal the stored reference bit for bit, and the
// last points must round to the historical BENCH record.
func checkFigures(figs []*experiments.Figure, w figureWorkload, refs map[string][]refSeries) []string {
	var msgs []string
	if len(figs) != len(w.datasets) {
		return []string{fmt.Sprintf("%d panels, want %d", len(figs), len(w.datasets))}
	}
	for fi, fig := range figs {
		want := panelName(w, w.datasets[fi])
		if fig.Name != want {
			msgs = append(msgs, fmt.Sprintf("panel %q, want %q", fig.Name, want))
			continue
		}
		if len(fig.Series) != len(w.mechs) {
			msgs = append(msgs, fmt.Sprintf("%s: %d series, want %d", fig.Name, len(fig.Series), len(w.mechs)))
			continue
		}
		for si, s := range fig.Series {
			if s.Label != w.mechs[si] || len(s.X) != len(w.ds) || len(s.Y) != len(w.ds) {
				msgs = append(msgs, fmt.Sprintf("%s: series %d is %q with %d/%d points", fig.Name, si, s.Label, len(s.X), len(s.Y)))
				continue
			}
			for i, y := range s.Y {
				if s.X[i] != float64(w.ds[i]) || math.IsNaN(y) || math.IsInf(y, 0) || y < 0 || (w.ds[i] > 1 && y == 0) {
					msgs = append(msgs, fmt.Sprintf("%s/%s: point (%v, %v) out of range", fig.Name, s.Label, s.X[i], y))
				}
			}
			if refs == nil {
				continue
			}
			ref := refs[fig.Name]
			if si >= len(ref) || ref[si].label != s.Label {
				msgs = append(msgs, fmt.Sprintf("%s: no reference for series %q", fig.Name, s.Label))
				continue
			}
			for i, y := range s.Y {
				if math.Float64bits(y) != math.Float64bits(ref[si].w2[i]) {
					msgs = append(msgs, fmt.Sprintf("%s/%s at d=%v: W2 %s, reference %s", fig.Name, s.Label, s.X[i],
						strconv.FormatFloat(y, 'g', -1, 64), strconv.FormatFloat(ref[si].w2[i], 'g', -1, 64)))
				}
			}
		}
		if refs != nil {
			last := fig.Series[len(fig.Series)-1]
			if got := strconv.FormatFloat(last.Y[len(last.Y)-1], 'g', 4, 64); got != historicalLastW2[fig.Name] {
				msgs = append(msgs, fmt.Sprintf("%s: last W2 %s, BENCH_pr7 %s", fig.Name, got, historicalLastW2[fig.Name]))
			}
		}
	}
	return msgs
}
