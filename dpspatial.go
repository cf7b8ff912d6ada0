// Package dpspatial estimates spatial (2-D) distributions under Local
// Differential Privacy. It implements the Disk Area Mechanism (DAM) of
// "Numerical Estimation of Spatial Distributions under Differential
// Privacy" (ICDE 2025) together with the mechanisms it is evaluated
// against (HUEM, DAM-NS, MDSW, SEM-Geo-I), the optimal-transport metrics
// used to score them, and a one-call pipeline for the common case.
//
// Quick start:
//
//	points := ...                     // []dpspatial.Point from your users
//	est, err := dpspatial.Estimate(points, 15, 3.5, dpspatial.WithSeed(1))
//	// est is the DP estimate of the point distribution on a 15×15 grid.
//
// Lower-level control: build a Domain, bucketise with HistFromPoints,
// construct a mechanism (NewDAM and friends), and drive
// Mechanism.EstimateHist yourself. Every mechanism satisfies ε-LDP over
// grid cells; privacy is enforced per report, and post-processing (EM)
// cannot weaken it.
//
// Distributed control: every mechanism also implements
// ReportingMechanism — the explicit client / aggregator / estimator
// lifecycle (see lifecycle.go). Encode one user's Report on a device,
// Add reports into sharded Aggregates, Merge the shards in any order,
// and decode once with EstimateFromAggregate; EstimateHist is a thin
// in-process wrapper over the same stages.
package dpspatial

import (
	"fmt"
	"strings"
	"sync"

	"dpspatial/internal/baselines"
	"dpspatial/internal/fo"
	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/localprivacy"
	"dpspatial/internal/mdsw"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/rng"
	"dpspatial/internal/sam"
	"dpspatial/internal/semgeoi"
	"dpspatial/internal/trajectory"
	"dpspatial/internal/transport"
)

// Point is a location in the plane.
type Point = geom.Point

// Cell is a grid cell index.
type Cell = geom.Cell

// Domain is a square spatial region divided into d×d cells.
type Domain = grid.Domain

// Histogram is a distribution (or count histogram) over a Domain's cells.
type Histogram = grid.Hist2D

// Rand is the deterministic random source every mechanism consumes.
type Rand = rng.RNG

// NewRand returns a deterministic random source.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewDomain builds a square domain of side `side` anchored at (minX,
// minY) with d×d cells.
func NewDomain(minX, minY, side float64, d int) (Domain, error) {
	return grid.NewDomain(minX, minY, side, d)
}

// DomainOver returns the smallest square domain with d×d cells covering
// all points.
func DomainOver(points []Point, d int) (Domain, error) {
	return grid.SquareDomain(points, d)
}

// HistFromPoints bucketises points into a count histogram over the
// domain.
func HistFromPoints(dom Domain, points []Point) *Histogram {
	return grid.HistFromPoints(dom, points)
}

// Mechanism is a private spatial distribution estimator: a frequency
// oracle whose EstimateHist runs the full collect-perturb-estimate
// pipeline of Algorithm 1 on a true count histogram.
type Mechanism interface {
	Name() string
	EstimateHist(truth *Histogram, r *Rand) (*Histogram, error)
}

// Option configures mechanism construction.
type Option func(*options)

type options struct {
	bHat       *int
	smoothing  bool
	workers    *int
	estWorkers *int
}

// WithRadius overrides DAM/HUEM's discrete high-probability radius b̂ (in
// cells). The default is the paper's optimal ⌊b̌⌋ for the grid and budget.
func WithRadius(cells int) Option {
	return func(o *options) { o.bHat = &cells }
}

// WithSmoothing enables 2-D EM smoothing in post-processing.
func WithSmoothing() Option {
	return func(o *options) { o.smoothing = true }
}

// WithCollectWorkers fans the per-user collection step of EstimateHist
// out across n workers (0 = all cores). The default of 1 collects
// sequentially on the caller's RNG stream; any other value draws
// deterministic per-worker streams instead, so estimates are reproducible
// for a fixed seed and worker count.
func WithCollectWorkers(n int) Option {
	return func(o *options) { o.workers = &n }
}

// WithEstimateWorkers fans the EM decoding step of estimation out across
// n row-block workers (0 = all cores). Unlike collection fan-out, the
// parallel EM engine is deterministic: the estimate is byte-identical
// for every worker count ≥ 2, though it may differ from the sequential
// (n = 1, the default) engine in the last float64 bits. Supported by the
// channel-matrix mechanisms (DAM family and SEM-Geo-I).
func WithEstimateWorkers(n int) Option {
	return func(o *options) { o.estWorkers = &n }
}

func (o *options) samOpts() []sam.Option {
	var out []sam.Option
	if o.bHat != nil {
		out = append(out, sam.WithBHat(*o.bHat))
	}
	if o.smoothing {
		out = append(out, sam.WithSmoothing())
	}
	if o.workers != nil {
		out = append(out, sam.WithWorkers(*o.workers))
	}
	if o.estWorkers != nil {
		out = append(out, sam.WithEstimateWorkers(*o.estWorkers))
	}
	return out
}

func (o *options) mdswOpts() []mdsw.Option {
	var out []mdsw.Option
	if o.workers != nil {
		out = append(out, mdsw.WithWorkers(*o.workers))
	}
	return out
}

func (o *options) semOpts() []semgeoi.Option {
	var out []semgeoi.Option
	if o.workers != nil {
		out = append(out, semgeoi.WithWorkers(*o.workers))
	}
	if o.estWorkers != nil {
		out = append(out, semgeoi.WithEstimateWorkers(*o.estWorkers))
	}
	return out
}

func collect(opts []Option) *options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &o
}

// NewDAM builds the Disk Area Mechanism — the paper's optimal SAM — over
// the domain with ε-LDP budget eps.
func NewDAM(dom Domain, eps float64, opts ...Option) (Mechanism, error) {
	return sam.NewDAM(dom, eps, collect(opts).samOpts()...)
}

// NewDAMNS builds DAM without border shrinkage (an ablation baseline).
func NewDAMNS(dom Domain, eps float64, opts ...Option) (Mechanism, error) {
	return sam.NewDAMNS(dom, eps, collect(opts).samOpts()...)
}

// NewHUEM builds the Hybrid Uniform-Exponential Mechanism.
func NewHUEM(dom Domain, eps float64, opts ...Option) (Mechanism, error) {
	return sam.NewHUEM(dom, eps, collect(opts).samOpts()...)
}

// NewMDSW builds the multi-dimensional Square Wave baseline.
func NewMDSW(dom Domain, eps float64, opts ...Option) (Mechanism, error) {
	return mdsw.NewMDSW(dom, eps, collect(opts).mdswOpts()...)
}

// NewSEMGeoI builds the Subset Exponential Mechanism under epsGeo-Geo-I
// (per cell-unit distance). Note Geo-I is a weaker guarantee than ε-LDP;
// use CalibrateSEMGeoI to choose epsGeo so it matches a DAM instance's
// local privacy.
func NewSEMGeoI(dom Domain, epsGeo float64, opts ...Option) (Mechanism, error) {
	return semgeoi.New(dom, epsGeo, collect(opts).semOpts()...)
}

// OptimalRadius returns the continuous high-probability radius b̌ that
// maximises DAM's mutual-information bound for an input square of side L
// (Section V-C of the paper).
func OptimalRadius(eps, L float64) (float64, error) {
	return sam.OptimalB(eps, L)
}

// Wasserstein2 returns the exact 2-Wasserstein distance between two
// normalised histograms (transportation LP; costs in cell units). It
// refuses a negative, NaN or infinite mass, naming the cell.
func Wasserstein2(a, b *Histogram) (float64, error) {
	return transport.W2Exact(a, b)
}

// Wasserstein2Sinkhorn returns the entropy-regularised approximation,
// suitable for large grids. It refuses a negative, NaN or infinite mass,
// naming the cell.
func Wasserstein2Sinkhorn(a, b *Histogram) (float64, error) {
	return transport.W2Sinkhorn(a, b, nil)
}

// SlicedWasserstein returns the p-sliced Wasserstein distance averaged
// over numAngles Radon projections.
func SlicedWasserstein(a, b *Histogram, p float64, numAngles int) (float64, error) {
	return transport.SlicedW(a, b, p, numAngles)
}

// LocalPrivacy evaluates the Local Privacy metric (expected Bayesian
// adversary error, Shokri et al.) of a mechanism built by this package.
// It is defined for the per-cell channel mechanisms (DAM family and
// SEM-Geo-I).
func LocalPrivacy(dom Domain, m Mechanism) (float64, error) {
	switch mech := m.(type) {
	case *sam.Mechanism:
		return localprivacy.Compute(dom, mech.Channel())
	case *semgeoi.Mechanism:
		return localprivacy.Compute(dom, mech.Channel())
	default:
		return 0, fmt.Errorf("dpspatial: local privacy is defined for DAM-family and SEM-Geo-I mechanisms, not %T", m)
	}
}

// calibrationKey identifies a SEM-Geo-I calibration result. Both the DAM
// target and the SEM-Geo-I channels depend on the domain only through its
// grid side d (all distances are in cell units), so one bisection serves
// every domain with the same (d, ε).
type calibrationKey struct {
	d   int
	eps float64
}

var (
	calibrationMu   sync.Mutex
	calibrationMemo = map[calibrationKey]float64{}
)

// CalibrateSEMGeoI finds the Geo-I budget at which SEM-Geo-I's local
// privacy equals that of DAM with budget eps on the same domain — the
// paper's apples-to-apples comparison setting. The bisection (60
// iterations, each building a full channel) runs once per (d, ε);
// repeated calls return the memoized budget.
func CalibrateSEMGeoI(dom Domain, eps float64) (float64, error) {
	key := calibrationKey{d: dom.D, eps: eps}
	calibrationMu.Lock()
	if epsGeo, ok := calibrationMemo[key]; ok {
		calibrationMu.Unlock()
		return epsGeo, nil
	}
	calibrationMu.Unlock()

	epsGeo, err := calibrateSEMGeoI(dom, eps)
	if err != nil {
		return 0, err
	}
	calibrationMu.Lock()
	calibrationMemo[key] = epsGeo
	calibrationMu.Unlock()
	return epsGeo, nil
}

func calibrateSEMGeoI(dom Domain, eps float64) (float64, error) {
	dam, err := sam.NewDAM(dom, eps)
	if err != nil {
		return 0, err
	}
	target, err := localprivacy.Compute(dom, dam.Channel())
	if err != nil {
		return 0, err
	}
	return localprivacy.Calibrate(dom, target, func(x float64) (*fo.Channel, error) {
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}, 1e-2, 60)
}

// EstimateOption configures the one-call pipeline.
type EstimateOption func(*estimateConfig)

type estimateConfig struct {
	seed      uint64
	mechanism string
	workers   *int
	opts      []Option
}

// WithSeed fixes the pipeline's randomness (default 1).
func WithSeed(seed uint64) EstimateOption {
	return func(c *estimateConfig) { c.seed = seed }
}

// WithMechanism selects the reporting mechanism by name: "DAM" (default),
// "DAM-NS", "HUEM", "MDSW" or "SEM-Geo-I". SEM-Geo-I's Geo-I budget is
// calibrated with CalibrateSEMGeoI so its local privacy matches DAM's at
// the same ε.
func WithMechanism(name string) EstimateOption {
	return func(c *estimateConfig) { c.mechanism = name }
}

// WithOptions forwards mechanism options (radius, smoothing, collection
// workers, estimate workers).
func WithOptions(opts ...Option) EstimateOption {
	return func(c *estimateConfig) { c.opts = opts }
}

// WithWorkers fans the per-user collection step out across n workers
// (0 = all cores). Shorthand for WithOptions(WithCollectWorkers(n));
// estimates are reproducible for a fixed seed and worker count.
func WithWorkers(n int) EstimateOption {
	return func(c *estimateConfig) { c.workers = &n }
}

// EstimateMechanismNames lists the mechanisms Estimate accepts, in the
// paper's legend order.
func EstimateMechanismNames() []string {
	return []string{"DAM", "DAM-NS", "HUEM", "MDSW", "SEM-Geo-I"}
}

// MechanismNames lists every mechanism NewMechanism accepts: the
// paper's headline five, then the baseline and workload-specific
// families that ride the same report lifecycle (all of them implement
// ReportingMechanism, so any of them can serve through the collector
// and fleet tiers).
func MechanismNames() []string {
	return append(EstimateMechanismNames(),
		"CFO", "PlanarLaplace", "AHEAD", "LDPTrace", "PivotTrace")
}

// Defaults for the workload-specific mechanisms' secondary parameters —
// the paper's evaluation settings. They are part of the report scheme
// string, so mismatched pipelines are refused at adoption time.
const (
	// LDPTraceMaxLen is the trajectory length cap LDPTrace buckets over.
	LDPTraceMaxLen = 200
	// PivotTraceMaxPivots is the pivot-subsample cap PivotTrace splits
	// its budget across.
	PivotTraceMaxPivots = 4
)

// NewCFO builds the Bucket+CFO baseline: generalized randomized
// response over the d² grid cells with EM decoding.
func NewCFO(dom Domain, eps float64) (Mechanism, error) {
	return baselines.NewCFO(dom, eps)
}

// NewPlanarLaplace builds the planar Laplace mechanism of
// Geo-Indistinguishability with per-cell-unit budget epsGeo
// (a weaker guarantee than ε-LDP at the same numeric budget).
func NewPlanarLaplace(dom Domain, epsGeo float64) (Mechanism, error) {
	return baselines.NewPlanarLaplace(dom, epsGeo)
}

// NewAHEAD builds the adaptive hierarchical range-query estimator. Its
// EstimateHist returns the normalised leaf histogram; range queries are
// answered through the quadtree (rangequery.AHEAD's EstimateTree /
// EstimateTreeFromAggregate, or the collector's /v1/query endpoint).
func NewAHEAD(dom Domain, eps float64) (Mechanism, error) {
	return rangequery.NewAHEAD(dom, eps)
}

// NewLDPTrace builds the synthesis-based trajectory baseline with the
// trajectory length cap maxLen.
func NewLDPTrace(dom Domain, eps float64, maxLen int) (Mechanism, error) {
	return trajectory.NewLDPTrace(dom, eps, maxLen)
}

// NewPivotTrace builds the pivot-perturbation trajectory baseline with
// up to maxPivots pivots per trajectory.
func NewPivotTrace(dom Domain, eps float64, maxPivots int) (Mechanism, error) {
	return trajectory.NewPivotTrace(dom, eps, maxPivots)
}

// NewMechanism builds a mechanism by name over the domain with ε-LDP
// budget eps — the same construction Estimate performs internally.
// "SEM-Geo-I" calibrates its Geo-I budget with CalibrateSEMGeoI so its
// local privacy matches DAM's at the same ε; "PlanarLaplace" interprets
// eps as its per-cell-unit Geo-I budget. "LDPTrace" and "PivotTrace"
// use the paper's evaluation defaults (LDPTraceMaxLen,
// PivotTraceMaxPivots) so the report scheme is fixed by (name, d, ε)
// alone — what pipeline adoption needs.
func NewMechanism(name string, dom Domain, eps float64, opts ...Option) (Mechanism, error) {
	switch name {
	case "DAM":
		return NewDAM(dom, eps, opts...)
	case "DAM-NS":
		return NewDAMNS(dom, eps, opts...)
	case "HUEM":
		return NewHUEM(dom, eps, opts...)
	case "MDSW":
		return NewMDSW(dom, eps, opts...)
	case "SEM-Geo-I":
		epsGeo, err := CalibrateSEMGeoI(dom, eps)
		if err != nil {
			return nil, err
		}
		return NewSEMGeoI(dom, epsGeo, opts...)
	case "CFO":
		return NewCFO(dom, eps)
	case "PlanarLaplace":
		return NewPlanarLaplace(dom, eps)
	case "AHEAD":
		return NewAHEAD(dom, eps)
	case "LDPTrace":
		return NewLDPTrace(dom, eps, LDPTraceMaxLen)
	case "PivotTrace":
		return NewPivotTrace(dom, eps, PivotTraceMaxPivots)
	default:
		return nil, fmt.Errorf("dpspatial: unknown mechanism %q (accepted: %s)",
			name, strings.Join(MechanismNames(), ", "))
	}
}

// Estimate is the one-call pipeline: fit a d×d domain over the points,
// bucketise, run the selected ε-LDP mechanism for every point, and return
// the estimated (normalised) spatial distribution.
func Estimate(points []Point, d int, eps float64, opts ...EstimateOption) (*Histogram, error) {
	cfg := estimateConfig{seed: 1, mechanism: "DAM"}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers != nil {
		cfg.opts = append(cfg.opts, WithCollectWorkers(*cfg.workers))
	}
	dom, err := DomainOver(points, d)
	if err != nil {
		return nil, err
	}
	truth := HistFromPoints(dom, points)
	mech, err := NewMechanism(cfg.mechanism, dom, eps, cfg.opts...)
	if err != nil {
		return nil, err
	}
	return mech.EstimateHist(truth, NewRand(cfg.seed))
}
