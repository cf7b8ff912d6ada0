package collector

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/metrics"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/trace"
)

// The read side both tiers serve — GET /v1/estimate, /v1/query and
// /v1/aggregate — over a snapshot of the tier's merged state: a
// collector's canonical aggregate, or a fleet supervisor's hierarchical
// merge of its members' aggregates. A tier supplies only how it takes
// that snapshot and how its errors map to statuses; the decode caches,
// the decode accounting, the decode spans and the handlers exist once,
// here, so the tiers cannot drift apart.

// MergedState is one snapshot of a tier's merged state.
type MergedState struct {
	// Mech is the installed mechanism; Pipeline its pinned metadata (nil
	// when nothing pinned it).
	Mech     Estimator
	Pipeline *Pipeline
	// Agg is the merged aggregate. It is the read path's to keep: it is
	// decoded and marshaled outside every tier lock.
	Agg *fo.Aggregate
	// Key names the aggregate's content — an unchanged key means an
	// unchanged aggregate, so a decode cached under it is still current.
	Key uint64
	// Gen is the generation reported with answers decoded from Agg.
	Gen uint64
}

// errNoReports refuses a decode of an empty merged aggregate; both
// tiers answer it 409.
var errNoReports = errors.New("no reports merged yet")

// decoded is one cached decode — the estimate histogram or the
// quadtree — plus the state it was decoded from and how.
type decoded struct {
	est   *grid.Hist2D
	tree  *rangequery.Quadtree
	key   uint64
	gen   uint64
	n     float64
	iters int
	warm  bool
}

// ReadPath serves one tier's read endpoints over snapshots its state
// function takes.
type ReadPath struct {
	state  func(ctx context.Context) (MergedState, error)
	status func(err error) int // HTTP status of a state or decode error
	met    *ServiceMetrics

	// decodeSpan and treeSpan are the tier's decode span names,
	// "<tier>.em.decode" and "<tier>.tree.decode".
	decodeSpan, treeSpan string

	// decodeMu serialises snapshot + decode cycles, so concurrent reads
	// never duplicate work; the tier's submissions proceed meanwhile.
	// The caches are written only under it. The first decode is cold
	// (EstimateFromAggregate semantics) and later ones warm-start from
	// the cached estimate when the mechanism supports it.
	decodeMu   sync.Mutex
	cachedEst  decoded // backs /v1/estimate and top-k (est nil until the first decode)
	cachedTree decoded // backs range queries of TreeEstimator mechanisms

	// mu guards what /v1/stats and /metrics read outside decodeMu: the
	// decode counters and the generation of the cached estimate.
	mu      sync.Mutex
	decodes DecodeCounters
	estGen  uint64
}

// NewReadPath builds the read path of a tier: tier names its decode
// spans, state snapshots its merged state, status maps an error of
// state or of a decode to the HTTP status the tier answers with. A
// client-side query fault is 400 and an empty merged aggregate 409 on
// every tier.
func NewReadPath(tier string, met *ServiceMetrics, state func(ctx context.Context) (MergedState, error), status func(err error) int) *ReadPath {
	return &ReadPath{
		state: state, status: status, met: met,
		decodeSpan: tier + ".em.decode", treeSpan: tier + ".tree.decode",
	}
}

// Handler assembles a tier's HTTP surface: the tier's own routes, submit
// as POST /v1/aggregate next to the shared GET, the shared GET
// /v1/estimate and /v1/query, /metrics from reg when serveMetrics, the
// trace ring when tracer is non-nil, and pprof when enabled — mounted
// inside the bearer gate but outside request accounting and tracing.
// The mux is wrapped tracing-outermost, then request accounting (so
// 401s are counted), then the bearer gate.
func (rp *ReadPath) Handler(own map[string]http.HandlerFunc, submit http.HandlerFunc, reg *metrics.Registry, serveMetrics bool,
	tracer *trace.Tracer, slow *trace.SlowLogger, authToken string, enablePprof bool) http.Handler {
	mux := http.NewServeMux()
	for path, h := range own {
		mux.HandleFunc(path, h)
	}
	mux.HandleFunc("/v1/aggregate", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			submit(w, r)
		case http.MethodGet:
			rp.serveAggregate(w, r)
		default:
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST only"))
		}
	})
	mux.HandleFunc("/v1/estimate", rp.handleEstimate)
	mux.HandleFunc("/v1/query", rp.handleQuery)
	if serveMetrics {
		mux.Handle(MetricsPath, reg.Handler())
	}
	if tracer != nil {
		mux.Handle(TracesPath, tracer.Handler())
	}
	if enablePprof {
		// Profiling data leaks code layout and timing, so it gets the
		// same secret as the data endpoints.
		mux.HandleFunc(PprofPathPrefix, pprof.Index)
		mux.HandleFunc(PprofPathPrefix+"cmdline", pprof.Cmdline)
		mux.HandleFunc(PprofPathPrefix+"profile", pprof.Profile)
		mux.HandleFunc(PprofPathPrefix+"symbol", pprof.Symbol)
		mux.HandleFunc(PprofPathPrefix+"trace", pprof.Trace)
	}
	return trace.Middleware(tracer, slow, untracedPath, instrumentHTTP(rp.met, requireBearer(authToken, mux)))
}

// Refresh brings the cached estimate up to the tier's current state —
// what the cadence loops call to keep it warm.
func (rp *ReadPath) Refresh(ctx context.Context) error {
	_, _, err := rp.refresh(ctx, false)
	return err
}

// DecodeStats returns the decode accounting and the generation the
// cached estimate was decoded from (0 = no estimate yet).
func (rp *ReadPath) DecodeStats() (DecodeCounters, uint64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.decodes, rp.estGen
}

// refresh snapshots the tier's state and brings the decode a read needs
// up to it, decoding at most once per state key: the quadtree for a
// range query (rangeQuery) on a TreeEstimator, the estimate otherwise.
// A traced request context hangs a cache-hit event or a decode span off
// its active span; background callers record nothing.
func (rp *ReadPath) refresh(ctx context.Context, rangeQuery bool) (MergedState, decoded, error) {
	rp.decodeMu.Lock()
	defer rp.decodeMu.Unlock()
	st, err := rp.state(ctx)
	if err == nil && st.Agg.N == 0 {
		err = errNoReports
	}
	if err != nil {
		return st, decoded{}, err
	}
	if te, ok := st.Mech.(TreeEstimator); ok && rangeQuery {
		t, err := rp.rangeTree(ctx, te, st)
		return st, t, err
	}
	e, err := rp.estimate(ctx, st)
	return st, e, err
}

// estimate returns the estimate decoded from st, reusing the cached one
// when st's key is unchanged. Callers hold decodeMu.
func (rp *ReadPath) estimate(ctx context.Context, st MergedState) (decoded, error) {
	span := trace.SpanFrom(ctx)
	if rp.cachedEst.est != nil && rp.cachedEst.key == st.Key {
		rp.met.QueryCacheHits.With(CacheEstimate).Inc()
		span.Event("estimate.cache.hit", trace.Int("generation", int64(rp.cachedEst.gen)))
		return rp.cachedEst, nil
	}
	rp.met.QueryCacheMisses.With(CacheEstimate).Inc()
	decodeSpan := span.Child(rp.decodeSpan)
	t0 := time.Now()
	est, iters, warm, err := decodeEstimate(st.Mech, st.Agg, rp.cachedEst.est)
	if err != nil {
		decodeSpan.Fail(err)
		decodeSpan.End()
		return decoded{}, err
	}
	elapsed := time.Since(t0)
	mode := DecodeCold
	if warm {
		mode = DecodeWarm
	}
	decodeSpan.SetAttr(
		trace.String("mode", mode),
		trace.Int("iterations", int64(iters)),
		trace.Int("generation", int64(st.Gen)),
	)
	decodeSpan.End()

	rp.cachedEst = decoded{est: est, key: st.Key, gen: st.Gen, n: st.Agg.N, iters: iters, warm: warm}
	rp.mu.Lock()
	rp.estGen = st.Gen
	savedBefore := rp.decodes.IterationsSaved
	rp.decodes.Account(iters, warm)
	saved := rp.decodes.IterationsSaved - savedBefore
	rp.mu.Unlock()
	rp.met.ObserveDecode(elapsed, iters, warm, saved)
	return rp.cachedEst, nil
}

// rangeTree returns the quadtree decoded from st, reusing the cached one
// when st's key is unchanged. Callers hold decodeMu.
func (rp *ReadPath) rangeTree(ctx context.Context, te TreeEstimator, st MergedState) (decoded, error) {
	span := trace.SpanFrom(ctx)
	if rp.cachedTree.tree != nil && rp.cachedTree.key == st.Key {
		rp.met.QueryCacheHits.With(CacheTree).Inc()
		span.Event("tree.cache.hit", trace.Int("generation", int64(rp.cachedTree.gen)))
		return rp.cachedTree, nil
	}
	rp.met.QueryCacheMisses.With(CacheTree).Inc()
	treeSpan := span.Child(rp.treeSpan)
	tree, _, err := te.EstimateTreeFromAggregate(st.Agg)
	if err != nil {
		treeSpan.Fail(err)
		treeSpan.End()
		return decoded{}, err
	}
	treeSpan.SetAttr(trace.Int("generation", int64(st.Gen)))
	treeSpan.End()
	rp.cachedTree = decoded{tree: tree, key: st.Key, gen: st.Gen, n: st.Agg.N}
	return rp.cachedTree, nil
}

// decodeEstimate runs one estimate decode: warm-started from init when
// the mechanism supports it and init is non-nil, cold otherwise.
func decodeEstimate(mech Estimator, agg *fo.Aggregate, init *grid.Hist2D) (est *grid.Hist2D, iters int, warm bool, err error) {
	if ws, ok := mech.(WarmEstimator); ok {
		e, stats, err := ws.EstimateFromAggregateWarm(agg, init)
		if err != nil {
			return nil, 0, false, err
		}
		return e, stats.Iterations, init != nil, nil
	}
	e, err := mech.EstimateFromAggregate(agg)
	if err != nil {
		return nil, 0, false, err
	}
	return e, 0, false, nil
}

// fail answers a refused read: 400 for a client-side query fault, 409
// for an empty merged aggregate, the tier's own status otherwise.
func (rp *ReadPath) fail(w http.ResponseWriter, err error) {
	status := rp.status(err)
	switch {
	case errors.As(err, new(*BadQueryError)):
		status = http.StatusBadRequest
	case errors.Is(err, errNoReports):
		status = http.StatusConflict
	}
	writeError(w, status, err)
}

// handleEstimate serves the current histogram, refreshing first if the
// merged state changed since the last decode — so the response always
// reflects every merged submission.
func (rp *ReadPath) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	st, cur, err := rp.refresh(r.Context(), false)
	if err != nil {
		rp.fail(w, err)
		return
	}
	est := cur.est
	writeJSON(w, http.StatusOK, &EstimateResponse{
		Scheme:     st.Mech.Scheme(),
		Generation: cur.gen,
		Reports:    cur.n,
		D:          est.Dom.D,
		Domain:     DomainSpec{MinX: est.Dom.MinX, MinY: est.Dom.MinY, Side: est.Dom.Side},
		Mass:       est.Mass,
		Iterations: cur.iters,
		Warm:       cur.warm,
	})
}

// handleQuery serves GET /v1/query from the current merged state,
// refreshing the needed decode first so the answer always reflects every
// merged submission.
func (rp *ReadPath) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	req, err := ParseQueryRequest(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, cur, err := rp.refresh(r.Context(), req.Type == QueryTypeRange)
	var resp *QueryResponse
	if err == nil {
		resp, err = answerQuery(req, st.Mech.Scheme(), cur.gen, cur.n, cur.tree, cur.est)
	}
	if err != nil {
		rp.fail(w, err)
		return
	}
	rp.met.Queries.With(req.Type).Inc()
	writeJSON(w, http.StatusOK, resp)
}

// serveAggregate serves the merged aggregate as a DPA2 blob with the
// pinned pipeline in the response header — the chaining primitive: a
// supervisor pulls its members through it, and tiers stack because a
// supervisor serves it byte-compatibly with a collector.
func (rp *ReadPath) serveAggregate(w http.ResponseWriter, r *http.Request) {
	st, err := rp.state(r.Context())
	if err != nil {
		rp.fail(w, err)
		return
	}
	blob, err := st.Agg.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if st.Pipeline != nil {
		hdr, err := json.Marshal(st.Pipeline)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set(PipelineHeader, string(hdr))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}
