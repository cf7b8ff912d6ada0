package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/fleet"
	"dpspatial/internal/grid"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/trace"
)

// The two served-lifecycle workloads run every server in this process on
// loopback and drive it in a closed loop: each client session sends its
// next request only after the previous one answered.

const (
	servedMech = "DAM"
	servedD    = 15
	servedEps  = 3.5
	// shardPool is how many distinct shard blobs a run cycles through;
	// every submission carries a fresh submission ID regardless.
	shardPool     = 64
	minShardUsers = 50
	maxShardUsers = 500
	// sessionSubmits and sessionQueries shape one serve-mixed round:
	// submit B shards, GET /v1/estimate, then R queries alternating
	// range and top-k. B is one collection epoch of examples/taxiflow
	// (four shards through a two-member fleet, then one estimate); R is
	// the one range and one top-k query the fleet CI smoke and
	// examples/rangequery make after their estimate.
	sessionSubmits = 4
	sessionQueries = 2
	// maxThinkMs bounds the pause a serve-mixed session takes between
	// rounds, drawn per round from the seed. Nothing in the repository
	// gives a think time; the pause is there because without it the
	// sessions fall into lock-step patterns that decide, for a whole
	// run, how many reads find the other session's fresh submissions.
	// Round times leave it out.
	maxThinkMs = 400
	// traceCapacity is the traced run's span ring per server; the
	// per-layer means cover the newest traces it holds.
	traceCapacity = 1 << 14
)

// servedInputs are the shards and queries a served run sends, generated
// from the seed before any server starts.
type servedInputs struct {
	dom      dpspatial.Domain
	pipeline *dpspatial.CollectorPipeline
	mech     dpspatial.ReportingMechanism
	blobs    [][]byte
	users    []float64 // report count of each blob
	queries  []collector.QueryRequest
	buildMs  float64 // mechanism construction
	accNs    float64 // fo.Accumulate time per user
}

func makeServedInputs(seed uint64) (*servedInputs, error) {
	dom, err := dpspatial.NewDomain(0, 0, 1, servedD)
	if err != nil {
		return nil, err
	}
	in := &servedInputs{dom: dom}
	t0 := time.Now()
	in.pipeline, in.mech, err = dpspatial.NewCollectorPipeline(servedMech, dom, servedEps)
	if err != nil {
		return nil, err
	}
	in.buildMs = msSince(t0)
	r := dpspatial.NewRand(seed)
	cell := func() int {
		return min(max(int(servedD*(0.5+0.18*r.NormFloat64())), 0), servedD-1)
	}
	var accTime time.Duration
	var users float64
	for i := 0; i < shardPool; i++ {
		n := minShardUsers + r.Intn(maxShardUsers-minShardUsers+1)
		truth := grid.NewHist(dom)
		for u := 0; u < n; u++ {
			truth.Mass[cell()*servedD+cell()]++
		}
		agg := in.mech.NewAggregate()
		t := time.Now()
		if err := dpspatial.AccumulateHist(in.mech, agg, truth, r); err != nil {
			return nil, err
		}
		accTime += time.Since(t)
		users += float64(n)
		blob, err := agg.MarshalBinary()
		if err != nil {
			return nil, err
		}
		in.blobs = append(in.blobs, blob)
		in.users = append(in.users, float64(n))
	}
	in.accNs = float64(accTime.Nanoseconds()) / users
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			x0, y0 := r.Intn(servedD), r.Intn(servedD)
			q := rangequery.Query{X0: x0, Y0: y0, X1: x0 + r.Intn(servedD-x0), Y1: y0 + r.Intn(servedD-y0)}
			in.queries = append(in.queries, collector.QueryRequest{Type: collector.QueryTypeRange, Range: q})
		} else {
			in.queries = append(in.queries, collector.QueryRequest{Type: collector.QueryTypeTopK, K: 1 + r.Intn(10)})
		}
	}
	return in, nil
}

// server is one in-process HTTP listener on loopback.
type server struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 30 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops the listener and every connection, and waits for Serve.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// newHTTPClient gives each run its own connection pool, sized for the
// run's sessions plus the supervisor's member pulls.
func newHTTPClient() (*http.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 120 * time.Second}, tr.CloseIdleConnections
}

// rssAfter is the fixed amount of work after which a served run reads
// its peak RSS: 8192 submissions, or 64 serve-mixed rounds.
var rssAfter = map[string]int{"ingest-durable": 8192, "serve-mixed": 64}

// servedParams sizes one served run; probes use small ones.
type servedParams struct {
	sessions  int
	seed      uint64
	duration  time.Duration
	maxRounds int // 0 = until duration; per session otherwise
	rssAfter  int // rounds, over all sessions, after which peak RSS is read
	setupReps int
	trace     bool
	faults    faults
	dataRoot  string
}

func paramsFor(opts options) servedParams {
	return servedParams{
		sessions:  opts.workers,
		seed:      opts.seed,
		duration:  opts.duration,
		rssAfter:  rssAfter[opts.workload],
		setupReps: setupReps,
		trace:     opts.trace,
		faults:    opts.faults,
		dataRoot:  opts.dataRoot,
	}
}

// opLog records one session's operations.
type opLog struct {
	submitMs, estimateMs, queryMs, roundMs []float64
	acks                                   []*collector.SubmitResponse
	acked                                  []int // blob index of each ack
	attempted, failed                      int
	estimates, warm                        int
	errs                                   []string
	cpuS                                   float64 // process CPU time of the whole run
	rssMiB                                 float64 // peak RSS after rssAfter rounds (0 = not reached)
}

func (l *opLog) miss(samples *[]float64, err error) {
	l.failed++
	*samples = append(*samples, math.Inf(1))
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// submit sends blob i under a fresh submission ID and records the ack.
func (l *opLog) submit(ctx context.Context, cl *collector.Client, in *servedInputs, i int, drop bool) {
	l.attempted++
	t0 := time.Now()
	ack, err := cl.SubmitAggregateBlob(ctx, in.blobs[i], in.pipeline)
	if err != nil {
		l.miss(&l.submitMs, err)
		return
	}
	l.submitMs = append(l.submitMs, msSince(t0))
	if drop {
		// The dropAck fault: the response is lost on its way back.
		l.failed++
		return
	}
	l.acks = append(l.acks, ack)
	l.acked = append(l.acked, i)
}

func mergeLogs(logs []*opLog) *opLog {
	all := &opLog{}
	for _, l := range logs {
		all.submitMs = append(all.submitMs, l.submitMs...)
		all.estimateMs = append(all.estimateMs, l.estimateMs...)
		all.queryMs = append(all.queryMs, l.queryMs...)
		all.roundMs = append(all.roundMs, l.roundMs...)
		all.acks = append(all.acks, l.acks...)
		all.acked = append(all.acked, l.acked...)
		all.attempted += l.attempted
		all.failed += l.failed
		all.estimates += l.estimates
		all.warm += l.warm
		all.errs = append(all.errs, l.errs...)
	}
	return all
}

// runSessions runs one closed-loop body per session until the deadline
// (or maxRounds rounds each) and returns the merged log and the wall
// time it took.
func runSessions(p servedParams, body func(session, round int, l *opLog)) (*opLog, time.Duration) {
	logs := make([]*opLog, p.sessions)
	var wg sync.WaitGroup
	var rounds atomic.Int64
	var rss atomic.Uint64 // float64 bits of the peak RSS after rssAfter rounds
	start, c0 := time.Now(), cpuSeconds()
	deadline := start.Add(p.duration)
	for s := range logs {
		logs[s] = &opLog{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; p.maxRounds == 0 || round < p.maxRounds; round++ {
				if p.maxRounds == 0 && !time.Now().Before(deadline) {
					return
				}
				body(s, round, logs[s])
				if rounds.Add(1) == int64(p.rssAfter) {
					rss.Store(math.Float64bits(peakRSSMiB()))
				}
			}
		}(s)
	}
	wg.Wait()
	all := mergeLogs(logs)
	all.cpuS = cpuSeconds() - c0
	all.rssMiB = math.Float64frombits(rss.Load())
	return all, time.Since(start)
}

// tail reports a percentile, or NaN with the refusal noted in the table
// when the sample count cannot support it.
func tail(name, unit string, samples []float64, q float64) metric {
	v, err := percentile(samples, q)
	if err != nil {
		v = math.NaN()
	}
	return metric{name: name, unit: unit, value: v, n: len(samples)}
}

// --- ingest-durable ---

// ingestDeployment is one durable collector serving on loopback.
type ingestDeployment struct {
	dir    string
	store  *durable.Store
	c      *collector.Collector
	srv    *server
	client *collector.Client
}

func openIngest(dir string, dom dpspatial.Domain, traced bool, hc *http.Client) (*ingestDeployment, error) {
	store, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	d := &ingestDeployment{dir: dir, store: store}
	p, mech, err := dpspatial.NewCollectorPipeline(servedMech, dom, servedEps)
	if err == nil {
		d.c, err = collector.New(collector.Config{
			Mechanism: mech, Pipeline: p, Store: store,
			DisableTraces: !traced, TraceCapacity: traceCapacity,
		})
	}
	if err == nil {
		d.srv, err = startServer(d.c)
	}
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	d.client = &collector.Client{BaseURL: d.srv.url, HTTPClient: hc}
	return d, nil
}

// close stops serving, writes the collector's final snapshot and
// closes the store.
func (d *ingestDeployment) close() error {
	d.srv.close()
	d.c.Close()
	return d.store.Close()
}

// servedRun is everything one served run measured; layers is nil
// unless the run was traced.
type servedRun struct {
	res    *result
	layers layerSet
}

// checkDataFS creates the data directory, records its filesystem, and
// refuses tmpfs and ramfs, where fsync does nothing and durable numbers
// would be fiction.
func checkDataFS(out io.Writer, root string) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	fs, err := fsType(root)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "env data_dir_fs=%s\n", fs)
	if fs == "tmpfs" || fs == "ramfs" {
		return fmt.Errorf("data directory %s is on %s, where fsync does nothing; run from a checkout on a disk filesystem", root, fs)
	}
	return nil
}

func runIngestDurable(opts options, out io.Writer) (*result, error) {
	if err := checkDataFS(out, opts.dataRoot); err != nil {
		return nil, err
	}
	in, err := makeServedInputs(opts.seed)
	if err != nil {
		return nil, err
	}
	run, err := ingest(paramsFor(opts), in)
	if err != nil || !opts.trace {
		if run != nil {
			return run.res, err
		}
		return nil, err
	}
	ls := run.layers
	setServedInputLayers(ls, in)
	fleetProbe, err := serveMixed(probeParams(opts, fleetProbeRounds), in)
	if err != nil {
		return nil, fmt.Errorf("fleet probe: %w", err)
	}
	ls.fillFrom(fleetProbe.layers, fleetLayerNames...)
	if err := standaloneProbes(opts, in, ls, in.blobs); err != nil {
		return nil, err
	}
	run.res.contract, err = ls.list()
	return run.res, err
}

func ingest(p servedParams, in *servedInputs) (*servedRun, error) {
	res := &result{}
	hc, closeIdle := newHTTPClient()
	defer closeIdle()
	ctx := context.Background()
	base, err := os.MkdirTemp(p.dataRoot, "ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// Set-up: open the store, build the collector, listen, and take the
	// first ack — repeated in fresh directories; the last one is kept.
	var setup []float64
	var dep *ingestDeployment
	var first *collector.SubmitResponse
	for i := 0; i < p.setupReps; i++ {
		setupPause(i)
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		dep, err = openIngest(filepath.Join(base, fmt.Sprint(i)), in.dom, p.trace, hc)
		if err != nil {
			return nil, err
		}
		first, err = dep.client.SubmitAggregateBlob(ctx, in.blobs[0], in.pipeline)
		if err != nil {
			dep.close()
			return nil, fmt.Errorf("first submission: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()

	log, wall := runSessions(p, func(s, k int, l *opLog) {
		i := (1 + s + k*p.sessions) % len(in.blobs)
		l.submit(ctx, dep.client, in, i, p.faults.dropAck && s == 0 && k == 1)
	})
	res.attempted = log.attempted + p.setupReps
	res.failed = log.failed
	res.rssMiB = log.rssMiB
	for _, e := range log.errs {
		res.fail("submission failed: %s", e)
	}

	// Exactly one ack per submission: the acks received carry every
	// generation from 1 to the collector's, once each, and the merged
	// report count is the sum of the acknowledged shards.
	acks := append([]*collector.SubmitResponse{first}, log.acks...)
	want := in.users[0]
	for _, i := range log.acked {
		want += in.users[i]
	}
	checkAcks(res, acks)
	stats, err := dep.client.Stats(ctx)
	if err != nil {
		return nil, err
	}
	if stats.Generation != uint64(len(acks)) || stats.Reports != want {
		res.fail("collector merged %d submissions (%g reports), clients hold %d acks (%g reports)",
			stats.Generation, stats.Reports, len(acks), want)
	}

	var ls layerSet
	if p.trace {
		ls = newLayerSet()
		ds := dep.store.Stats()
		n := float64(len(acks))
		ls.set("durable.fsyncs_per_ack", float64(ds.WALFsyncs)/n, len(acks), "in-situ")
		ls.set("durable.wal_bytes_per_ack", float64(ds.WALBytesWritten)/n, len(acks), "in-situ")
		ls.set("durable.snapshots", float64(ds.SnapshotsWritten), 0, "in-situ")
		collectorLayers(ls, dep.c.Tracer().Snapshot(0, "", 0), nil)
		var snap []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if err := dep.c.Snapshot(); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
			snap = append(snap, msSince(t0))
		}
		ls.set("collector.snapshot_ms", median(snap), len(snap), "in-situ")
	}

	// Durability: after Close, the reopened store recovers the same
	// aggregate byte for byte.
	before, err := dep.client.FetchAggregateBlob(ctx)
	if err != nil {
		return nil, err
	}
	dir := dep.dir
	err = dep.close()
	dep = nil
	if err != nil {
		return nil, err
	}
	after, err := recoveredAggregate(dir, in)
	if err != nil {
		res.fail("reopening the store: %v", err)
	} else if !bytes.Equal(before, after) {
		res.fail("reopened store serves a different aggregate (%d bytes, was %d)", len(after), len(before))
	}
	if p.trace {
		decodeCheck(res, ls, in, before)
	}

	res.report = []metric{
		{name: "setup_s", unit: "s", value: median(setup), n: len(setup)},
		{name: "submit_per_s", unit: "acks/s", value: float64(len(log.acks)) / wall.Seconds(), n: len(log.acks)},
		tail("submit_p50_ms", "ms", log.submitMs, 0.5),
		tail("submit_p99_ms", "ms", log.submitMs, 0.99),
		tail("submit_p999_ms", "ms", log.submitMs, 0.999),
	}
	if !p.trace {
		res.contract = e2eContract(setup, median(log.submitMs), float64(len(log.acks))/wall.Seconds(), log.cpuS, len(log.submitMs))
	}
	return &servedRun{res: res, layers: ls}, nil
}

// checkAcks verifies that the acks name generations 1..len(acks), once
// each.
func checkAcks(res *result, acks []*collector.SubmitResponse) {
	gens := make([]uint64, len(acks))
	for i, a := range acks {
		gens[i] = a.Generation
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for i, g := range gens {
		if g != uint64(i+1) {
			res.fail("acks do not cover generations 1..%d once each (position %d holds %d)", len(gens), i+1, g)
			return
		}
	}
}

// recoveredAggregate reopens a closed data directory with a fresh
// collector and returns the aggregate it serves.
func recoveredAggregate(dir string, in *servedInputs) ([]byte, error) {
	store, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	c, err := collector.New(collector.Config{Mechanism: in.mech, Pipeline: in.pipeline, Store: store, DisableTraces: true})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/aggregate", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/aggregate: HTTP %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// decodeCheck decodes the run's final aggregate cold, in process: the
// EM layer's cost on the ingested data, and a check that the merged
// state is a valid aggregate of the mechanism.
func decodeCheck(res *result, ls layerSet, in *servedInputs, blob []byte) {
	agg := &dpspatial.Aggregate{}
	if err := agg.UnmarshalBinary(blob); err != nil {
		res.fail("final aggregate does not decode: %v", err)
		return
	}
	t0 := time.Now()
	est, stats, err := dpspatial.EstimateFromAggregateWarm(in.mech, agg, nil)
	if err != nil {
		res.fail("final aggregate does not estimate: %v", err)
		return
	}
	ls.set("em.decode_ms", msSince(t0), 1, "check")
	ls.set("em.iterations", float64(stats.Iterations), 1, "check")
	ls.set("em.share", 0, 0, "in-situ")
	total := 0.0
	for _, v := range est.Mass {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		res.fail("final estimate has mass %v", total)
	}
}

// collectorLayers derives the collector layer metrics from one tier's
// completed submission traces; fleetSpans, when non-nil, adds the
// supervisor's spans per submission to trace.spans_per_submit.
func collectorLayers(ls layerSet, traces []trace.TraceData, supervisorSpans *acc) {
	spans := map[string]*acc{}
	self := &acc{}
	perSubmit := &acc{}
	for _, td := range traces {
		if td.Root != "POST /v1/aggregate" || td.Outcome != trace.OutcomeOK {
			continue
		}
		children := 0.0
		for _, s := range td.Spans[1:] {
			a := spans[s.Name]
			if a == nil {
				a = &acc{}
				spans[s.Name] = a
			}
			a.add(s.DurationMs * 1000)
			children += s.DurationMs
		}
		self.add((td.DurationMs - children) * 1000)
		perSubmit.add(float64(len(td.Spans)))
	}
	for name, span := range map[string]string{
		"collector.body_read_us":  "collector.body.read",
		"collector.wal_append_us": "collector.wal.append",
		"collector.merge_us":      "collector.merge",
		"collector.ack_us":        "collector.ack",
	} {
		if a := spans[span]; a != nil {
			ls.set(name, a.mean(), a.n, "in-situ")
		}
	}
	if self.n > 0 {
		ls.set("collector.submit_self_us", self.mean(), self.n, "in-situ")
		n := perSubmit.mean()
		if supervisorSpans != nil {
			n += supervisorSpans.mean()
		}
		ls.set("trace.spans_per_submit", n, perSubmit.n, "in-situ")
	}
}

// --- serve-mixed ---

// fleetDeployment is a supervisor fronting two in-memory collectors.
type fleetDeployment struct {
	members []*collector.Collector
	servers []*server // members first, supervisor last
	sup     *fleet.Supervisor
	url     string
}

func openFleet(dom dpspatial.Domain, traced bool, hc *http.Client) (*fleetDeployment, error) {
	d := &fleetDeployment{}
	p, mech, err := dpspatial.NewCollectorPipeline(servedMech, dom, servedEps)
	if err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		c, err := collector.New(collector.Config{
			Mechanism: mech, Pipeline: p,
			DisableTraces: !traced, TraceCapacity: traceCapacity,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		srv, err := startServer(c)
		if err != nil {
			d.close()
			return nil, err
		}
		d.members = append(d.members, c)
		d.servers = append(d.servers, srv)
		urls = append(urls, srv.url)
	}
	_, d.sup, err = dpspatial.NewFleetPipeline(servedMech, dom, servedEps, urls,
		dpspatial.WithFleetTracing(traced),
		dpspatial.WithFleetTraceBuffer(traceCapacity),
		func(c *fleet.Config) { c.HTTPClient = hc })
	if err != nil {
		d.close()
		return nil, err
	}
	srv, err := startServer(d.sup)
	if err != nil {
		d.close()
		return nil, err
	}
	d.servers = append(d.servers, srv)
	d.url = srv.url
	return d, nil
}

func (d *fleetDeployment) close() {
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].close()
	}
	if d.sup != nil {
		d.sup.Close()
	}
	for _, c := range d.members {
		c.Close()
	}
}

var fleetLayerNames = []string{
	"fleet.route_attempt_us", "fleet.pull_ms", "fleet.decode_ms",
	"fleet.decodes_per_read", "fleet.em_iterations_per_decode", "fleet.warm_ratio",
}

var durableLayerNames = []string{
	"collector.wal_append_us", "collector.snapshot_ms",
	"durable.fsyncs_per_ack", "durable.wal_bytes_per_ack", "durable.snapshots",
}

var collectorLayerNames = []string{
	"collector.body_read_us", "collector.wal_append_us", "collector.merge_us",
	"collector.ack_us", "collector.submit_self_us", "collector.snapshot_ms",
	"durable.fsyncs_per_ack", "durable.wal_bytes_per_ack", "durable.snapshots",
	"trace.spans_per_submit",
}

func runServeMixed(opts options, out io.Writer) (*result, error) {
	in, err := makeServedInputs(opts.seed)
	if err != nil {
		return nil, err
	}
	run, err := serveMixed(paramsFor(opts), in)
	if err != nil || !opts.trace {
		if run != nil {
			return run.res, err
		}
		return nil, err
	}
	ls := run.layers
	setServedInputLayers(ls, in)
	if err := checkDataFS(out, opts.dataRoot); err != nil {
		return nil, err
	}
	durableProbe, err := ingest(probeParams(opts, ingestProbeRounds), in)
	if err != nil {
		return nil, fmt.Errorf("durable probe: %w", err)
	}
	ls.fillFrom(durableProbe.layers, durableLayerNames...)
	if err := standaloneProbes(opts, in, ls, in.blobs); err != nil {
		return nil, err
	}
	run.res.contract, err = ls.list()
	return run.res, err
}

func serveMixed(p servedParams, in *servedInputs) (*servedRun, error) {
	res := &result{}
	hc, closeIdle := newHTTPClient()
	defer closeIdle()
	ctx := context.Background()

	// Set-up: members and supervisor built and listening, and the first
	// ack through the supervisor. The last deployment is kept.
	var setup []float64
	var dep *fleetDeployment
	var err error
	for i := 0; i < p.setupReps; i++ {
		setupPause(i)
		if dep != nil {
			dep.close()
		}
		t0 := time.Now()
		if dep, err = openFleet(in.dom, p.trace, hc); err != nil {
			return nil, err
		}
		cl := &collector.Client{BaseURL: dep.url, HTTPClient: hc}
		if _, err := cl.SubmitAggregateBlob(ctx, in.blobs[0], in.pipeline); err != nil {
			dep.close()
			return nil, fmt.Errorf("first submission: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer dep.close()

	think := make([]*dpspatial.Rand, p.sessions)
	for s := range think {
		think[s] = dpspatial.NewRand(p.seed ^ uint64(s+1)*0x9e3779b97f4a7c15)
	}
	log, wall := runSessions(p, func(s, k int, l *opLog) {
		cl := &collector.Client{BaseURL: dep.url, HTTPClient: hc}
		time.Sleep(time.Duration(think[s].Float64() * maxThinkMs * float64(time.Millisecond)))
		t0 := time.Now()
		before := l.failed
		for b := 0; b < sessionSubmits; b++ {
			i := (1 + s + (k*sessionSubmits+b)*p.sessions) % len(in.blobs)
			l.submit(ctx, cl, in, i, p.faults.dropAck && s == 0 && k == 0 && b == 1)
		}
		l.attempted++
		t := time.Now()
		if _, resp, err := cl.Estimate(ctx); err != nil {
			l.miss(&l.estimateMs, err)
		} else {
			l.estimateMs = append(l.estimateMs, msSince(t))
			l.estimates++
			if resp.Warm {
				l.warm++
			}
		}
		for q := 0; q < sessionQueries; q++ {
			l.attempted++
			t := time.Now()
			if _, err := cl.Query(ctx, in.queries[(k*sessionQueries+q)%len(in.queries)]); err != nil {
				l.miss(&l.queryMs, err)
			} else {
				l.queryMs = append(l.queryMs, msSince(t))
			}
		}
		if l.failed > before {
			l.roundMs = append(l.roundMs, math.Inf(1))
		} else {
			l.roundMs = append(l.roundMs, msSince(t0))
		}
	})
	res.attempted = log.attempted + p.setupReps
	res.failed = log.failed
	res.rssMiB = log.rssMiB
	for _, e := range log.errs {
		res.fail("request failed: %s", e)
	}

	// The supervisor's aggregate is the local merge of every
	// acknowledged blob, and a fresh supervisor's first (cold) decode of
	// it equals a cold in-process decode bit for bit.
	local := in.mech.NewAggregate()
	for _, i := range append([]int{0}, log.acked...) {
		shard := &dpspatial.Aggregate{}
		if err := shard.UnmarshalBinary(in.blobs[i]); err != nil {
			return nil, err
		}
		if err := local.Merge(shard); err != nil {
			return nil, err
		}
	}
	want, err := local.MarshalBinary()
	if err != nil {
		return nil, err
	}
	cl := &collector.Client{BaseURL: dep.url, HTTPClient: hc}
	got, err := cl.FetchAggregateBlob(ctx)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		res.fail("supervisor aggregate (%d bytes) differs from the local merge of the %d acknowledged blobs (%d bytes)",
			len(got), len(log.acked)+1, len(want))
	}
	t0 := time.Now()
	cold, stats, err := dpspatial.EstimateFromAggregateWarm(in.mech, local, nil)
	if err != nil {
		return nil, err
	}
	coldMs := msSince(t0)
	fresh, err := coldFleetEstimate(dep, in, hc)
	if err != nil {
		res.fail("fresh supervisor over the same members: %v", err)
	} else if !sameBits(fresh, cold.Mass) {
		res.fail("a fresh supervisor's cold decode differs from the in-process cold decode (L1 %g)", l1Distance(fresh, cold.Mass))
	}
	served, _, err := cl.Estimate(ctx)
	if err != nil {
		return nil, err
	}
	// EM stops at its iteration cap before its tolerance on these
	// aggregates, so a warm-started estimate need not match a cold one;
	// the distance is reported, not checked.
	res.report = append(res.report, metric{name: "warm_vs_cold_l1", unit: "L1", value: l1Distance(served.Mass, cold.Mass)})

	var ls layerSet
	if p.trace {
		ls = newLayerSet()
		fleetLayers(ls, dep.sup.Tracer().Snapshot(0, "", 0), log)
		var member []trace.TraceData
		for _, c := range dep.members {
			member = append(member, c.Tracer().Snapshot(0, "", 0)...)
		}
		collectorLayers(ls, member, supervisorSubmitSpans(dep.sup.Tracer().Snapshot(0, "", 0)))
		if _, ok := ls["em.decode_ms"]; !ok {
			ls.set("em.decode_ms", coldMs, 1, "check")
			ls.set("em.iterations", float64(stats.Iterations), 1, "check")
		}
	}

	submitsPerS := float64(len(log.acks)) / wall.Seconds()
	res.report = append([]metric{
		{name: "setup_s", unit: "s", value: median(setup), n: len(setup)},
		{name: "round_p50_ms", unit: "ms", value: median(log.roundMs), n: len(log.roundMs)},
		{name: "submit_per_s", unit: "acks/s", value: submitsPerS, n: len(log.acks)},
		tail("submit_p50_ms", "ms", log.submitMs, 0.5),
		tail("submit_p99_ms", "ms", log.submitMs, 0.99),
		tail("estimate_p50_ms", "ms", log.estimateMs, 0.5),
		tail("estimate_p95_ms", "ms", log.estimateMs, 0.95),
		tail("query_p50_ms", "ms", log.queryMs, 0.5),
		tail("query_p99_ms", "ms", log.queryMs, 0.99),
	}, res.report...)
	if !p.trace {
		// Rounds per second of the sessions' busy time: the pauses
		// between rounds are not in it.
		busy := 0.0
		for _, ms := range log.roundMs {
			busy += ms / 1000
		}
		opsPerSec := float64(len(log.roundMs)) / (busy / float64(p.sessions))
		res.contract = e2eContract(setup, median(log.roundMs), opsPerSec, log.cpuS, len(log.roundMs))
	}
	return &servedRun{res: res, layers: ls}, nil
}

// fleetLayers derives the fleet and EM layer metrics from the
// supervisor's traces and the sessions' estimate responses.
func fleetLayers(ls layerSet, traces []trace.TraceData, log *opLog) {
	attempt, pull, decode, iters := &acc{}, &acc{}, &acc{}, &acc{}
	reads, readMs := 0, 0.0
	for _, td := range traces {
		if td.Outcome != trace.OutcomeOK {
			continue
		}
		isRead := td.Root == "GET /v1/estimate" || td.Root == "GET /v1/query"
		if isRead {
			reads++
			readMs += td.DurationMs
		}
		for _, s := range td.Spans[1:] {
			switch s.Name {
			case "fleet.route.attempt":
				attempt.add(s.DurationMs * 1000)
			case "fleet.pull":
				if isRead {
					pull.add(s.DurationMs)
				}
			case "fleet.em.decode":
				if isRead {
					decode.add(s.DurationMs)
					if it, ok := s.Attrs["iterations"].(int64); ok {
						iters.add(float64(it))
					}
				}
			}
		}
	}
	if attempt.n > 0 {
		ls.set("fleet.route_attempt_us", attempt.mean(), attempt.n, "in-situ")
	}
	if reads > 0 {
		ls.set("fleet.pull_ms", pull.mean(), pull.n, "in-situ")
		ls.set("fleet.decode_ms", decode.mean(), decode.n, "in-situ")
		ls.set("fleet.decodes_per_read", float64(decode.n)/float64(reads), reads, "in-situ")
		ls.set("fleet.em_iterations_per_decode", iters.mean(), iters.n, "in-situ")
	}
	if decode.n > 0 {
		ls.set("em.decode_ms", decode.mean(), decode.n, "in-situ")
		ls.set("em.iterations", iters.mean(), iters.n, "in-situ")
		ls.set("em.share", decode.total/readMs, reads, "in-situ")
	}
	if log.estimates > 0 {
		ls.set("fleet.warm_ratio", float64(log.warm)/float64(log.estimates), log.estimates, "in-situ")
	}
}

// supervisorSubmitSpans counts the supervisor's spans per routed
// submission.
func supervisorSubmitSpans(traces []trace.TraceData) *acc {
	a := &acc{}
	for _, td := range traces {
		if td.Root == "POST /v1/aggregate" && td.Outcome == trace.OutcomeOK {
			a.add(float64(len(td.Spans)))
		}
	}
	return a
}

// coldFleetEstimate builds a second supervisor over the deployment's
// members and returns its first estimate, which is a cold decode.
func coldFleetEstimate(dep *fleetDeployment, in *servedInputs, hc *http.Client) ([]float64, error) {
	var urls []string
	for _, s := range dep.servers[:len(dep.members)] {
		urls = append(urls, s.url)
	}
	_, sup, err := dpspatial.NewFleetPipeline(servedMech, in.dom, servedEps, urls,
		dpspatial.WithFleetTracing(false), func(c *fleet.Config) { c.HTTPClient = hc })
	if err != nil {
		return nil, err
	}
	defer sup.Close()
	rec := httptest.NewRecorder()
	sup.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/estimate", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/estimate: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var resp collector.EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	if resp.Warm {
		return nil, fmt.Errorf("first decode was warm-started")
	}
	return resp.Mass, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func l1Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// setServedInputLayers records the layer costs paid while generating a
// served run's inputs (mechanism construction and report accumulation),
// and the zero counts and shares of the harness layers a served run
// never calls.
func setServedInputLayers(ls layerSet, in *servedInputs) {
	ls.set("sam.build_ms", in.buildMs, 1, "in-situ")
	ls.set("fo.accumulate_ns_per_user", in.accNs, len(in.blobs), "in-situ")
	ls.set("experiments.cells", 0, 0, "in-situ")
	ls.set("experiments.parallel_efficiency", 0, 0, "in-situ")
	ls.set("lp.share", 0, 0, "in-situ")
	ls.set("transport.share", 0, 0, "in-situ")
}

// Probe runs are short traced runs of a served workload that measure
// layers the running workload does not exercise: one session, a few
// hundred submissions.
const (
	ingestProbeRounds = 300
	fleetProbeRounds  = 20
)

func probeParams(opts options, rounds int) servedParams {
	return servedParams{
		sessions:  1,
		seed:      opts.seed,
		maxRounds: rounds,
		setupReps: 1,
		trace:     true,
		dataRoot:  opts.dataRoot,
	}
}
