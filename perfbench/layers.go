package main

import (
	"fmt"
	"time"

	"dpspatial"
)

// perLayer lists the per-layer metrics of BENCHMARK.json in its order.
// Every traced run prints all of them. A workload measures the layers
// it exercises in situ; a layer it does not exercise is measured by a
// small standalone probe of that layer (tagged "probe"), and a share of
// time in a layer the workload never calls is 0.
var perLayer = []struct{ name, unit string }{
	{"experiments.cells", "count"},
	{"experiments.parallel_efficiency", "ratio"},
	{"sam.build_ms", "ms"},
	{"semgeoi.build_ms", "ms"},
	{"fo.accumulate_ns_per_user", "ns"},
	{"fo.blob_bytes", "B"},
	{"fo.blob_decode_us", "us"},
	{"fo.merge_us", "us"},
	{"em.decode_ms", "ms"},
	{"em.iterations", "count"},
	{"em.share", "ratio"},
	{"lp.w2_exact_ms", "ms"},
	{"lp.share", "ratio"},
	{"transport.sinkhorn_ms", "ms"},
	{"transport.sinkhorn_max_ms", "ms"},
	{"transport.share", "ratio"},
	{"collector.body_read_us", "us"},
	{"collector.wal_append_us", "us"},
	{"collector.merge_us", "us"},
	{"collector.ack_us", "us"},
	{"collector.submit_self_us", "us"},
	{"collector.snapshot_ms", "ms"},
	{"durable.append_us", "us"},
	{"durable.fsyncs_per_ack", "ratio"},
	{"durable.wal_bytes_per_ack", "B"},
	{"durable.snapshots", "count"},
	{"trace.span_ns", "ns"},
	{"trace.spans_per_submit", "count"},
	{"fleet.route_attempt_us", "us"},
	{"fleet.pull_ms", "ms"},
	{"fleet.decode_ms", "ms"},
	{"fleet.decodes_per_read", "ratio"},
	{"fleet.em_iterations_per_decode", "count"},
	{"fleet.warm_ratio", "ratio"},
}

// layerSet collects the per-layer metrics of one traced run.
type layerSet map[string]metric

func newLayerSet() layerSet { return layerSet{} }

// set records a metric; the unit comes from perLayer.
func (ls layerSet) set(name string, value float64, n int, source string) {
	for _, l := range perLayer {
		if l.name == name {
			ls[name] = metric{name: name, unit: l.unit, value: value, n: n, source: source}
			return
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// fillFrom copies the named metrics of a probe run that this run has not
// measured itself, tagged as probes.
func (ls layerSet) fillFrom(probe layerSet, names ...string) {
	for _, name := range names {
		if _, ok := ls[name]; ok {
			continue
		}
		if m, ok := probe[name]; ok {
			m.source = "probe"
			ls[name] = m
		}
	}
}

// list returns every per-layer metric in BENCHMARK.json order, or an
// error naming one the run failed to measure.
func (ls layerSet) list() ([]metric, error) {
	out := make([]metric, 0, len(perLayer))
	for _, l := range perLayer {
		m, ok := ls[l.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		out = append(out, m)
	}
	return out, nil
}

// layerClock times the public layer calls of a serial harness
// evaluation. Calls do not nest, so a layer's total is its self time.
type layerClock struct {
	layers     map[string]*acc // milliseconds per call
	users      float64         // users accumulated by fo.accumulate
	iterations acc             // EM iterations per DAM-family decode
	aggs       []*dpspatial.Aggregate
	evals      int // completed serial evaluations
}

func newLayerClock() *layerClock {
	return &layerClock{layers: map[string]*acc{}}
}

func (c *layerClock) layer(name string) *acc {
	a := c.layers[name]
	if a == nil {
		a = &acc{}
		c.layers[name] = a
	}
	return a
}

// time runs fn and charges its wall time to the named layer.
func (c *layerClock) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	c.layer(name).add(msSince(t0))
	return err
}

// addN charges d to the named layer for work over n users.
func (c *layerClock) addN(name string, d time.Duration, n float64) {
	c.layer(name).add(float64(d) / float64(time.Millisecond))
	c.users += n
}

// keepAggregate retains a sample of the evaluation's aggregates for the
// blob probes.
func (c *layerClock) keepAggregate(agg *dpspatial.Aggregate) {
	if len(c.aggs) < 64 {
		c.aggs = append(c.aggs, agg)
	}
}

// blobs encodes the retained aggregates for the blob probes.
func (c *layerClock) blobs() [][]byte {
	var out [][]byte
	for _, agg := range c.aggs {
		if b, err := agg.MarshalBinary(); err == nil {
			out = append(out, b)
		}
	}
	return out
}

// report turns the clock into per-layer metrics; serial is the wall time
// of the serial evaluations, the denominator of every share.
func (c *layerClock) report(ls layerSet, serialS float64) {
	serialMs := serialS * 1000
	share := func(name string) float64 { return c.layer(name).total / serialMs }
	if a := c.layers["sam.build"]; a != nil {
		ls.set("sam.build_ms", a.mean(), a.n, "in-situ")
	}
	if a := c.layers["semgeoi.build"]; a != nil {
		ls.set("semgeoi.build_ms", a.mean(), a.n, "in-situ")
	}
	if a := c.layers["fo.accumulate"]; a != nil && c.users > 0 {
		ls.set("fo.accumulate_ns_per_user", a.total*1e6/c.users, a.n, "in-situ")
	}
	em := c.layer("em.decode")
	ls.set("em.decode_ms", em.mean(), em.n, "in-situ")
	ls.set("em.iterations", c.iterations.mean(), c.iterations.n, "in-situ")
	ls.set("em.share", share("em.decode"), em.n, "in-situ")
	if a := c.layers["lp.w2_exact"]; a != nil {
		ls.set("lp.w2_exact_ms", a.mean(), a.n, "in-situ")
	}
	ls.set("lp.share", share("lp.w2_exact"), c.layer("lp.w2_exact").n, "in-situ")
	if a := c.layers["transport.sinkhorn"]; a != nil {
		ls.set("transport.sinkhorn_ms", a.mean(), a.n, "in-situ")
		ls.set("transport.sinkhorn_max_ms", a.max, a.n, "in-situ")
	}
	ls.set("transport.share", share("transport.sinkhorn"), c.layer("transport.sinkhorn").n, "in-situ")
}
