package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/fleet"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/rng"
	"dpspatial/internal/trace"
)

// ringTrace polls a tracer's ring for a trace ID: completed traces are
// pushed after the response is written, so the client can hold the ack
// a beat before every tier's ring has the entry.
func ringTrace(t *testing.T, tr *trace.Tracer, id string) *trace.TraceData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, td := range tr.Snapshot(0, "", 0) {
			if td.TraceID == id {
				return &td
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the %s ring", id, tr.Service())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func traceSpan(td *trace.TraceData, name string) *trace.SpanData {
	for i := range td.Spans {
		if td.Spans[i].Name == name {
			return &td.Spans[i]
		}
	}
	return nil
}

func hasEvent(sp *trace.SpanData, name string) bool {
	if sp == nil {
		return false
	}
	for _, e := range sp.Events {
		if e.Name == name {
			return true
		}
	}
	return false
}

// TestFleetTraceStackedWithFailover drives ONE submission through a
// stacked topology — outer supervisor → inner supervisor → collector —
// with the outer supervisor's first-preference member down, and asserts
// a single W3C trace ID stitches all three tiers together: the outer
// ring shows the failed attempt plus the failover event, the inner
// supervisor's root span is parented on the outer's surviving route
// attempt, and the collector's root span is parented on the inner's —
// with the merge/ack span chain at the bottom.
func TestFleetTraceStackedWithFailover(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shard := accumulateShards(t, mech, 1, 23)[0]

	// Bottom tier: one real collector, plus a gated member that answers
	// 503 from the start — the outer supervisor's round-robin prefers it
	// for the first submission and must fail over past it.
	c1, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	c1Srv := httptest.NewServer(c1)
	t.Cleanup(c1Srv.Close)

	down := &gate{}
	down.down.Store(true)
	downSrv := httptest.NewServer(down)
	t.Cleanup(downSrv.Close)

	// Middle tier: a supervisor fronting just the collector.
	s1, err := fleet.New(fleet.Config{
		Members: []string{c1Srv.URL}, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1Srv := httptest.NewServer(s1)
	t.Cleanup(func() { s1Srv.Close(); s1.Close() })

	// Top tier: the down member first, the inner supervisor second.
	s0, err := fleet.New(fleet.Config{
		Members: []string{downSrv.URL, s1Srv.URL}, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	s0Srv := httptest.NewServer(s0)
	t.Cleanup(func() { s0Srv.Close(); s0.Close() })

	client := collector.NewClient(s0Srv.URL)
	resp, err := client.SubmitAggregate(context.Background(), shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 32 {
		t.Fatalf("ack trace ID %q is not 32 hex chars", resp.TraceID)
	}

	// One trace ID, three rings.
	outer := ringTrace(t, s0.Tracer(), resp.TraceID)
	inner := ringTrace(t, s1.Tracer(), resp.TraceID)
	leaf := ringTrace(t, c1.Tracer(), resp.TraceID)

	// Outer: root + two route attempts — the failed hop and the
	// survivor — and the failover event pinned on the root span.
	outerRoot := &outer.Spans[0]
	if !hasEvent(outerRoot, "failover") {
		t.Fatalf("outer root span lacks the failover event (events: %+v)", outerRoot.Events)
	}
	var failed, survived *trace.SpanData
	for i := range outer.Spans {
		sp := &outer.Spans[i]
		if sp.Name != "fleet.route.attempt" {
			continue
		}
		if sp.Error != "" {
			failed = sp
		} else {
			survived = sp
		}
	}
	if failed == nil || survived == nil {
		t.Fatalf("outer trace should hold one failed and one surviving route attempt: %+v", outer.Spans)
	}
	if failed.Attrs["member"] != downSrv.URL || survived.Attrs["member"] != s1Srv.URL {
		t.Fatalf("attempt member attrs wrong: failed=%v survived=%v", failed.Attrs["member"], survived.Attrs["member"])
	}
	if failed.ParentSpanID != outerRoot.SpanID || survived.ParentSpanID != outerRoot.SpanID {
		t.Fatal("route attempts not parented on the outer root span")
	}

	// Inner: its root is the REMOTE child of the outer's surviving
	// attempt — the cross-process edge of the trace.
	innerRoot := &inner.Spans[0]
	if !innerRoot.Remote {
		t.Fatal("inner supervisor root span not marked remote")
	}
	if innerRoot.ParentSpanID != survived.SpanID {
		t.Fatalf("inner root parent %s, want the outer surviving attempt %s", innerRoot.ParentSpanID, survived.SpanID)
	}
	innerAttempt := traceSpan(inner, "fleet.route.attempt")
	if innerAttempt == nil || innerAttempt.Error != "" {
		t.Fatalf("inner supervisor route attempt missing or failed: %+v", innerAttempt)
	}

	// Leaf: the collector's root hangs off the inner attempt, with the
	// merge/ack chain below it.
	leafRoot := &leaf.Spans[0]
	if !leafRoot.Remote || leafRoot.ParentSpanID != innerAttempt.SpanID {
		t.Fatalf("collector root (remote=%v parent=%s) not parented on the inner attempt %s",
			leafRoot.Remote, leafRoot.ParentSpanID, innerAttempt.SpanID)
	}
	for _, name := range []string{"collector.body.read", "collector.merge", "collector.ack"} {
		sp := traceSpan(leaf, name)
		if sp == nil {
			t.Fatalf("collector trace lacks the %s span", name)
		}
		if sp.ParentSpanID != leafRoot.SpanID {
			t.Fatalf("%s not parented on the collector root", name)
		}
	}

	// All three tiers agree this is one trace.
	if outer.TraceID != inner.TraceID || inner.TraceID != leaf.TraceID {
		t.Fatal("tiers disagree on the trace ID")
	}
}

// TestFleetTraceScrapeUnderTraffic hammers a supervisor with concurrent
// submissions while scraping /v1/traces in a loop: the ring must stay
// race-free (the -race CI run is the point of this test) and every
// accepted submission must eventually complete a trace.
func TestFleetTraceScrapeUnderTraffic(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	f := startFleet(t, 2, newDAM(t, 5, 1.8), pipeline, nil)

	shard := accumulateShards(t, mech, 1, 31)[0]
	blob, err := shard.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 20
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := http.Get(f.client.BaseURL + collector.TracesPath + "?min_ms=0")
			if err != nil {
				continue
			}
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			var dump struct {
				Traces []trace.TraceData `json:"traces"`
			}
			if err := json.Unmarshal(body, &dump); err != nil {
				t.Errorf("traces scrape not JSON under traffic: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("trace-load-%d-%d", w, i)
				if _, err := f.client.SubmitAggregateBlobWithID(ctx, blob, nil, id); err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	// Every submission completes a trace (pushed post-response, so
	// poll); the ring holds at most its capacity of them.
	deadline := time.Now().Add(5 * time.Second)
	for f.sup.Tracer().Completed() < workers*perWorker {
		if time.Now().After(deadline) {
			t.Fatalf("completed %d traces, want >= %d", f.sup.Tracer().Completed(), workers*perWorker)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(f.sup.Tracer().Snapshot(0, "", 0)); got > trace.DefaultCapacity {
		t.Fatalf("ring snapshot %d entries, over capacity %d", got, trace.DefaultCapacity)
	}
}

// TestFleetDecodeSpanContract pins the read path's decode spans one tier
// up, over a two-member AHEAD fleet, one request per case and in order:
// a decode records its fleet.*.decode span under the request root, and
// a repeat over unchanged members records the matching cache-hit event
// instead of a decode. Every span and event carries the routed-count
// generation it answers for — the same contract as a collector's.
func TestFleetDecodeSpanContract(t *testing.T) {
	dom, err := grid.NewDomain(0, 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rangequery.NewAHEAD(dom, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	pipeline := &collector.Pipeline{
		Mech: "AHEAD", D: 8, Eps: 1.5,
		Scheme: a.Scheme(), Shape: a.ReportShape(),
		Domain: collector.DomainSpec{MinX: 0, MinY: 0, Side: 1},
	}
	urls := make([]string, 2)
	for i := range urls {
		c, err := collector.New(collector.Config{Mechanism: a})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{Members: urls, Mechanism: a, Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(func() { supSrv.Close(); sup.Close() })
	client := collector.NewClient(supSrv.URL)

	shards := []*fo.Aggregate{a.NewAggregate(), a.NewAggregate()}
	r := rng.New(59)
	for i := 0; i < a.NumInputs(); i++ {
		for k := 0; k < 2+i%5; k++ {
			rep, err := a.Report(i, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := shards[(i+k)%2].Add(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range shards {
		if _, err := client.SubmitAggregate(context.Background(), s, nil); err != nil {
			t.Fatal(err)
		}
	}

	const rangePath = "/v1/query?type=range&x0=1&y0=1&x1=6&y1=5"
	for _, tc := range []struct {
		name, path string
		span       string // decode span the request must record, or
		event      string // cache-hit event its root must carry instead
		attrs      []string
	}{
		{"first estimate decodes", "/v1/estimate", "fleet.em.decode", "", []string{"mode", "iterations", "generation"}},
		{"repeat estimate hits the cache", "/v1/estimate", "", "estimate.cache.hit", []string{"generation"}},
		{"first range query decodes the tree", rangePath, "fleet.tree.decode", "", []string{"generation"}},
		{"repeat range query hits the tree cache", rangePath, "", "tree.cache.hit", []string{"generation"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := http.Get(supSrv.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: HTTP %d: %s", tc.path, res.StatusCode, body)
			}
			td := ringTrace(t, sup.Tracer(), res.Header.Get(trace.TraceIDHeader))
			root := &td.Spans[0]
			if traceSpan(td, "fleet.pull") == nil {
				t.Fatal("read recorded no fleet.pull span")
			}
			var attrs map[string]any
			if tc.span != "" {
				sp := traceSpan(td, tc.span)
				if sp == nil || sp.ParentSpanID != root.SpanID {
					t.Fatalf("no %s span under the request root (spans: %+v)", tc.span, td.Spans)
				}
				attrs = sp.Attrs
			} else {
				for _, name := range []string{"fleet.em.decode", "fleet.tree.decode"} {
					if traceSpan(td, name) != nil {
						t.Fatalf("cached read recorded a %s span", name)
					}
				}
				for _, ev := range root.Events {
					if ev.Name == tc.event {
						attrs = ev.Attrs
					}
				}
				if attrs == nil {
					t.Fatalf("root span lacks the %s event (events: %+v)", tc.event, root.Events)
				}
			}
			for _, k := range tc.attrs {
				if _, ok := attrs[k]; !ok {
					t.Fatalf("%s%s lacks the %s attribute: %v", tc.span, tc.event, k, attrs)
				}
			}
			if attrs["generation"] != int64(2) {
				t.Fatalf("%s%s generation = %#v, want the routed count 2", tc.span, tc.event, attrs["generation"])
			}
		})
	}
}
