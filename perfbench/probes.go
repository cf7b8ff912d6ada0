package main

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"dpspatial"
	"dpspatial/internal/durable"
	"dpspatial/internal/grid"
	"dpspatial/internal/trace"
	"dpspatial/internal/transport"
)

// Standalone probes measure one layer call on small seeded inputs. A
// traced run uses them for the layers its workload does not exercise,
// and for the two layers the benchmark always measures standalone:
// durable.append_us and trace.span_ns.

// probeServedLayers fills a harness run's collector, durable, trace and
// fleet metrics from short traced runs of the two served workloads, and
// its remaining layers from the standalone probes. blobs are encoded
// aggregates of the run's own evaluation.
func probeServedLayers(opts options, out io.Writer, ls layerSet, blobs [][]byte) error {
	in, err := makeServedInputs(opts.seed)
	if err != nil {
		return err
	}
	if err := checkDataFS(out, opts.dataRoot); err != nil {
		return err
	}
	ing, err := ingest(probeParams(opts, ingestProbeRounds), in)
	if err != nil {
		return fmt.Errorf("ingest probe: %w", err)
	}
	ls.fillFrom(ing.layers, collectorLayerNames...)
	mixed, err := serveMixed(probeParams(opts, fleetProbeRounds), in)
	if err != nil {
		return fmt.Errorf("fleet probe: %w", err)
	}
	ls.fillFrom(mixed.layers, fleetLayerNames...)
	return standaloneProbes(opts, in, ls, blobs)
}

// standaloneProbes measures every per-layer metric still missing from
// ls, plus durable.append_us and trace.span_ns.
func standaloneProbes(opts options, in *servedInputs, ls layerSet, blobs [][]byte) error {
	missing := func(name string) bool { _, ok := ls[name]; return !ok }
	r := dpspatial.NewRand(opts.seed ^ 0x5eed)
	if missing("semgeoi.build_ms") {
		var ms []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := dpspatial.NewSEMGeoI(in.dom, servedEps); err != nil {
				return err
			}
			ms = append(ms, msSince(t0))
		}
		ls.set("semgeoi.build_ms", median(ms), len(ms), "probe")
	}
	if missing("lp.w2_exact_ms") {
		a, b, err := probeHists(r, 5)
		if err != nil {
			return err
		}
		t := &acc{}
		for i := 0; i < 10; i++ {
			t0 := time.Now()
			if _, err := transport.W2Exact(a, b); err != nil {
				return err
			}
			t.add(msSince(t0))
		}
		ls.set("lp.w2_exact_ms", t.mean(), t.n, "probe")
	}
	if missing("transport.sinkhorn_ms") {
		a, b, err := probeHists(r, 10)
		if err != nil {
			return err
		}
		t := &acc{}
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := transport.W2Sinkhorn(a, b, &transport.SinkhornOptions{}); err != nil {
				return err
			}
			t.add(msSince(t0))
		}
		ls.set("transport.sinkhorn_ms", t.mean(), t.n, "probe")
		ls.set("transport.sinkhorn_max_ms", t.max, t.n, "probe")
	}
	if missing("fo.blob_decode_us") {
		if err := probeBlobs(ls, blobs); err != nil {
			return err
		}
	}
	if err := probeAppend(opts.dataRoot, ls, in.blobs[0]); err != nil {
		return err
	}
	probeSpans(ls)
	return nil
}

// probeHists draws two normalised d×d histograms of 2000 users each.
func probeHists(r *dpspatial.Rand, d int) (*grid.Hist2D, *grid.Hist2D, error) {
	dom, err := grid.NewDomain(0, 0, 1, d)
	if err != nil {
		return nil, nil, err
	}
	draw := func() *grid.Hist2D {
		h := grid.NewHist(dom)
		for i := 0; i < 2000; i++ {
			x := min(max(int(float64(d)*(0.5+0.2*r.NormFloat64())), 0), d-1)
			y := min(max(int(float64(d)*(0.5+0.2*r.NormFloat64())), 0), d-1)
			h.Mass[y*d+x]++
		}
		return h.Normalize()
	}
	return draw(), draw(), nil
}

// probeBlobs decodes each blob and merges it into a copy of itself: the
// two fo calls a collector makes per submitted shard.
func probeBlobs(ls layerSet, blobs [][]byte) error {
	size, decode, merge := &acc{}, &acc{}, &acc{}
	for _, blob := range blobs {
		agg := &dpspatial.Aggregate{}
		t0 := time.Now()
		if err := agg.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("blob probe: %w", err)
		}
		decode.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		into := agg.Clone()
		t0 = time.Now()
		if err := into.Merge(agg); err != nil {
			return fmt.Errorf("blob probe: %w", err)
		}
		merge.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		size.add(float64(len(blob)))
	}
	ls.set("fo.blob_bytes", size.mean(), size.n, "probe")
	ls.set("fo.blob_decode_us", decode.mean(), decode.n, "probe")
	ls.set("fo.merge_us", merge.mean(), merge.n, "probe")
	return nil
}

// probeAppend times standalone durable.Store.Append calls of one
// submission-sized record (one fsync each) in a fresh directory on the
// data directory's filesystem.
func probeAppend(root string, ls layerSet, blob []byte) error {
	dir, err := os.MkdirTemp(root, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := durable.Open(dir)
	if err != nil {
		return err
	}
	var us []float64
	for i := 0; i < 64; i++ {
		rec := durable.Record{Type: durable.RecordSubmission, ID: fmt.Sprintf("probe-%d", i), Meta: []byte(`{}`), Blob: blob}
		t0 := time.Now()
		if _, err := store.Append(rec); err != nil {
			store.Close()
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	ls.set("durable.append_us", median(us), len(us), "probe")
	return store.Close()
}

// probeSpans times a root span with one child, recorded into a tracer
// ring, per span.
func probeSpans(ls layerSet) {
	const n = 20000
	tr := trace.NewTracer("probe", 64)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		root := tr.Root("probe", trace.SpanContext{})
		child := root.Child("probe.child")
		child.End()
		root.End()
	}
	ls.set("trace.span_ns", float64(time.Since(t0).Nanoseconds())/(2*n), 2*n, "probe")
}

// fsType names the filesystem holding path.
func fsType(path string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "", err
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0x858458f6: "ramfs",
		0xef53:     "ext4",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}
