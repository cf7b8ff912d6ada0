package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultJSON is the last line a run prints.
type resultJSON struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// dataRoot is a scratch directory on a filesystem where fsync is real.
func dataRoot(t *testing.T) string {
	dir := t.TempDir()
	if fs, err := fsType(dir); err == nil && (fs == "tmpfs" || fs == "ramfs") {
		var err error
		if dir, err = os.MkdirTemp(".", ".smoke-"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
	}
	return dir
}

// smokeRun runs one short workload in process and returns its output
// and parsed result line.
func smokeRun(t *testing.T, workload string, seed uint64, traced bool, f faults) (string, resultJSON, bool) {
	t.Helper()
	var out bytes.Buffer
	ok, err := run(options{
		workload: workload,
		seed:     seed,
		duration: time.Second,
		trace:    traced,
		workers:  2,
		faults:   f,
		dataRoot: filepath.Join(dataRoot(t), "data"),
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, out.String())
	}
	return out.String(), res, ok
}

func TestSmokeEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not run", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			out, res, ok := smokeRun(t, w.Name, 42, traced, faults{})
			if !ok || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", w.Name, traced, res.Correct, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, found := res.Metrics[m.Name]
				if !found || got.Unit != m.Unit || got.Value == nil {
					t.Errorf("%s trace=%v: metric %s = %+v, want a value in %s", w.Name, traced, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + ` `)
				if !line.MatchString(out) {
					t.Errorf("%s trace=%v: no table line for %s in %s", w.Name, traced, m.Name, m.Unit)
				}
			}
		}
	}
}

func TestSmokeTamperedReferenceFails(t *testing.T) {
	out, res, ok := smokeRun(t, "fig9-small-d", referenceSeed, false, faults{tamperReference: true})
	if ok || res.Correct || !strings.Contains(out, "reference") {
		t.Fatalf("a tampered W2 reference passed the check:\n%s", out)
	}
}

func TestSmokeDroppedAckFails(t *testing.T) {
	for _, w := range []string{"ingest-durable", "serve-mixed"} {
		out, res, ok := smokeRun(t, w, 3, false, faults{dropAck: true})
		if ok || res.Correct {
			t.Errorf("%s: a dropped ack passed the check:\n%s", w, out)
		}
	}
}
