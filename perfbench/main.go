// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed time, checks that the program's outputs are
// correct, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with --trace 1 they are the per-layer metrics. Run it
// through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload fig9-small-d --seed 1 --seconds 20 --trace 0
//
// README.md beside this file describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// faults inject known defects into a run so tests can prove the
// correctness checks catch them. A normal run leaves them all false.
type faults struct {
	// tamperReference perturbs one stored W₂ reference point.
	tamperReference bool
	// dropAck discards one submission's ack as if the response were lost.
	dropAck bool
}

// options is one invocation of a workload.
type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	workers  int // nproc: harness workers and client sessions
	faults   faults
	dataRoot string // where served workloads create their data directories
}

// metric is one printed number.
type metric struct {
	name   string
	unit   string
	value  float64
	n      int    // samples behind the value (0 = not a sampled timing)
	source string // "in-situ", "probe" or "check" for per-layer metrics
}

// result is what a workload hands back to main.
type result struct {
	attempted int
	failed    int
	problems  []string // failed correctness checks
	contract  []metric // BENCHMARK.json metrics for this mode
	report    []metric // the workload's own end-to-end table
	// rssMiB is the peak resident set once the run had done a fixed
	// amount of work (rssAfter), so a run that gets through more work in
	// its time does not read as using more memory.
	rssMiB float64
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts options, out io.Writer) (*result, error){
	"fig9-small-d":   runFig9SmallD,
	"fig9-large-d":   runFig9LargeD,
	"ingest-durable": runIngestDurable,
	"serve-mixed":    runServeMixed,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 42, "input seed")
		seconds  = flag.Int("seconds", 20, "measurement time in seconds")
		traceOn  = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(slices.Sorted(maps.Keys(workloads)), "|"))
		os.Exit(2)
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *traceOn == 1,
		workers:  runtime.NumCPU(),
		dataRoot: ".bench_build/data",
	}
	out := bufio.NewWriter(os.Stdout)
	ok, err := run(opts, out)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one workload, prints its table and the JSON result line,
// and reports whether every correctness check passed. An error means the
// run could not be made at all; no result line is printed then.
func run(opts options, out io.Writer) (bool, error) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t\n",
		opts.workload, opts.seed, opts.duration.Seconds(), opts.trace)
	fmt.Fprintf(out, "env nproc=%d gomaxprocs=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	res, err := workloads[opts.workload](opts, out)
	if err != nil {
		return false, err
	}
	rss := res.rssMiB
	if rss == 0 {
		rss = peakRSSMiB() // the run ended before its fixed amount of work
	}
	res.report = append(res.report,
		metric{name: "peak_rss_mb", unit: "MiB", value: rss},
		metric{name: "failed_ratio", unit: "failed/attempted", value: float64(res.failed) / float64(max(res.attempted, 1)), n: res.attempted})
	if !opts.trace {
		res.contract = append(res.contract, metric{name: "peak_rss_mb", unit: "MiB", value: rss})
	}
	fmt.Fprintln(out, "# end-to-end, this workload")
	printMetrics(out, res.report)
	if opts.trace {
		fmt.Fprintln(out, "# per_layer (BENCHMARK.json)")
	} else {
		fmt.Fprintln(out, "# end_to_end (BENCHMARK.json)")
	}
	printMetrics(out, res.contract)
	for _, p := range res.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	correct := len(res.problems) == 0 && res.attempted > 0
	line, err := resultLine(correct, res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, line)
	return correct, nil
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "metric %-34s %14.6g %-17s", m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(out, " n=%d", m.n)
		}
		if m.source != "" {
			fmt.Fprintf(out, " [%s]", m.source)
		}
		fmt.Fprintln(out)
	}
}

// resultLine renders the final JSON object. A non-finite value (every
// sample of a latency failed) is written as null.
func resultLine(correct bool, res *result) (string, error) {
	type value struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	metrics := make(map[string]value, len(res.contract))
	for _, m := range res.contract {
		v := m.value
		var p *float64
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			p = &v
		}
		metrics[m.name] = value{Value: p, Unit: m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	return string(b), err
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// e2eContract builds the BENCHMARK.json end-to-end metrics other than
// peak_rss_mb, which main appends. cpuS is the process CPU time spent
// while the n ops ran.
func e2eContract(setup []float64, p50, opsPerSec, cpuS float64, n int) []metric {
	return []metric{
		{name: "setup_s", unit: "s", value: median(setup), n: len(setup)},
		{name: "ops_per_s", unit: "1/s", value: opsPerSec, n: n},
		{name: "op_p50_ms", unit: "ms", value: p50, n: n},
		{name: "op_cpu_ms", unit: "ms", value: cpuS * 1000 / float64(n), n: n},
	}
}

// cpuSeconds is the user plus system CPU time the process has used, on
// all its threads. Unlike wall time it leaves out time the machine gave
// to other work, such as a hypervisor's steal time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
