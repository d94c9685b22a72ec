// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every answer, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"latency_p50_ms": {"value": 41.3, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run prints the per-layer ones and a cost ladder on
// standard error. Workloads (see README.md):
//
//	serve-miss   one hpserve replica, every request a distinct cache key
//	serve-hit    hpserve -mode=cluster, every request an L1 hit after warm-up
//	paper-sweep  in-process expr.Fig6Pool + expr.Fig7Pool, no HTTP
//
// Build and run it through run.sh from the repository root:
//
//	bash _perfbench/run.sh --workload serve-miss --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"sweep_s", "s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"bounds.dag_lower_refined_ms", "ms"},
	{"bounds.calls_per_graph", "count"},
	{"bounds.dag_lower_ms", "ms"},
	{"bounds.area_ms", "ms"},
	{"core.schedule_ns_per_task", "ns"},
	{"dag.priorities_us", "us"},
	{"sched.dualhp_ms", "ms"},
	{"sched.heft_ms", "ms"},
	{"sim.validate_ns_per_task", "ns"},
	{"obs.summarize_us", "us"},
	{"trace.svg_us", "us"},
	{"trace.svg_bytes", "bytes"},
	{"workloads.build_us", "us"},
	{"workloads.builds_per_request", "count"},
	{"serve.key_us", "us"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.evictions", "count"},
	{"serve.cache.coalesced", "count"},
	{"serve.admission.wait_us", "us"},
	{"serve.admission.shed", "count"},
	{"serve.admission.deadline", "count"},
	{"engine.busy_ratio", "ratio"},
	{"engine.queue_wait_us", "us"},
	{"hpserve.render_us", "us"},
	{"hpserve.response_bytes", "bytes"},
	{"shard.forward_us", "us"},
	{"shard.retries", "count"},
	{"http.residual_us", "us"},
	{"obs.tracing_overhead_pct", "%"},
	{"load.lateness_ms", "ms"},
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// maxLatenessMS is the open-loop validity limit: if the generator's p99
// dispatch lateness exceeds it, the offered load was not the stated one
// and the run is reported invalid.
const maxLatenessMS = 50

func main() {
	workload := flag.String("workload", "", "serve-miss, serve-hit or paper-sweep")
	seed := flag.Int64("seed", 1, "plan seed; the same seed gives the same requests")
	seconds := flag.Float64("seconds", 20, "measured time of one run, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	hpserve := flag.String("hpserve", ".bench_build/hpserve", "hpserve binary")
	spans := flag.String("spans", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		hpserve: *hpserve,
		spans:   *spans,
		conns:   runtime.NumCPU(),
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	if cfg.measure <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	ctx := context.Background()
	var res *result
	var err error
	switch *workload {
	case "serve-miss", "serve-hit":
		if _, statErr := os.Stat(cfg.hpserve); statErr != nil {
			fail(fmt.Errorf("hpserve binary: %w (build it with run.sh)", statErr))
		}
		res, err = runServe(ctx, cfg, *workload)
	case "paper-sweep":
		res, err = runPaperSweep(ctx, cfg)
	default:
		err = fmt.Errorf("unknown -workload %q (serve-miss, serve-hit, paper-sweep)", *workload)
	}
	if err != nil {
		fail(err)
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := res.Metrics[d.name]; !ok {
			fail(fmt.Errorf("internal: metric %s was not measured", d.name))
		}
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	hpserve string
	spans   string
	conns   int // generator connections and pool width: the machine's CPUs
}

// set records a metric, mapping an empty sample's NaN to 0.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: orZero(v), Unit: d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// printMetrics writes the metrics by name and unit to standard error.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// report prints a validity or correctness problem, at most a few lines
// of each kind.
func report(kind string, msgs []string) {
	for i, m := range msgs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "%s: … %d more\n", kind, len(msgs)-i)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: %s\n", kind, strings.TrimSpace(m))
	}
}
