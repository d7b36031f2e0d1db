// Command perfbench is the repository's benchmark: one workload per run,
// driven from a seed against the real serving path (internal/server over
// loopback HTTP, on a core.Q built with core.DefaultOptions(), as qserver
// ships it). It prints every metric by name and unit, checks the answers
// against a reference, writes a run record, and prints one JSON result as
// the last line of standard output:
//
//	bash perfbench/run.sh --workload cold-query --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same HTTP
// schedule, then replays it in-process against the public entry points
// with spans recorded around every call, and reports the per-layer
// metrics. NOTES.md gives each workload's rationale and predictions, the
// validity bounds and the known defects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose measurement is not trustworthy (the
// generator fell behind, or the stage breakdown does not cover the query
// time). Such a run prints its reason and no result.
type errInvalid struct{ reason string }

func (e errInvalid) Error() string { return "invalid run: " + e.reason }

func main() {
	wl := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	root := flag.String("root", ".", "checkout root; run files go under <root>/.bench_build")
	flag.Parse()

	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	r, err := newRunner(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(r.tmp)

	runErr := w.run(r)
	if runErr == nil {
		runErr = r.checkValidity()
	}
	if runErr != nil {
		r.record.Invalid = runErr.Error()
	}
	if err := r.writeRecord(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing run record: %v\n", err)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, runErr)
		os.RemoveAll(r.tmp)
		os.Exit(1)
	}

	names := endToEnd
	if r.trace {
		names = perLayer
	}
	res := result{Correct: len(r.gate.failures()) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(names))}
	for _, m := range names {
		v, ok := r.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *wl, m.name)
			os.RemoveAll(r.tmp)
			os.Exit(1)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-44s %14.4f %s\n", m.name, v, m.unit)
	}
	for _, f := range r.gate.failures() {
		fmt.Printf("correctness: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(r.tmp)
		os.Exit(1)
	}
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the server sees; every workload
// reports all of them (NOTES.md says which operations each one covers).
// Times are CPU times: on a shared virtual machine the wall clock also
// counts the time the hypervisor gives the CPUs to other tenants. The
// wall-clock latencies and throughput are per-layer bench.* metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"ok_ratio", "ratio"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's single-layer metrics, named layer.metric.
// A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"server.overhead_ms", "ms"},
	{"server.shed_ratio", "ratio"},
	{"server.write_queue_ms", "ms"},
	{"server.register_p50_ms", "ms"},
	{"server.register_p90_ms", "ms"},
	{"server.feedback_p50_ms", "ms"},
	{"server.feedback_p90_ms", "ms"},
	{"server.write_fail_ratio", "ratio"},
	{"qcache.materialization.hit_ratio", "ratio"},
	{"qcache.expansion.hit_ratio", "ratio"},
	{"qcache.materialization.evictions", "count"},
	{"qcache.coalesced", "count"},
	{"qcache.lookup_ms", "ms"},
	{"qcache.coalesced_wait_ms", "ms"},
	{"steiner.search_ms", "ms"},
	{"steiner.search_p50_ms", "ms"},
	{"relstore.plan_ms", "ms"},
	{"relstore.execute_ms", "ms"},
	{"relstore.execute_p50_ms", "ms"},
	{"relstore.rows_per_query", "count"},
	{"relstore.rows_executed_per_row_returned", "ratio"},
	{"relstore.branches_per_query", "count"},
	{"relstore.cse_hit_ratio", "ratio"},
	{"relstore.reordered_ratio", "ratio"},
	{"core.expand_ms", "ms"},
	{"core.translate_ms", "ms"},
	{"core.materialize_ms", "ms"},
	{"core.stage_coverage", "ratio"},
	{"core.register_ms", "ms"},
	{"core.feedback_ms", "ms"},
	{"core.rematerialisations_per_write", "count"},
	{"matcher.attr_comparisons_per_register", "count"},
	{"matcher.base_matcher_calls_per_register", "count"},
	{"storage.wal_bytes_per_write", "bytes"},
	{"storage.checkpoint_ms", "ms"},
	{"storage.snapshot_bytes", "bytes"},
	{"storage.reopen_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_per_s", "1/s"},
	{"bench.setup_wall_s", "s"},
	{"bench.query_p50_ms", "ms"},
	{"bench.query_p90_ms", "ms"},
	{"bench.throughput_ops", "1/s"},
	{"bench.open_p50_ms", "ms"},
	{"bench.open_p99_ms", "ms"},
	{"bench.generator_lag_p99_ms", "ms"},
	{"bench.tracing_overhead_ratio", "ratio"},
}

func workloadNames() string {
	return strings.Join(slices.Sorted(maps.Keys(workloads)), ", ")
}

// newRunner prepares one run's scratch space under <root>/.bench_build.
func newRunner(workload string, seed int64, d time.Duration, trace bool, root string) (*runner, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(base, "runs"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	r := &runner{
		workload: workload, seed: seed, seconds: d, trace: trace,
		base: base, tmp: tmp,
		metrics: make(map[string]float64),
		gate:    newGate(),
	}
	r.record = newRecord(r)
	return r, nil
}
