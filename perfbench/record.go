package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Validity bounds. A run that breaks one measured something other than the
// program: it reports its reason and no result.
const (
	// maxLagP99 bounds how late the open-loop generator may hand requests
	// to its senders (99th percentile).
	maxLagP99 = 100 * time.Millisecond
	// minStageCoverage bounds the share of query wall time the engine's
	// stage spans must account for.
	minStageCoverage = 0.9
)

// runner is one run's state.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	base     string // <root>/.bench_build
	tmp      string // this run's scratch directory, removed at exit

	metrics map[string]float64
	gate    *gate
	samples recorder
	record  *runRecord

	setupCPU          []float64 // CPU seconds, every set-up of the run
	setupWall         []float64 // wall seconds, the same set-ups
	calMS             []float64
	attempted, failed int
	lagP99            float64 // ms, open-loop phases
	coverage          float64 // stage sum over query wall; -1 when no query computed
	serverQueryMS     float64 // server-side mean query time, from /metrics
	writeHTTPMS       float64 // client-side mean write latency
}

// runRecord is what one run leaves in .bench_build/runs: the host, the
// seed, the workload's fixed shape and every metric with its samples.
type runRecord struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Host        hostInfo             `json:"host"`
	Config      map[string]any       `json:"config"`
	Metrics     map[string]float64   `json:"metrics"`
	Samples     map[string][]float64 `json:"samples"`
	Failures    map[string]int       `json:"failed_requests"` // "phase kind status N" -> count
	Correctness []string             `json:"correctness_failures"`
	Invalid     string               `json:"invalid,omitempty"`
	Finished    string               `json:"finished"`
}

// hostInfo fingerprints the machine and build a run measured.
type hostInfo struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	GitRevision string `json:"git_revision"`
}

func newRecord(r *runner) *runRecord {
	return &runRecord{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds.Seconds(), Trace: r.trace,
		Host:    fingerprint(),
		Config:  make(map[string]any),
		Samples: make(map[string][]float64),
	}
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitRevision: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitRevision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.GitRevision += "+modified"
		}
	}
	return h
}

// recordSamples bounds the samples a run record keeps per metric. A metric
// computed from more keeps that many, evenly spaced in sorted order, so
// the record, which is live when heap_live_mb is measured, does not grow
// with the number of requests: with every hot-query latency kept, a
// faster run read as a larger heap.
const recordSamples = 4096

// keep stores a metric's value and the samples it was computed from.
func (r *runner) keep(name string, value float64, samples []float64) {
	r.metrics[name] = value
	if samples != nil {
		r.record.Samples[name] = roundAll(thin(samples, recordSamples))
	}
}

// thin returns xs, or n of them evenly spaced in sorted order when xs
// holds more than n.
func thin(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, n)
	for i := range out {
		out[i] = s[i*(len(s)-1)/(n-1)]
	}
	return out
}

// roundAll trims samples to six significant decimals so records stay small.
func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e6) / 1e6
	}
	return out
}

func (r *runner) checkValidity() error {
	if r.lagP99 > ms(maxLagP99) {
		return errInvalid{fmt.Sprintf("open-loop generator lag p99 %.2f ms exceeds %.0f ms", r.lagP99, ms(maxLagP99))}
	}
	if r.coverage >= 0 && r.coverage < minStageCoverage {
		return errInvalid{fmt.Sprintf("stage spans cover %.3f of query wall time, below %.2f", r.coverage, minStageCoverage)}
	}
	return nil
}

func (r *runner) recordPath(suffix string) string {
	trace := 0
	if r.trace {
		trace = 1
	}
	return filepath.Join(r.base, "runs", fmt.Sprintf("%s-seed%d-trace%d%s", r.workload, r.seed, trace, suffix))
}

func (r *runner) writeRecord() error {
	r.record.Metrics = r.metrics
	r.record.Correctness = r.gate.failures()
	r.record.Finished = time.Now().UTC().Format(time.RFC3339)
	b, err := json.MarshalIndent(r.record, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.recordPath(".json"), b, 0o644)
}
