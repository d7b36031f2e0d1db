package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"qint/internal/core"
	"qint/internal/obs"
)

// workloadDef runs one workload end to end and fills the runner's metrics.
type workloadDef struct{ run func(*runner) error }

var workloads = map[string]workloadDef{
	"cold-query":  {runCold},
	"hot-query":   {runHot},
	"wide-answer": {runWide},
	"write-mix":   {runWriteMix},
}

// Fixed load shapes (NOTES.md gives the reasons).
const (
	coldRate       = 20        // cold-query open-loop rate, requests/s
	hotRate        = 1000      // hot-query open-loop rate, requests/s
	hotOpenShare   = 1.0 / 5.0 // hot-query's open-loop share of --seconds
	hotCycle       = 4096      // hot-query's closed-loop list, sent over and over
	referenceDraws = 16        // queries compared with a fresh engine per run
	// listCap bounds a fixed-list phase at this many times --seconds, so a
	// pathologically slow build still ends in bounded time.
	listCap = 6
)

// readSpec is a read-only workload: untimed warm-up, an optional open-loop
// phase at a fixed rate, then a closed-loop phase with maxConns clients
// that ends after closedD or when its list is done (repeat: it starts the
// list over). The closed-loop phase gives cpu_ms_per_op and the
// wall-clock bench.query_* and bench.throughput_ops; the open-loop phase
// gives the latency at a fixed rate (bench.open_*) and the generator-lag
// validity check.
type readSpec struct {
	warmup   []op
	openRate float64 // 0: no open-loop phase
	open     []op
	closed   []op
	repeat   bool
	closedD  time.Duration
}

// coldDesign seeds cold-query's query design: which keys each pair of
// relations gets in each block. --seed orders every block but the last
// two. With the keys drawn from --seed too, runs of one build differed by
// 18% in throughput between two seeds (each repeated), on top of the host's
// own ±9%: a few key pairs cost hundreds of milliseconds, and which of
// them a run drew decided its numbers (NOTES.md).
const coldDesign = 1

func runCold(r *runner) error {
	return r.runReads(func() readSpec {
		in := newInputs(r.seed)
		design := newInputs(coldDesign)
		block := design.coldBlock()
		// One block at the fixed rate, then a fixed number of blocks
		// closed-loop: the closed list is fixed work. Its last two blocks
		// (more queries than the materialisation cache holds) keep the
		// design's order, so the cache pins the same answers at the end of
		// every run: with them shuffled too, heap_live_mb spread 0.11 over
		// ten seeds.
		open := in.shuffleBlocks(design.coldPairs(block), block)
		closedBlocks := max(2, int(r.seconds.Seconds())/2)
		closed := design.coldPairs(closedBlocks * block)
		in.shuffleBlocks(closed[:len(closed)-2*block], block)
		spec := readSpec{
			warmup:   in.coldWarmup(),
			openRate: coldRate,
			open:     open,
			closed:   closed,
			closedD:  listCap * r.seconds,
		}
		r.record.Config = map[string]any{"open_rate_qps": coldRate, "open_queries": len(open),
			"closed_clients": maxConns, "closed_queries": len(spec.closed), "warmup_queries": len(spec.warmup),
			"keys": len(in.keys), "block": block, "design_seed": coldDesign}
		return spec
	})
}

func runHot(r *runner) error {
	return r.runReads(func() readSpec {
		in := newInputs(r.seed)
		openD := time.Duration(float64(r.seconds) * hotOpenShare)
		spec := readSpec{
			warmup:   in.trialOps(),
			openRate: hotRate,
			open:     in.hotStream(int(hotRate*openD.Seconds()) + 1),
			closed:   in.hotStream(hotCycle),
			repeat:   true,
			closedD:  r.seconds - openD,
		}
		r.record.Config = map[string]any{"open_rate_qps": hotRate, "open_s": openD.Seconds(), "closed_clients": maxConns,
			"closed_s": spec.closedD.Seconds(), "closed_cycle": hotCycle, "zipf_s": hotZipfS,
			"trials": len(in.trials), "ranking_seed": hotRanking}
		return spec
	})
}

func runWide(r *runner) error {
	return r.runReads(func() readSpec {
		in := newInputs(r.seed)
		spec := readSpec{
			warmup:  in.trialOps(),
			closed:  in.wideList(),
			closedD: listCap * r.seconds,
		}
		r.record.Config = map[string]any{"closed_clients": maxConns, "list_length": len(spec.closed),
			"key_relations": wideKeyRelations}
		return spec
	})
}

func inMemory(int) string { return "" }

// runReads drives a read-only workload against a fresh in-memory engine.
// build makes the workload's requests once the first set-ups are done:
// set-up time includes garbage collection, whose pace follows the live
// heap, so the benchmark's own request lists (hot-query's were 30 MB)
// must not be live during the set-ups on one side of the measured phases
// only.
func (r *runner) runReads(build func() readSpec) error {
	e, err := r.setUp(setupBudget/2, inMemory, nil)
	if err != nil {
		return err
	}
	defer func() {
		if e != nil {
			e.shutdown()
		}
	}()
	spec := build()
	c := e.client
	warmUp(c, maxConns, spec.warmup)

	before, err := scrape(c)
	if err != nil {
		return err
	}
	m0 := memStats()
	start := time.Now()
	if spec.openRate > 0 {
		r.openLoop(c, "open", spec.openRate, time.Duration(float64(len(spec.open))/spec.openRate*float64(time.Second)), spec.open, nil)
	}
	cpu0 := cpuTime()
	closedWall := r.closedLoop(c, "closed", maxConns, spec.closedD, spec.closed, spec.repeat)
	closedCPU := cpuTime() - cpu0
	wall := time.Since(start)
	m1 := memStats()
	after, err := scrape(c)
	if err != nil {
		return err
	}
	samples := r.samples.all()
	r.endToEnd(samples, "closed", "closed", closedWall, closedCPU)
	r.layersHTTP(samples, diff(before, after), float64(m1.TotalAlloc-m0.TotalAlloc), float64(m1.NumGC-m0.NumGC), wall)
	// The replay gets a copy of what was sent; the benchmark's own request
	// lists and samples are dropped before the heap is measured.
	var sent []op
	if r.trace {
		sent = append(sent, spec.open[:count(samples, "open")]...)
		for i := range count(samples, "closed") {
			sent = append(sent, spec.closed[i%len(spec.closed)])
		}
		sent = sent[:min(len(sent), replayCap)]
	}
	spec.open, spec.closed, samples = nil, nil, nil
	r.samples = recorder{}
	r.keep("heap_live_mb", liveHeapMB(), nil)
	epoch := strconv.FormatUint(e.q.Epoch(), 10)
	if err := e.shutdown(); err != nil {
		return err
	}
	e, c = nil, nil
	// The dropped engine's garbage is collected, but its pages are not
	// returned to the operating system: with debug.FreeOSMemory here, the
	// set-ups that followed took 45% more CPU time than those before the
	// measured phases in one hot-query run, and 10% more without it.
	runtime.GC()
	if err := r.setUpAgain(inMemory, nil); err != nil {
		return err
	}

	if r.trace {
		if err := r.replayReads(spec.warmup, sent); err != nil {
			return err
		}
		runtime.GC()
	}

	ref, err := newQ("")
	if err != nil {
		return err
	}
	defer ref.Close()
	asked := r.gate.observedAt(epoch)
	if len(asked) == 0 {
		r.gate.fail("no query was answered at epoch %s, the state a fresh engine starts at", epoch)
	}
	r.gate.checkReference(ref, r.draw(asked, referenceDraws), true)
	return nil
}

// draw picks up to n of xs by the run's seed.
func (r *runner) draw(xs []string, n int) []string {
	rng := rand.New(rand.NewSource(r.seed*7919 + 17))
	perm := rng.Perm(len(xs))
	out := make([]string, 0, n)
	for _, i := range perm[:min(n, len(perm))] {
		out = append(out, xs[i])
	}
	return out
}

// endToEnd computes the metrics the run's samples give: the CPU time per
// answered request of the closed-loop phase, which took closedWall and
// closedCPU (cpu_ms_per_op), the ok ratio, and, on the wall clock, the
// latency percentiles of the queries of latPhase, the closed-loop
// throughput and the latency at the fixed rate of the open-loop phases
// with their generator lag.
func (r *runner) endToEnd(samples []sample, latPhase, closedPhase string, closedWall, closedCPU time.Duration) {
	var lat, openLat, lags []float64
	ok, closedOK := 0, 0
	r.record.Failures = make(map[string]int)
	for _, s := range samples {
		if !s.ok {
			r.record.Failures[fmt.Sprintf("%s %s status %d", s.phase, s.kind, s.status)]++
			continue
		}
		ok++
		if s.phase == closedPhase {
			closedOK++
		}
		if s.kind == opQuery && s.phase == latPhase {
			lat = append(lat, ms(s.lat))
		}
		if s.kind == opQuery && s.open {
			openLat = append(openLat, ms(s.lat))
		}
	}
	for _, s := range samples {
		if s.open {
			lags = append(lags, ms(s.lag))
		}
	}
	r.attempted, r.failed = len(samples), len(samples)-ok
	r.keep("cpu_ms_per_op", ratio(ms(closedCPU), float64(closedOK)), nil)
	r.keep("ok_ratio", ratio(float64(ok), float64(len(samples))), nil)
	r.keep("bench.query_p50_ms", median(lat), lat)
	r.keep("bench.query_p90_ms", quantile(lat, 0.9), nil)
	r.keep("bench.throughput_ops", float64(closedOK)/closedWall.Seconds(), nil)
	r.keep("bench.open_p50_ms", median(openLat), openLat)
	r.keep("bench.open_p99_ms", quantile(openLat, 0.99), nil)
	r.lagP99 = quantile(lags, 0.99)
	r.keep("bench.generator_lag_p99_ms", r.lagP99, lags)
}

// layersHTTP computes the per-layer metrics the HTTP run yields: /metrics
// deltas over the measured phases, client-side timings and runtime counters.
// Layers the workload does not reach report 0.
func (r *runner) layersHTTP(samples []sample, d delta, allocBytes, gcs float64, wall time.Duration) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.metrics[m.name] = 0
		}
	}
	var querySvc, regLat, fbLat []float64
	rowsReturned, writes, writesFailed, registers := 0, 0, 0, 0
	for _, s := range samples {
		switch s.kind {
		case opQuery:
			if s.status != 0 {
				querySvc = append(querySvc, ms(s.svc))
			}
			rowsReturned += s.rows
		case opRegister, opFeedback:
			writes++
			if !s.ok {
				writesFailed++
				continue
			}
			if s.kind == opRegister {
				registers++
				regLat = append(regLat, ms(s.svc))
			} else {
				fbLat = append(fbLat, ms(s.svc))
			}
		}
	}
	serverQueryMS := 1000 * ratio(d["qint_query_duration_seconds_sum"], d["qint_query_duration_seconds_count"])
	r.serverQueryMS = serverQueryMS
	r.keep("server.overhead_ms", mean(querySvc)-serverQueryMS, nil)
	r.keep("server.shed_ratio", ratio(d["qint_serving_shed_queries_total"]+d["qint_serving_shed_writes_total"], float64(len(samples))), nil)
	r.keep("server.register_p50_ms", median(regLat), regLat)
	r.keep("server.register_p90_ms", quantile(regLat, 0.9), nil)
	r.keep("server.feedback_p50_ms", median(fbLat), fbLat)
	r.keep("server.feedback_p90_ms", quantile(fbLat, 0.9), nil)
	r.keep("server.write_fail_ratio", ratio(float64(writesFailed), float64(writes)), nil)
	r.writeHTTPMS = mean(append(append([]float64(nil), regLat...), fbLat...))

	hitRatio := func(cache string) float64 {
		h, m := d[cacheSeries("qint_cache_hits_total", cache)], d[cacheSeries("qint_cache_misses_total", cache)]
		return ratio(h, h+m)
	}
	r.keep("qcache.materialization.hit_ratio", hitRatio("materialization"), nil)
	r.keep("qcache.expansion.hit_ratio", hitRatio("expansion"), nil)
	r.keep("qcache.materialization.evictions", d[cacheSeries("qint_cache_evictions_total", "materialization")], nil)
	r.keep("qcache.coalesced", d[cacheSeries("qint_cache_coalesced_total", "materialization")]+d[cacheSeries("qint_cache_coalesced_total", "expansion")], nil)

	computes := d[cacheSeries("qint_cache_computes_total", "materialization")]
	r.keep("relstore.rows_per_query", ratio(d["qint_exec_rows_total"], d["qint_queries_total"]), nil)
	r.keep("relstore.rows_executed_per_row_returned", ratio(d["qint_exec_rows_total"], float64(rowsReturned)), nil)
	r.keep("relstore.branches_per_query", ratio(d["qint_exec_branches_total"], computes), nil)
	r.keep("relstore.cse_hit_ratio", ratio(d["qint_plan_cse_hits_total"], d["qint_exec_branches_total"]), nil)
	r.keep("relstore.reordered_ratio", ratio(d["qint_plan_branches_reordered_total"], d["qint_plan_branches_planned_total"]), nil)
	r.keep("matcher.attr_comparisons_per_register", ratio(d["qint_align_attr_comparisons_total"], float64(registers)), nil)
	r.keep("matcher.base_matcher_calls_per_register", ratio(d["qint_align_base_matcher_calls_total"], float64(registers)), nil)

	ops := float64(len(samples))
	r.keep("runtime.alloc_bytes_per_op", ratio(allocBytes, ops), nil)
	r.keep("runtime.gc_per_s", gcs/wall.Seconds(), nil)

	var stages float64
	for _, st := range obs.Stages() {
		stages += d[stageSeries(st)]
	}
	r.coverage = -1
	if computes > 0 {
		r.coverage = ratio(stages, d["qint_query_duration_seconds_sum"])
	}
	if !r.trace {
		r.keep("core.stage_coverage", max(r.coverage, 0), nil)
	}
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB is the live heap after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	m := memStats()
	return float64(m.HeapAlloc) / (1 << 20)
}

// replayCap bounds the traced replay's calls, so the span file of a
// cache-hit workload (two spans per 2 µs call) stays small.
const replayCap = 20000

// replayReads is the traced run of a read workload: a fresh in-process
// engine, the same warm-up, then the ops the HTTP run sent, in order, on
// maxConns goroutines, each call wrapped in an op span holding the
// query's stage spans. It stops after half of --seconds or replayCap calls.
func (r *runner) replayReads(warmup, sent []op) error {
	q, err := newQ("")
	if err != nil {
		return err
	}
	defer q.Close()
	for _, o := range warmup {
		q.QueryEphemeralWith(o.query, 0) // engine errors are answers; the gate checked them
	}
	tr := newTracer()
	deadline := time.Now().Add(r.seconds / 2)
	var next sync.Mutex
	k := 0
	var wg sync.WaitGroup
	wg.Add(maxConns)
	for i := 0; i < maxConns; i++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				next.Lock()
				j := k
				k++
				next.Unlock()
				if j >= len(sent) {
					return
				}
				start := time.Now()
				_, trc, _ := q.QueryEphemeralTraced(sent[j].query, 0)
				tr.op("query", start, time.Now(), trc)
			}
		}()
	}
	wg.Wait()
	r.queryLayers(tr.summary())
	return tr.write(r.recordPath("-spans.jsonl"))
}

// queryLayers computes the per-layer metrics of the query pipeline from
// the traced replay: mean self time per query call of each stage.
func (r *runner) queryLayers(s spanSummary) {
	r.keep("qcache.lookup_ms", s.perOp(obs.StageCacheLookup, "query"), nil)
	r.keep("qcache.coalesced_wait_ms", s.perOp(obs.StageCoalescedWait, "query"), nil)
	r.keep("core.expand_ms", s.perOp(obs.StageExpand, "query"), nil)
	r.keep("steiner.search_ms", s.perOp(obs.StageSteiner, "query"), nil)
	r.keep("core.translate_ms", s.perOp(obs.StageTranslate, "query"), nil)
	r.keep("relstore.plan_ms", s.perOp(obs.StagePlan, "query"), nil)
	r.keep("relstore.execute_ms", s.perOp(obs.StageExecute, "query"), nil)
	r.keep("core.materialize_ms", s.perOp(obs.StageMaterialize, "query"), nil)
	r.keep("steiner.search_p50_ms", median(s.perQuery[string(obs.StageSteiner)]), nil)
	r.keep("relstore.execute_p50_ms", median(s.perQuery[string(obs.StageExecute)]), nil)
	r.coverage = s.stageCoverage()
	r.keep("core.stage_coverage", max(r.coverage, 0), nil)
	r.keep("bench.tracing_overhead_ratio", ratio(s.meanMS("query"), r.serverQueryMS), nil)
}

// reopenQ opens a durable engine from dir as qserver -data does on a
// restart: the catalog comes from the store, the matchers are code.
func reopenQ(dir string) (*core.Q, error) {
	opts := core.DefaultOptions()
	opts.DataDir = dir
	q, err := core.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", dir, err)
	}
	addMatchers(q)
	return q, nil
}
