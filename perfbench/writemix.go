package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"qint/internal/core"
	"qint/internal/relstore"
)

// writeDesign seeds write-mix's writes. Each registration changes what
// every later write costs (the sources that join a view make each refresh
// of it dearer), so writes drawn from --seed made throughput a property
// of the seed: one seed ran 30% below another, repeatably.
// --seed draws the reads that follow each write.
const writeDesign = 1

// runWriteMix drives the durable write workload in rounds. Each round
// starts from a fresh engine with writeViews persistent views and sends,
// on one connection, the same writesPerRound writes (source registrations
// and row feedback, alternating), each followed by readsPerWrite reads of
// trial queries that are not views. A round ends by closing the engine
// and reopening it from disk. Rounds keep the cost of a write from growing
// through the run: over 80 writes on one engine, registrations grew from
// about 40 ms to 300 ms and feedback from 40 ms to 500 ms, and the last
// few writes decided the run's throughput.
func runWriteMix(r *runner) error {
	in := newInputs(r.seed)
	viewQs := in.viewQueries()
	var viewIDs []string
	prepare := func(e *engine) error {
		ids, err := createViews(e.client, viewQs)
		if err != nil {
			return err
		}
		if viewIDs != nil && !slices.Equal(ids, viewIDs) {
			return fmt.Errorf("views got ids %v, the first engine's got %v", ids, viewIDs)
		}
		viewIDs = ids
		return nil
	}
	setupDir := func(i int) string { return filepath.Join(r.tmp, fmt.Sprintf("setup-%d", i)) }
	e, err := r.setUp(setupBudget/2, setupDir, prepare)
	if err != nil {
		return err
	}
	defer func() {
		if e != nil {
			e.shutdown()
		}
	}()

	var viewKeys []string
	for _, vq := range viewQs {
		viewKeys = append(viewKeys, strings.Trim(strings.Fields(vq)[0], "'"))
	}
	design := newInputs(writeDesign)
	writes := make([]op, writesPerRound)
	for i := range writes {
		if i%2 == 0 {
			writes[i] = design.newSource(writeDesign, i, viewKeys).op()
		} else {
			writes[i] = feedbackOp(viewIDs[(i/2)%writeViews], 0, feedbackKind(i/2))
		}
	}
	rounds := writeRounds(r.seconds)
	r.record.Config = map[string]any{"views": writeViews, "rounds": rounds, "writes_per_round": writesPerRound,
		"reads_per_write": readsPerWrite, "clients": 1, "source_rows": newSourceRows, "strategy": "viewbased",
		"view_queries": viewQs, "reader_queries": in.trials[writeViews:], "design_seed": writeDesign}

	var (
		d         = make(delta)
		alloc     uint64
		gcs       uint32
		wall, cpu time.Duration
		walDeltas []float64
		heaps     []float64 // live heap at the end of each round, MiB
		reads0    []op
		live0     [][]byte
	)
	begin := time.Now()
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if time.Since(begin) > listCap*r.seconds {
				break
			}
			if e, err = r.newEngine(filepath.Join(r.tmp, fmt.Sprintf("round-%d", round)), prepare); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		c := e.client
		reads := in.readerRound()
		warmUp(c, maxConns, in.trialOps())
		before, err := scrape(c)
		if err != nil {
			return err
		}
		m0 := memStats()
		start, cpu0 := time.Now(), cpuTime()
		sizes := walFiles(e.dir)
		for i, w := range writes {
			for _, o := range append([]op{w}, reads[i*readsPerWrite:(i+1)*readsPerWrite]...) {
				sent := time.Now()
				s, _ := c.exec(o)
				s.phase, s.lat = "round", time.Since(sent)
				s.svc = s.lat
				r.samples.add(s)
			}
			now := walFiles(e.dir)
			walDeltas = append(walDeltas, float64(walGrowth(sizes, now)))
			sizes = now
		}
		wall += time.Since(start)
		cpu += cpuTime() - cpu0
		m1 := memStats()
		after, err := scrape(c)
		if err != nil {
			return err
		}
		d.add(diff(before, after))
		alloc += m1.TotalAlloc - m0.TotalAlloc
		gcs += m1.NumGC - m0.NumGC
		heaps = append(heaps, liveHeapMB())

		live, err := r.checkRound(e, in, viewIDs)
		e = nil
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if round == 0 {
			reads0, live0 = reads, live
		} else if !slices.EqualFunc(live, live0, bytes.Equal) {
			r.gate.fail("round %d ended with other views than round 0 after the same writes", round)
		}
	}

	if err := r.setUpAgain(setupDir, prepare); err != nil {
		return err
	}
	r.keep("heap_live_mb", median(heaps), heaps)
	samples := r.samples.all()
	r.endToEnd(samples, "round", "round", wall, cpu)
	r.layersHTTP(samples, d, float64(alloc), float64(gcs), wall)
	r.keep("storage.wal_bytes_per_write", mean(walDeltas), walDeltas)
	if !r.trace {
		return nil
	}
	for _, s := range samples {
		if s.kind != opQuery && !s.ok {
			r.gate.fail("write-mix: a %s failed with status %d; the replay needs every write", s.kind, s.status)
			return nil
		}
	}
	return r.replayWrites(viewQs, viewIDs, writes, reads0, live0)
}

// checkRound reads every view and asks every trial query over HTTP (the
// gate records those answers), shuts e down, reopens its data directory
// with core.Open as a restarted qserver would, and requires every
// persistent view to come back byte-identical and every trial query to
// answer as the server did. It returns the live views and removes the
// data directory.
func (r *runner) checkRound(e *engine, in *inputs, viewIDs []string) ([][]byte, error) {
	live := make([][]byte, 0, len(viewIDs))
	for _, id := range viewIDs {
		rep, err := e.client.do(http.MethodGet, "/views/"+id, nil)
		if err != nil || rep.status != http.StatusOK {
			e.shutdown()
			return nil, fmt.Errorf("reading view %s: status %d: %v", id, rep.status, err)
		}
		live = append(live, rep.body)
	}
	warmUp(e.client, 1, in.trialOps())
	if err := e.shutdown(); err != nil {
		return nil, fmt.Errorf("closing the durable engine: %w", err)
	}
	defer os.RemoveAll(e.dir)
	q, err := reopenQ(e.dir)
	if err != nil {
		return nil, err
	}
	r.compareViews("reopened engine", q, live)
	r.gate.checkReference(q, in.trials, false)
	if err := q.Close(); err != nil {
		return nil, fmt.Errorf("closing the reopened engine: %w", err)
	}
	return live, nil
}

// createViews registers one persistent view per query over HTTP and
// returns their ids in creation order.
func createViews(c *client, queries []string) ([]string, error) {
	ids := make([]string, 0, len(queries))
	for _, vq := range queries {
		body, _ := json.Marshal(map[string]string{"q": vq}) // a map of strings always encodes
		rep, err := c.do(http.MethodPost, "/query", body)
		if err != nil {
			return nil, err
		}
		if rep.status != http.StatusCreated {
			return nil, fmt.Errorf("creating view %q: status %d: %s", vq, rep.status, rep.body)
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rep.body, &v); err != nil {
			return nil, fmt.Errorf("creating view %q: %w", vq, err)
		}
		ids = append(ids, v.ID)
	}
	return ids, nil
}

// compareViews requires q's persistent views, in creation order, to render
// exactly as the live server rendered them.
func (r *runner) compareViews(what string, q *core.Q, live [][]byte) {
	views := q.Views()
	if len(views) != len(live) {
		r.gate.fail("%s holds %d views, the server held %d", what, len(views), len(live))
		return
	}
	for i, v := range views {
		if got := renderAnswers("v"+strconv.Itoa(i), v, v.Current()); string(got) != string(live[i]) {
			r.gate.fail("%s: view v%d differs from the server's live answer", what, i)
		}
	}
}

// walFiles maps each WAL file in dir to its size.
func walFiles(dir string) map[string]int64 {
	out := make(map[string]int64)
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")) // the pattern is well-formed
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			out[m] = fi.Size()
		}
	}
	return out
}

// walGrowth is how many bytes the WAL files grew between two listings; a
// file that appeared counts whole (a checkpoint started a new log).
func walGrowth(before, after map[string]int64) int64 {
	var n int64
	for f, size := range after {
		n += max(0, size-before[f])
	}
	return n
}

// replayWrites is the traced run of write-mix: a fresh durable engine with
// the same views, the first round's writes in order as timed in-process
// calls, each followed by the reads that followed it over HTTP; then a
// timed checkpoint and a timed close-and-reopen. Its final views must
// equal the server's.
func (r *runner) replayWrites(viewQs, viewIDs []string, writes, reads []op, live [][]byte) error {
	dir := filepath.Join(r.tmp, "replay")
	q, err := newQ(dir)
	if err != nil {
		return err
	}
	views := make(map[string]*core.View, len(viewQs))
	for i, vq := range viewQs {
		v, err := q.Query(vq)
		if err != nil {
			q.Close()
			return fmt.Errorf("replay: creating view %q: %w", vq, err)
		}
		views[viewIDs[i]] = v
	}
	tr := newTracer()
	perWrite := len(reads) / len(writes)
	var remats, coreWrite []float64
	next := 0
	for _, w := range writes {
		c0 := q.CacheStats().Materialization.Computes
		start := time.Now()
		switch w.kind {
		case opRegister:
			err = registerInProcess(q, w.src)
		case opFeedback:
			kind := core.FeedbackValid
			if w.verdict == "invalid" {
				kind = core.FeedbackInvalid
			}
			err = q.FeedbackRow(views[w.view], w.row, kind)
		}
		end := time.Now()
		if err != nil {
			q.Close()
			return fmt.Errorf("replay: %s: %w", w.kind, err)
		}
		tr.op(w.kind.String(), start, end, nil)
		coreWrite = append(coreWrite, ms(end.Sub(start)))
		remats = append(remats, float64(q.CacheStats().Materialization.Computes-c0))
		for j := 0; j < perWrite && next < len(reads); j++ {
			start := time.Now()
			_, trc, _ := q.QueryEphemeralTraced(reads[next].query, 0)
			tr.op("query", start, time.Now(), trc)
			next++
		}
	}
	r.compareViews("in-process replay", q, live)

	start := time.Now()
	if err := q.Checkpoint(); err != nil {
		q.Close()
		return fmt.Errorf("replay: checkpoint: %w", err)
	}
	tr.op("checkpoint", start, time.Now(), nil)
	r.keep("storage.snapshot_bytes", float64(snapshotBytes(dir)), nil)
	start = time.Now()
	if err := q.Close(); err != nil {
		return fmt.Errorf("replay: close: %w", err)
	}
	q2, err := reopenQ(dir)
	if err != nil {
		return err
	}
	tr.op("reopen", start, time.Now(), nil)
	r.compareViews("reopened replay", q2, live)
	if err := q2.Close(); err != nil {
		return fmt.Errorf("replay: closing the reopened engine: %w", err)
	}

	s := tr.summary()
	r.queryLayers(s)
	r.keep("core.register_ms", s.meanMS("register"), nil)
	r.keep("core.feedback_ms", s.meanMS("feedback"), nil)
	r.keep("core.rematerialisations_per_write", mean(remats), remats)
	r.keep("storage.checkpoint_ms", s.meanMS("checkpoint"), nil)
	r.keep("storage.reopen_ms", s.meanMS("reopen"), nil)
	r.keep("server.write_queue_ms", r.writeHTTPMS-mean(coreWrite), nil)
	return tr.write(r.recordPath("-spans.jsonl"))
}

// registerInProcess registers ns as the server's POST /sources does.
func registerInProcess(q *core.Q, ns *newSource) error {
	rel := &relstore.Relation{Source: ns.source, Name: ns.table}
	for _, a := range ns.attrs {
		rel.Attributes = append(rel.Attributes, relstore.Attribute{Name: a})
	}
	t, err := relstore.NewTable(rel, ns.rows)
	if err != nil {
		return err
	}
	_, err = q.RegisterSource([]*relstore.Table{t}, core.ViewBased)
	return err
}

// snapshotBytes is the size of the newest generation snapshot in dir.
func snapshotBytes(dir string) int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "gen-*.snap")) // the pattern is well-formed
	var newest int64
	var best uint64
	for _, m := range matches {
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "gen-"), ".snap"), 10, 64)
		if err != nil || n < best {
			continue
		}
		if fi, err := os.Stat(m); err == nil {
			best, newest = n, fi.Size()
		}
	}
	return newest
}
