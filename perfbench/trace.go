package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"qint/internal/obs"
)

// span is one recorded interval of the traced replay. An op span wraps one
// call into a public entry point; the stages of the obs.Trace a query call
// returns become its children. Times are nanoseconds from the replay start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for op spans
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the replay's spans in memory; write puts them on disk once
// the replay is over.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op records one call of kind name that ran from start to end. The
// trace's stage spans are offsets from its own start, which the engine
// takes on entry to the call, so they are placed relative to start and
// clipped to the call.
func (t *tracer) op(name string, start, end time.Time, tr *obs.Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	opID := t.ops
	s0, s1 := int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	parent := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: parent, Op: opID, Name: name, Start: s0, End: s1})
	for _, st := range tr.Spans() {
		a := s0 + int64(st.Start)
		b := min(a+int64(st.Dur), s1)
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: opID, Name: string(st.Stage), Start: min(a, s1), End: b})
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary aggregates the spans: per name, the number of spans, their
// summed duration and their summed self time (duration minus the part of
// it the span's children cover).
type spanSummary struct {
	count map[string]int
	dur   map[string]time.Duration
	self  map[string]time.Duration
	// perQuery holds, per stage, each pipeline-running query op's summed
	// stage self time in ms (0 where the op had no such span).
	perQuery map[string][]float64
	// pipelineWall is the summed wall time of the query ops that ran the
	// pipeline (not served from the cache), pipelineStages their stage spans'.
	pipelineWall, pipelineStages time.Duration
}

func (t *tracer) summary() spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := spanSummary{count: map[string]int{}, dur: map[string]time.Duration{}, self: map[string]time.Duration{},
		perQuery: map[string][]float64{}}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		kids := children[s.ID]
		sum.count[s.Name]++
		sum.dur[s.Name] += d
		sum.self[s.Name] += d - covered(s, kids)
		if s.Name != "query" || !ranPipeline(kids) {
			continue
		}
		sum.pipelineWall += d
		stages := make(map[string]float64)
		for _, k := range kids {
			sum.pipelineStages += time.Duration(k.End - k.Start)
			stages[k.Name] += ms(time.Duration(k.End-k.Start) - covered(k, children[k.ID]))
		}
		for _, st := range obs.Stages() {
			sum.perQuery[string(st)] = append(sum.perQuery[string(st)], stages[string(st)])
		}
	}
	return sum
}

// ranPipeline reports whether a query op's stages go beyond the cache.
func ranPipeline(kids []span) bool {
	for _, k := range kids {
		if k.Name != string(obs.StageCacheLookup) && k.Name != string(obs.StageCoalescedWait) {
			return true
		}
	}
	return false
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// perOp is a stage's mean self time per op named opName, in ms.
func (s spanSummary) perOp(stage obs.Stage, opName string) float64 {
	return ratio(ms(s.self[string(stage)]), float64(s.count[opName]))
}

// meanMS is the mean duration of the spans named name, in ms.
func (s spanSummary) meanMS(name string) float64 {
	return ratio(ms(s.dur[name]), float64(s.count[name]))
}

// stageCoverage is the stage spans' summed duration over the summed wall
// time of the query ops that ran the pipeline, or -1 when none did (a
// cache hit's one sub-microsecond lookup says nothing about coverage).
func (s spanSummary) stageCoverage() float64 {
	if s.pipelineWall == 0 {
		return -1
	}
	return float64(s.pipelineStages) / float64(s.pipelineWall)
}
