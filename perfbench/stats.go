package main

import (
	"sort"
	"time"

	"qint/internal/loadgen"
	"qint/internal/obs"
)

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scrape reads the server's /metrics exposition over c's connections.
func scrape(c *client) (*obs.Exposition, error) { return loadgen.ScrapeMetrics(c.hc, c.base) }

// delta is the change of every series between two scrapes.
type delta map[string]float64

func diff(before, after *obs.Exposition) delta {
	d := make(delta, len(after.Samples))
	for k, v := range after.Samples {
		d[k] = v - before.Samples[k]
	}
	return d
}

// add folds another delta into d.
func (d delta) add(o delta) {
	for k, v := range o {
		d[k] += v
	}
}

// stageSeries is the /metrics series of one query-pipeline stage's time.
func stageSeries(st obs.Stage) string {
	return `qint_query_stage_seconds_total{stage="` + string(st) + `"}`
}

// cacheSeries is a /metrics serving-cache counter of one cache.
func cacheSeries(family, cache string) string {
	return family + `{cache="` + cache + `"}`
}

// count is the number of samples of phase.
func count(samples []sample, phase string) int {
	n := 0
	for _, s := range samples {
		if s.phase == phase {
			n++
		}
	}
	return n
}
