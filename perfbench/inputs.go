package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"qint/internal/datasets"
	"qint/internal/relstore"
	"qint/internal/server"
)

// inputs draws every request of a run from the seed. The GBCO corpus is
// deterministic, so the seed alone fixes the inputs.
type inputs struct {
	rng      *rand.Rand
	corpus   *datasets.GBCOCorpus
	keys     []string            // distinct key values over all relations, sorted
	keysOf   map[string][]string // relation name -> its distinct key values, in row order
	rels     []string            // relation names, in corpus order
	trials   []string            // the query-log trial queries
	cycle    map[string][]int    // relation -> its keys' remaining seed-shuffled order (keyOf)
	relRound []int               // the remaining relations of the current round (nextRelation)
}

func newInputs(seed int64) *inputs {
	in := &inputs{
		rng:    rand.New(rand.NewSource(seed)),
		corpus: datasets.GBCO(),
		keysOf: make(map[string][]string),
		cycle:  make(map[string][]int),
	}
	all := make(map[string]bool)
	for _, t := range in.corpus.Tables {
		name := t.Relation.Name
		in.rels = append(in.rels, name)
		seen := make(map[string]bool)
		for _, row := range t.Rows {
			if k := row[0]; !seen[k] {
				seen[k] = true
				in.keysOf[name] = append(in.keysOf[name], k)
				all[k] = true
			}
		}
	}
	for k := range all {
		in.keys = append(in.keys, k)
	}
	sort.Strings(in.keys)
	for _, tr := range in.corpus.Trials {
		in.trials = append(in.trials, tr.Keywords)
	}
	return in
}

func pairQuery(a, b string) string { return fmt.Sprintf("'%s' '%s'", a, b) }

// coldWarmup touches every key once: the keys in seed order, paired.
func (in *inputs) coldWarmup() []op {
	perm := in.rng.Perm(len(in.keys))
	var ops []op
	for i := 0; i < len(perm); i += 2 {
		b := perm[(i+1)%len(perm)]
		ops = append(ops, queryOp(pairQuery(in.keys[perm[i]], in.keys[b])))
	}
	return ops
}

// coldPairs draws n queries of two distinct key values in blocks. A block
// holds one query per unordered pair of relations (171 for GBCO's 18);
// each query takes the next keys of its two relations (keyOf) in a drawn
// order. Pairs of relations differ in cost by two orders of magnitude
// (NOTES.md), and blocks fix their mix.
func (in *inputs) coldPairs(n int) []op {
	var cells [][2]string
	for i, a := range in.rels {
		for _, b := range in.rels[i:] {
			cells = append(cells, [2]string{a, b})
		}
	}
	ops := make([]op, 0, n)
	for len(ops) < n {
		for _, c := range cells {
			if len(ops) == n {
				break
			}
			x, y := c[0], c[1]
			if in.rng.Intn(2) == 1 {
				x, y = y, x
			}
			a, b := in.keyOf(x), in.keyOf(y)
			for a == b { // relations can share key values (gene and gene2pub)
				b = in.keyOf(y)
			}
			ops = append(ops, queryOp(pairQuery(a, b)))
		}
	}
	return ops
}

// shuffleBlocks shuffles each consecutive block of size ops in place.
func (in *inputs) shuffleBlocks(ops []op, size int) []op {
	for b := 0; b < len(ops); b += size {
		blk := ops[b:min(len(ops), b+size)]
		in.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return ops
}

// coldBlock is the number of queries in one block of coldPairs.
func (in *inputs) coldBlock() int { return len(in.rels) * (len(in.rels) + 1) / 2 }

// keyOf draws the next key value of relation rel. Each relation's keys
// come in seed-shuffled rounds, every key once per round, so which keys a
// run uses varies with the seed but how often each is used does not.
func (in *inputs) keyOf(rel string) string {
	if len(in.cycle[rel]) == 0 {
		in.cycle[rel] = in.rng.Perm(len(in.keysOf[rel]))
	}
	i := in.cycle[rel][0]
	in.cycle[rel] = in.cycle[rel][1:]
	return in.keysOf[rel][i]
}

// hotZipfS is the skew of the hot-query stream over the trial queries;
// hotRanking seeds their ranking, the same for every run.
const (
	hotZipfS   = 1.2
	hotRanking = 1
)

// hotStream returns n trial queries in seed-shuffled order. The trial at
// rank k of a fixed ranking (hotRanking) gets its Zipf(hotZipfS) share of
// the n, rounded to whole queries by largest remainder, so every seed
// sends the same mix. With the ranking drawn from the seed, which trial
// came first (their answers differ in size) set cpu_ms_per_op, whose
// spread over four seeds was 0.12. The ops share their request bodies.
func (in *inputs) hotStream(n int) []op {
	trials := in.trialOps()
	rank := rand.New(rand.NewSource(hotRanking)).Perm(len(trials))
	weights := make([]float64, len(trials))
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -hotZipfS)
		sum += weights[k]
	}
	counts := make([]int, len(trials))
	rest := make([]int, len(trials)) // ranks by descending remainder
	left := n
	for k, w := range weights {
		counts[k] = int(float64(n) * w / sum)
		left -= counts[k]
		rest[k] = k
	}
	frac := func(k int) float64 { x := float64(n) * weights[k] / sum; return x - math.Floor(x) }
	sort.SliceStable(rest, func(i, j int) bool { return frac(rest[i]) > frac(rest[j]) })
	for _, k := range rest[:left] {
		counts[k]++
	}
	ops := make([]op, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			ops = append(ops, trials[rank[k]])
		}
	}
	in.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// trialOps returns every trial query once, in corpus order.
func (in *inputs) trialOps() []op {
	ops := make([]op, len(in.trials))
	for i, t := range in.trials {
		ops[i] = queryOp(t)
	}
	return ops
}

// Wide-answer list shape: every key value of wideKeyRelations against the
// name of every relation that holds a foreign key (the many side of a
// join), so every seed sends the same queries and only their order
// varies. NOTES.md explains the choice of key relations: answers that
// make execution the largest stage while the cache's pinned answers stay
// well under the run's memory cap.
var wideKeyRelations = []string{"protein", "array"}

// wideList returns the wide-answer queries, 'key' relation, in rounds:
// each round holds one query of every (key relation, relation) cell in
// seed-shuffled order, and each cell takes its keys in seed-shuffled
// order. The cache pins the last 256 answers, so rounds keep the mix it
// holds at the end, and with it heap_live_mb, about the same for every
// seed.
func (in *inputs) wideList() []op {
	type cell struct {
		rel  string
		keys []string
	}
	var cells []cell
	rounds := 0
	for _, kr := range wideKeyRelations {
		keys := in.keysOf[kr]
		rounds = max(rounds, len(keys))
		for _, t := range in.corpus.Tables {
			if len(t.Relation.ForeignKeys) == 0 {
				continue
			}
			c := cell{rel: t.Relation.Name}
			for _, i := range in.rng.Perm(len(keys)) {
				c.keys = append(c.keys, keys[i])
			}
			cells = append(cells, c)
		}
	}
	var ops []op
	for round := 0; round < rounds; round++ {
		for _, i := range in.rng.Perm(len(cells)) {
			if round < len(cells[i].keys) {
				ops = append(ops, queryOp(fmt.Sprintf("'%s' %s", cells[i].keys[round], cells[i].rel)))
			}
		}
	}
	return ops
}

// Write-mix shape.
const (
	writeViews      = 8  // persistent views created at set-up
	writesPerRound  = 16 // registrations and feedback, alternating
	readsPerWrite   = 2  // reads that follow each write
	newSourceRows   = 8  // rows of each registered source
	secondsPerRound = 2  // a round's measured time on the reference host
)

// writeRounds is the fixed number of write-mix rounds of a run of d: about
// d of measured time on the reference host.
func writeRounds(d time.Duration) int { return max(2, int(d.Seconds())/secondsPerRound) }

// viewQueries are the persistent views' queries: the first writeViews
// trials, the same for every seed (which views exist sets the cost of
// every write, so a seed-drawn set made write latency a property of the
// seed).
func (in *inputs) viewQueries() []string { return in.trials[:writeViews] }

// readerRound draws the reads of one round: after each write,
// readsPerWrite distinct trials that are not views. A write publishes a
// new epoch, so every one of them is computed again: the reads show what a
// write costs other users, an emptied cache. The reads are seed-shuffled
// passes over those trials, so every round reads each of them equally
// often: their answers differ in cost, and with each read drawn on its
// own the mix varied with the seed.
func (in *inputs) readerRound() []op {
	rest := in.trials[writeViews:]
	n := writesPerRound * readsPerWrite
	var ops []op
	for len(ops) < n {
		for _, j := range in.rng.Perm(len(rest)) {
			ops = append(ops, queryOp(rest[j]))
		}
	}
	return ops[:n]
}

// newSource is one registration: a single-table source whose key column
// is named and valued like an existing relation's key, so the matchers
// align it to that relation, plus a label column of its own. Every
// joinEvery-th source also carries one view's key value, so it joins that
// view's answers; the others avoid the views' keys. Which sources join
// views decides how fast views, and with them every later write, grow,
// so the share that joins is fixed and the seed picks the rest.
type newSource struct {
	source, table string
	attrs         []string
	rows          [][]string
}

const joinEvery = 4

func (in *inputs) newSource(seed int64, i int, viewKeys []string) newSource {
	rel := in.nextRelation()
	ns := newSource{
		source: fmt.Sprintf("bench_s%d_w%d", seed, i),
		table:  fmt.Sprintf("ext_%d", i),
		attrs:  []string{rel.Attributes[0].Name, fmt.Sprintf("label_%d", i)},
	}
	avoid := make(map[string]bool, len(viewKeys))
	for _, k := range viewKeys {
		avoid[k] = true
	}
	for r := 0; r < newSourceRows; r++ {
		key := in.keyOf(rel.Name)
		for avoid[key] {
			key = in.keyOf(rel.Name)
		}
		ns.rows = append(ns.rows, []string{key, fmt.Sprintf("w%d row %d", i, r)})
	}
	if n := i / 2; n%joinEvery == 0 {
		ns.rows[0][0] = viewKeys[(n/joinEvery)%len(viewKeys)]
	}
	return ns
}

// nextRelation walks the relations in seed-shuffled rounds, each relation
// once per round: a registration's cost depends on the relation its key
// column overlaps, so every run registers against each about equally often.
func (in *inputs) nextRelation() *relstore.Relation {
	if len(in.relRound) == 0 {
		in.relRound = in.rng.Perm(len(in.corpus.Tables))
	}
	t := in.corpus.Tables[in.relRound[0]]
	in.relRound = in.relRound[1:]
	return t.Relation
}

func (ns newSource) op() op {
	body, _ := json.Marshal(server.RegisterRequest{ // plain data always encodes
		Source:   ns.source,
		Strategy: "viewbased",
		Tables:   []server.TableSpec{{Name: ns.table, Attributes: ns.attrs, Rows: ns.rows}},
	})
	return op{kind: opRegister, path: "/sources", body: body, src: &ns}
}

// feedbackKind is the verdict of the i-th feedback write: valid and
// invalid alternate, so every run applies as many of each.
func feedbackKind(i int) string {
	if i%2 == 0 {
		return "valid"
	}
	return "invalid"
}

func feedbackOp(view string, row int, kind string) op {
	body, _ := json.Marshal(server.FeedbackRequest{Row: row, Kind: kind}) // plain data always encodes
	return op{kind: opFeedback, path: "/views/" + view + "/feedback", body: body, view: view, row: row, verdict: kind}
}
