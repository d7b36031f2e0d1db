package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"qint/internal/core"
	"qint/internal/server"
)

// gate is the correctness check every workload runs. It holds the answer
// each (query, epoch) got over HTTP — identical pairs must get
// byte-identical responses — and compares a seed-drawn sample of them with
// a fresh in-process core.Q at the same state. Any mismatch fails the run.
// Expected engine errors (HTTP 400 with the engine's message) are answers
// too: they must repeat and match the reference, and they count as failed
// operations in ok_ratio.
type gate struct {
	mu     sync.Mutex
	seen   map[string][sha256.Size]byte // query + "\x00" + epoch -> body hash
	byQ    map[string]answer            // query -> last answer
	errors []string
}

// answer is one observed response to a query.
type answer struct {
	epoch  string
	status int
	hash   [sha256.Size]byte
}

func newGate() *gate {
	return &gate{seen: make(map[string][sha256.Size]byte), byQ: make(map[string]answer)}
}

// observe records one query response; only engine answers (200) and
// engine errors (400) are deterministic, so shed or transport failures are
// counted elsewhere and not compared.
func (g *gate) observe(query string, rep reply) {
	if rep.status != http.StatusOK && rep.status != http.StatusBadRequest {
		return
	}
	h := hashBody(rep.body)
	key := query + "\x00" + rep.epoch
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.seen[key]; ok && prev != h {
		g.errors = append(g.errors, fmt.Sprintf("query %q at epoch %s: two different responses", query, rep.epoch))
	}
	g.seen[key] = h
	g.byQ[query] = answer{epoch: rep.epoch, status: rep.status, hash: h}
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	g.errors = append(g.errors, fmt.Sprintf(format, args...))
	g.mu.Unlock()
}

func (g *gate) failures() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.errors...)
}

// observedAt returns the queries last answered at epoch, sorted.
func (g *gate) observedAt(epoch string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var qs []string
	for q, a := range g.byQ {
		if a.epoch == epoch {
			qs = append(qs, q)
		}
	}
	sort.Strings(qs)
	return qs
}

// checkReference re-answers queries on ref, a fresh in-process engine at
// the same state as the server was, and compares the bytes the server
// would send for them with what it did send. sameEpoch also requires the
// same epoch number (a reopened engine renumbers its epochs).
func (g *gate) checkReference(ref *core.Q, queries []string, sameEpoch bool) {
	for _, query := range queries {
		g.mu.Lock()
		got, ok := g.byQ[query]
		g.mu.Unlock()
		if !ok {
			g.fail("reference: query %q was never answered", query)
			continue
		}
		status, body, epoch := referenceAnswer(ref, query)
		if status != got.status || hashBody(body) != got.hash {
			g.fail("reference: query %q: server answered %d, a fresh engine %d with different bytes", query, got.status, status)
		}
		if sameEpoch && status == http.StatusOK && epoch != got.epoch {
			g.fail("reference: query %q: server epoch %s, fresh engine epoch %s", query, got.epoch, epoch)
		}
	}
}

// referenceAnswer renders what POST /query?ephemeral=1 returns for query.
func referenceAnswer(q *core.Q, query string) (int, []byte, string) {
	v, err := q.QueryEphemeralWith(query, 0)
	if err != nil {
		return http.StatusBadRequest, encode(map[string]string{"error": err.Error()}), ""
	}
	m := v.Current()
	return http.StatusOK, renderAnswers("", v, m), strconv.FormatUint(m.Epoch, 10)
}

// renderAnswers is the server's wire form of one materialisation: the
// ranked top-k rows with the view's summary, JSON-encoded with a trailing
// newline.
func renderAnswers(id string, v *core.View, m core.Materialization) []byte {
	out := server.ViewAnswers{ViewSummary: server.ViewSummary{ID: id, Keywords: v.Keywords, K: v.K, Alpha: m.Alpha}}
	if m.Result != nil {
		out.Answers = len(m.Result.Rows)
		out.Columns = m.Result.Columns
		for _, row := range m.Result.TopK(v.K) {
			out.Rows = append(out.Rows, server.AnswerRow{Values: row.Values, Cost: row.Cost, Provenance: row.Provenance})
		}
	}
	return encode(out)
}

func encode(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(fmt.Sprintf("perfbench: encoding %T: %v", v, err)) // only plain data types are encoded
	}
	return b.Bytes()
}
