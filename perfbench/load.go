package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the load's connection budget: a run's requests, reads,
// writes and /metrics scrapes alike, never use more than this many
// connections to the server at once.
const maxConns = 2

// opKind classifies a request.
type opKind int

const (
	opQuery opKind = iota
	opRegister
	opFeedback
)

func (k opKind) String() string {
	switch k {
	case opRegister:
		return "register"
	case opFeedback:
		return "feedback"
	}
	return "query"
}

// op is one generated request. Inputs come only from the seed; the server
// sees nothing but these requests.
type op struct {
	kind    opKind
	query   string // keyword query (opQuery)
	path    string
	body    []byte
	view    string     // feedback target view id (opFeedback)
	row     int        // feedback row (opFeedback)
	verdict string     // "valid" or "invalid" (opFeedback)
	src     *newSource // the registered source (opRegister)
}

func queryOp(q string) op {
	body, _ := json.Marshal(map[string]string{"q": q}) // a map of strings always encodes
	return op{kind: opQuery, query: q, path: "/query?ephemeral=1", body: body}
}

// sample is one completed request.
type sample struct {
	kind   opKind
	phase  string
	lat    time.Duration // from the scheduled send time (open loop) or the send (closed loop)
	svc    time.Duration // from the actual send
	lag    time.Duration // how late a sender picked the request up
	open   bool          // sent by the open-loop generator
	ok     bool
	status int
	rows   int // answer rows in the response
}

// client issues requests over at most conns connections.
type client struct {
	base string
	hc   *http.Client
	gate *gate
}

func newClient(base string, g *gate, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, gate: g}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is a fully read response.
type reply struct {
	status int
	body   []byte
	epoch  string
}

func (c *client) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, body: b, epoch: resp.Header.Get("X-Q-Epoch")}, nil
}

// exec sends one op and folds its answer into the correctness gate.
func (c *client) exec(o op) (sample, reply) {
	rep, err := c.do(http.MethodPost, o.path, o.body)
	s := sample{kind: o.kind, status: rep.status}
	if err != nil {
		return s, rep
	}
	s.ok = rep.status >= 200 && rep.status < 300
	if o.kind == opQuery {
		c.gate.observe(o.query, rep)
	}
	if s.ok {
		var a struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if json.Unmarshal(rep.body, &a) == nil {
			s.rows = len(a.Rows)
		}
	}
	return s, rep
}

// recorder collects samples from concurrent senders.
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

func (r *recorder) all() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sample(nil), r.samples...)
}

// openLoop sends ops[i] at start + i/rate for d, whatever the server's
// state, through a fixed pool of senders. Latency runs from the scheduled
// send time, so a stall is charged to every request queued behind it; lag
// is how late a sender picked the request up. stop, when non-nil, ends the
// phase early once it is closed.
func (r *runner) openLoop(c *client, phase string, rate float64, d time.Duration, ops []op, stop <-chan struct{}) time.Duration {
	type job struct {
		o   op
		due time.Time
	}
	const senders = 32
	jobs := make(chan job)
	var wg sync.WaitGroup
	wg.Add(senders)
	for i := 0; i < senders; i++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				picked := time.Now()
				s, _ := c.exec(j.o)
				done := time.Now()
				s.phase, s.open, s.lat, s.svc, s.lag = phase, true, done.Sub(j.due), done.Sub(picked), picked.Sub(j.due)
				r.samples.add(s)
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
loop:
	for i := 0; i < len(ops); i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				break loop
			}
		}
		jobs <- job{o: ops[i], due: due}
	}
	close(jobs)
	wg.Wait()
	return time.Since(start)
}

// closedLoop runs clients that each send their next op only after the
// previous one completed, until d has passed or ops are exhausted (repeat:
// they start over). It returns the phase's wall time.
func (r *runner) closedLoop(c *client, phase string, clients int, d time.Duration, ops []op, repeat bool) time.Duration {
	start := time.Now()
	drive(c, clients, start.Add(d), ops, repeat, func(s sample) {
		s.phase = phase
		r.samples.add(s)
	})
	return time.Since(start)
}

// warmUp sends ops with the given number of clients and records nothing
// but the correctness gate's observations.
func warmUp(c *client, clients int, ops []op) { drive(c, clients, time.Time{}, ops, false, nil) }

// drive runs clients that each send their next op once the previous one
// answered, until ops are exhausted (repeat: they start over) or deadline
// (zero: none) has passed, and hands each timed sample to done (nil:
// dropped).
func drive(c *client, clients int, deadline time.Time, ops []op, repeat bool, done func(sample)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					if !repeat || len(ops) == 0 {
						return
					}
					k %= len(ops)
				}
				sent := time.Now()
				s, _ := c.exec(ops[k])
				s.lat = time.Since(sent)
				s.svc = s.lat
				if done != nil {
					done(s)
				}
			}
		}()
	}
	wg.Wait()
}

// hashBody is the identity the gate compares responses by.
func hashBody(b []byte) [sha256.Size]byte { return sha256.Sum256(b) }
