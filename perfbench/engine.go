package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/server"
)

// Set-up timing. setup_s is the CPU time a set-up takes, every thread of
// the process together (cpuTime). Its wall time swung by 2x between runs
// on the reference host: the hypervisor takes the virtual CPUs away for
// stretches of several seconds (steal time), which wall time counts and
// CPU time does not. A run sets up for half of setupBudget before its
// measured phases and for the other half after them, at least setupMin
// times each, and reports the median of all; the wall times stay in the
// run record.
const (
	setupBudget = 3 * time.Second
	setupMin    = 5
)

// newQ builds the engine qserver -dataset gbco builds: default options
// (durable when dataDir is set), the meta and MAD matchers, and the GBCO
// corpus.
func newQ(dataDir string) (*core.Q, error) {
	opts := core.DefaultOptions()
	var q *core.Q
	if dataDir != "" {
		opts.DataDir = dataDir
		var err error
		if q, err = core.Open(opts); err != nil {
			return nil, err
		}
	} else {
		q = core.New(opts)
	}
	addMatchers(q)
	if err := q.AddTables(datasets.GBCO().Tables...); err != nil {
		q.Close()
		return nil, err
	}
	return q, nil
}

// addMatchers registers the matchers qserver registers; they are code,
// not state, so a reopened engine needs them again.
func addMatchers(q *core.Q) {
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
}

// engine is one engine served over loopback HTTP.
type engine struct {
	q      *core.Q
	hs     *http.Server
	base   string
	done   chan error
	dir    string // durable data directory, "" for in-memory
	client *client
}

// serve starts the internal/server handler over q on a loopback port,
// with the http.Server timeouts qserver uses.
func serve(q *core.Q, dir string, g *gate) (*engine, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &engine{
		q:    q,
		dir:  dir,
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		hs: &http.Server{
			Handler:           server.New(q),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
	}
	go func() { e.done <- e.hs.Serve(ln) }()
	e.client = newClient(e.base, g, maxConns)
	return e, nil
}

// stop shuts the HTTP server down and waits for it; the engine itself
// stays open (closeQ closes it).
func (e *engine) stop() error {
	e.client.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// shutdown stops the server and closes the engine.
func (e *engine) shutdown() error {
	err := e.stop()
	if cerr := e.q.Close(); err == nil {
		err = cerr
	}
	return err
}

// newEngine builds one engine from nothing to ready-to-serve: corpus,
// engine, server and, via prepare, any state the workload starts from. dir
// is its data directory ("" for in-memory).
func (r *runner) newEngine(dir string, prepare func(*engine) error) (*engine, error) {
	q, err := newQ(dir)
	if err != nil {
		return nil, err
	}
	e, err := serve(q, dir, r.gate)
	if err != nil {
		q.Close()
		return nil, err
	}
	if prepare != nil {
		if err := prepare(e); err != nil {
			e.shutdown()
			return nil, err
		}
	}
	return e, nil
}

// setUp times newEngine repeatedly for d, at least setupMin times, adds
// each CPU and wall time to r.setupCPU and r.setupWall, and returns the
// last engine; the others are shut down and their data directories
// removed. dirFor gives the data directory of set-up i of the run ("" for
// in-memory).
func (r *runner) setUp(d time.Duration, dirFor func(i int) string, prepare func(*engine) error) (*engine, error) {
	var e *engine
	begin := time.Now()
	for i := 0; i < setupMin || time.Since(begin) < d; i++ {
		if e != nil {
			if err := e.discard(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		runtime.GC() // each set-up starts from a collected heap
		start, cpu0 := time.Now(), cpuTime()
		var err error
		if e, err = r.newEngine(dirFor(len(r.setupCPU)), prepare); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setupCPU = append(r.setupCPU, (cpuTime() - cpu0).Seconds())
		r.setupWall = append(r.setupWall, time.Since(start).Seconds())
	}
	return e, nil
}

// setUpAgain is the second half of the set-up timing, run once the
// measured phases are over: it sets up and discards engines for the rest
// of setupBudget and reports setup_s over all set-ups of the run.
func (r *runner) setUpAgain(dirFor func(i int) string, prepare func(*engine) error) error {
	e, err := r.setUp(setupBudget/2, dirFor, prepare)
	if err != nil {
		return err
	}
	if err := e.discard(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.keep("setup_s", median(r.setupCPU), r.setupCPU)
	r.keep("bench.setup_wall_s", median(r.setupWall), r.setupWall)
	return nil
}

// discard shuts e down and removes its data directory.
func (e *engine) discard() error {
	err := e.shutdown()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
	return err
}
