// Package serve is the network front end of the reproduction: a real
// HTTP daemon mapping each incoming request to a webserver.ServeRequest
// on a machine of a fleet.Pool, the paper's extensible HTTP/CGI server
// (Table 3) finally put behind a listener.
//
// The tier adds exactly three things around the fleet, in that order:
//
//   - Admission control: a bound on requests in flight. A request past
//     the bound is refused immediately — fleet.ErrBackpressure is
//     classified as sandbox.Fault{Class: Backpressure} and surfaces as
//     HTTP 503 with a Retry-After header — instead of queueing callers
//     behind capacity the fleet does not have.
//   - Execution: an admitted request checks out any free machine and
//     runs on its own HTTP handler goroutine, with no hand-off to
//     another goroutine. A request that panics fails with HTTP 500; its
//     machine is replaced and the daemon keeps serving.
//   - Autoscaling: a sampler watches the requests in flight and, while
//     they stay above a per-worker threshold, adds a worker cloned from
//     a pristine template machine (so scale-up costs one Clone and the
//     new machine's simulated state is bit-identical to a boot-time
//     worker's).
//
// Connections are served by the package's own HTTP/1.1 loop (conn.go),
// not by net/http.Server: one goroutine per connection reads each
// request with http.ReadRequest, dispatches it through an
// http.ServeMux into a reused buffered response, and writes the status
// line, Content-Length, Date, the handler's headers and the body. There
// is no background-read goroutine per request and no header clone or
// sort. Keep-alive, Connection: close, HTTP/1.0, pipelining, Content-Type
// sniffing, 400/431 for bad or oversized headers and the header and idle
// timeouts behave as in net/http (TestConnConformsToNetHTTP). No handler
// reads a request body, so a request that declares one is answered and
// its connection closed. A handler panic outside the fleet fails only
// its request, with HTTP 500, and closes only its connection.
//
// Observability: per-request simulated and wall-clock latency
// histograms with p50/p99/p999 (/metrics), fleet and interpreter
// counters, and net/http/pprof.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/webserver"
	"repro/sandbox"
)

// Config sizes the serving tier.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// FileSize is the served file size in bytes (default 28, the
	// paper's headline Table 3 row).
	FileSize uint32
	// Workers is the initial fleet size (default 1).
	Workers int
	// MaxWorkers caps autoscaling; <= Workers disables it.
	MaxWorkers int
	// Queue bounds admitted-but-unfinished requests (default
	// 4*max(Workers, MaxWorkers)); beyond it requests get 503.
	Queue int
	// ScaleInterval is the autoscaler's sampling period (default 10ms).
	ScaleInterval time.Duration
	// ScaleUpDepth scales up while inflight > ScaleUpDepth*workers
	// (default 2).
	ScaleUpDepth float64
	// ScaleDownDepth enables scale-down: while the fleet is above its
	// boot size and inflight < ScaleDownDepth*(workers-1), the newest
	// live worker retires once its requests finish. 0 disables scale-down.
	ScaleDownDepth float64
	// ClonePerRequest switches the tier to clone-per-request serving:
	// every admitted request runs on a machine in exactly the pristine
	// template's state — a clone of it, reset in place to it after
	// each request and reused, or forked inline when no reset machine
	// is waiting (see fleet.ClonePool). One machine is kept per worker
	// the fleet may grow to (MaxWorkers), so every machine handed back
	// is reused and the tier forks at most that many.
	ClonePerRequest bool
	// WarmClones is how many of those machines are forked at boot,
	// before the first request (default 2, at most MaxWorkers; only
	// meaningful with ClonePerRequest). The rest are forked inline by
	// the first requests that find none waiting.
	WarmClones int
	// RestoreImage, when non-nil, is a webserver.SaveBytes image the
	// template machine is restored from instead of booting fresh — the
	// -restore cold-start path. FileSize is taken from the image.
	RestoreImage []byte
	// DefaultModel names the model serving requests that pass no
	// ?model= (default "libcgi-prot" — the paper's protected serving
	// path).
	DefaultModel string
}

// modelNames maps the ?model= query values to execution models.
var modelNames = map[string]webserver.Model{
	"static":      webserver.Static,
	"cgi":         webserver.CGI,
	"fastcgi":     webserver.FastCGI,
	"libcgi":      webserver.LibCGI,
	"libcgi-prot": webserver.LibCGIProtected,
}

// ParseModel resolves a ?model= query value.
func ParseModel(name string) (webserver.Model, error) {
	m, ok := modelNames[name]
	if !ok {
		known := make([]string, 0, len(modelNames))
		for n := range modelNames {
			known = append(known, n)
		}
		return 0, fmt.Errorf("serve: unknown model %q (have %s)", name, strings.Join(known, ", "))
	}
	return m, nil
}

// interpCounters is one reading of a machine's simulator-internal
// counters, in the order of interpMetrics.
type interpCounters [11]uint64

// interpMetrics names each interpreter counter on /metrics.
var interpMetrics = [len(interpCounters{})]string{
	"palladium_interp_block_hits_total",
	"palladium_interp_block_builds_total",
	"palladium_interp_block_invalidations_total",
	"palladium_interp_fast_fetches_total",
	"palladium_interp_trace_builds_total",
	"palladium_interp_trace_dispatches_total",
	"palladium_interp_trace_invalidations_total",
	"palladium_interp_trace_deopts_total",
	"palladium_tlb_hits_total",
	"palladium_tlb_misses_total",
	"palladium_tlb_flushes_total",
}

// readInterp reads srv's counters; only srv's owner may call it.
func readInterp(srv *webserver.Server) interpCounters {
	m := srv.S.K.Machine
	var c interpCounters
	c[0], c[1], c[2] = m.BlockCacheStats()
	_, c[3] = m.ChainStats()
	ts := m.TraceStats()
	c[4], c[5], c[6] = ts.Built, ts.Dispatches, ts.Invalidated
	c[7] = ts.DeoptTick + ts.DeoptFault + ts.DeoptPage + ts.DeoptBudget
	c[8], c[9], c[10] = srv.S.K.MMU.TLB().Stats()
	return c
}

// addSince adds to c the counts now has accumulated since before.
func (c *interpCounters) addSince(now, before interpCounters) {
	for i := range c {
		c[i] += now[i] - before[i]
	}
}

// workerCounters are the simulator-internal counters published for
// one worker after every request it serves, so /metrics can read them
// without touching a machine a request holds. A worker with its own
// machine stores that machine's lifetime counters; in
// clone-per-request mode, where every request may run on a different
// machine, each request adds its counts instead.
type workerCounters struct {
	mu sync.Mutex
	c  interpCounters
}

func (w *workerCounters) store(c interpCounters) {
	w.mu.Lock()
	w.c = c
	w.mu.Unlock()
}

func (w *workerCounters) addSince(now, before interpCounters) {
	w.mu.Lock()
	w.c.addSince(now, before)
	w.mu.Unlock()
}

func (w *workerCounters) load() interpCounters {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.c
}

// Server is the HTTP serving tier over a fleet of web-serving
// machines.
type Server struct {
	cfg          Config
	defaultModel webserver.Model
	pool         *fleet.Pool[*webserver.Server]
	// tmpl is the pristine clone source: it never serves, so every
	// scale-up clone is bit-identical to a boot-time worker.
	tmpl *webserver.Server
	// clones is the pool of reset machines (ClonePerRequest mode). In
	// that mode every fleet worker holds tmpl itself, read-only: the
	// worker machines would never serve.
	clones *fleet.ClonePool[*webserver.Server]

	mux *http.ServeMux
	ln  net.Listener
	// timeouts are the connection bounds, readHeaderTimeout and
	// idleTimeout; tests shorten them before Start.
	timeouts struct{ header, idle time.Duration }
	// closing is set by Close: the connection loops stop reading new
	// requests.
	closing atomic.Bool
	connMu  sync.Mutex
	conns   map[*conn]struct{} // every open connection, for Close
	connWG  sync.WaitGroup     // one per connection goroutine

	// Request accounting. admitted counts requests the fleet accepted;
	// completed+failed must equal it after a drain — the "no accepted
	// request is ever dropped" invariant.
	admitted   atomic.Uint64
	rejected   atomic.Uint64 // 503s (admission refusals)
	completed  atomic.Uint64
	failed     atomic.Uint64 // admitted but handler returned an error
	scaleUps   atomic.Uint64
	scaleDowns atomic.Uint64

	simHist  *Hist // simulated service latency, microseconds
	wallHist *Hist // wall-clock admission-to-completion latency, microseconds

	wmu    sync.RWMutex
	wstats []*workerCounters // indexed by worker; grows with scale-up

	maxWorkers int
	stop       chan struct{}
	stopOnce   sync.Once
	scalerDone chan struct{}
	serveDone  chan struct{}
	mu         sync.Mutex // guards Close transitions
	closed     bool
}

// New boots the serving tier: one template machine plus cfg.Workers
// clones of it in the pool. It does not start listening; call Start.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.FileSize == 0 {
		cfg.FileSize = 28
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxWorkers < cfg.Workers {
		cfg.MaxWorkers = cfg.Workers
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.MaxWorkers
	}
	if cfg.ScaleInterval <= 0 {
		cfg.ScaleInterval = 10 * time.Millisecond
	}
	if cfg.ScaleUpDepth <= 0 {
		cfg.ScaleUpDepth = 2
	}
	if cfg.DefaultModel == "" {
		cfg.DefaultModel = "libcgi-prot"
	}
	defaultModel, err := ParseModel(cfg.DefaultModel)
	if err != nil {
		return nil, err
	}

	var tmpl *webserver.Server
	if cfg.RestoreImage != nil {
		tmpl, err = webserver.LoadServerBytes(cfg.RestoreImage)
		if err != nil {
			return nil, fmt.Errorf("serve: restoring template: %w", err)
		}
		cfg.FileSize = tmpl.FileSize
	} else {
		tmpl, err = webserver.BootServer(cfg.FileSize)
		if err != nil {
			return nil, fmt.Errorf("serve: booting template: %w", err)
		}
	}
	s := &Server{
		cfg:          cfg,
		defaultModel: defaultModel,
		tmpl:         tmpl,
		simHist:      &Hist{},
		wallHist:     &Hist{},
		wstats:       make([]*workerCounters, cfg.MaxWorkers),
		maxWorkers:   cfg.MaxWorkers,
		stop:         make(chan struct{}),
		scalerDone:   make(chan struct{}),
		serveDone:    make(chan struct{}),
		conns:        make(map[*conn]struct{}),
	}
	s.timeouts.header, s.timeouts.idle = readHeaderTimeout, idleTimeout
	for i := range s.wstats {
		s.wstats[i] = &workerCounters{}
	}
	if cfg.ClonePerRequest {
		if cfg.WarmClones <= 0 {
			cfg.WarmClones = 2
		}
		s.cfg.WarmClones = cfg.WarmClones
		// Released clones drop their frame references so the
		// template's frames never stay falsely shared and the spent
		// clone's private frames are reclaimed.
		s.clones = fleet.NewClonePoolWarm(cfg.MaxWorkers, cfg.WarmClones,
			tmpl.Clone,
			func(c *webserver.Server) { c.S.K.Phys.Release() })
	}
	// Every worker — boot-time and scaled-up alike — gets a clone of
	// the never-serving template (the template itself in
	// ClonePerRequest mode), so all workers are bit-identical at birth
	// no matter when they join.
	s.pool, err = fleet.New(fleet.Config{Workers: cfg.Workers, Queue: cfg.Queue},
		func(int) (*webserver.Server, error) { return s.workerMachine() })
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	s.mux = mux
	mux.HandleFunc("/", s.handleServe)
	mux.HandleFunc("/serve", s.handleServe)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Start binds the listener and serves in the background until Close.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go s.autoscale()
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (only valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the base URL of the daemon.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Workers reports the current fleet size.
func (s *Server) Workers() int { return s.pool.Workers() }

// ScaleUps reports how many workers the autoscaler added.
func (s *Server) ScaleUps() uint64 { return s.scaleUps.Load() }

// Pool exposes the underlying fleet pool (tests reach in to pin
// placement and hold machines deterministically).
func (s *Server) Pool() *fleet.Pool[*webserver.Server] { return s.pool }

// Counters is the serving tier's request accounting snapshot.
type Counters struct {
	Admitted, Rejected, Completed, Failed, ScaleUps, ScaleDowns uint64
}

// CountersSnapshot returns the request accounting. After a drain,
// Admitted == Completed + Failed — an admitted request is never
// dropped.
func (s *Server) CountersSnapshot() Counters {
	return Counters{
		Admitted:   s.admitted.Load(),
		Rejected:   s.rejected.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		ScaleUps:   s.scaleUps.Load(),
		ScaleDowns: s.scaleDowns.Load(),
	}
}

// ScaleDowns reports how many workers the autoscaler retired.
func (s *Server) ScaleDowns() uint64 { return s.scaleDowns.Load() }

// CloneStats snapshots the clone pool gauges; ok is false
// when the tier is not in ClonePerRequest mode.
func (s *Server) CloneStats() (st fleet.CloneStats, ok bool) {
	if s.clones == nil {
		return fleet.CloneStats{}, false
	}
	return s.clones.Stats(), true
}

// handleServe maps one HTTP request onto a fleet machine.
func (s *Server) handleServe(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" && r.URL.Path != "/serve" {
		http.NotFound(w, r)
		return
	}
	model := s.defaultModel
	if r.URL.RawQuery != "" {
		if name := r.URL.Query().Get("model"); name != "" {
			m, err := ParseModel(name)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			model = m
		}
	}

	t0 := time.Now()
	var (
		status    int
		simMicros float64
		reqErr    error
	)
	handler := func(wk int, srv *webserver.Server) error {
		before := srv.SimCycles()
		status, reqErr = srv.ServeRequest(model)
		simMicros = srv.S.Clock().Micros(srv.SimCycles() - before)
		s.workerCounters(wk).store(readInterp(srv))
		return reqErr
	}
	if s.clones != nil {
		// Clone-per-request mode: the fleet still provides admission
		// control and the bound on concurrency, but the request executes
		// on a machine in the template's state taken from the clone
		// pool, not on the worker's machine, and hands it back after.
		handler = func(wk int, _ *webserver.Server) error {
			c, err := s.clones.Take()
			if err != nil {
				reqErr = err
				return err
			}
			served := false
			defer func() {
				if !served {
					// The request panicked: a reset may not undo
					// whatever state it left, so the clone goes.
					s.clones.Drop(c)
				}
			}()
			before, interp := c.SimCycles(), readInterp(c)
			status, reqErr = c.ServeRequest(model)
			simMicros = c.S.Clock().Micros(c.SimCycles() - before)
			s.workerCounters(wk).addSince(readInterp(c), interp)
			served = true
			// Hand back before completing the request, so the pool
			// gauges are settled by the time the response is observable.
			s.clones.Discard(c)
			return reqErr
		}
	}
	// Admission is final: even if the client goes away, the request
	// runs to completion on this goroutine and is accounted.
	err := s.pool.TrySubmit(handler)
	if errors.Is(err, fleet.ErrBackpressure) || errors.Is(err, fleet.ErrClosed) {
		// Too many in flight (or shutting down): typed backpressure,
		// HTTP 503.
		fault := sandbox.NewFault(sandbox.Backpressure, "serve", "admit", err)
		if errors.Is(err, fleet.ErrClosed) {
			fault = sandbox.NewFault(sandbox.Revoked, "serve", "admit", err)
		}
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("X-Fault-Class", fault.Class.String())
		http.Error(w, fault.Error(), http.StatusServiceUnavailable)
		return
	}
	s.admitted.Add(1)
	if err != nil {
		reqErr = err // the request panicked
	}
	wallMicros := time.Since(t0).Microseconds()
	s.wallHist.Record(uint64(wallMicros))
	s.simHist.Record(uint64(simMicros))
	if reqErr != nil {
		s.failed.Add(1)
		var fault *sandbox.Fault
		if !errors.As(reqErr, &fault) {
			fault = sandbox.NewFault(sandbox.Unknown, "serve", "request", reqErr)
		}
		w.Header().Set("X-Fault-Class", fault.Class.String())
		http.Error(w, fault.Error(), http.StatusInternalServerError)
		return
	}
	s.completed.Add(1)
	sim := strconv.FormatFloat(simMicros, 'f', 3, 64)
	wall := strconv.FormatInt(wallMicros, 10)
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8") // what sniffing the body would find
	h.Set("X-Model", model.String())
	h.Set("X-Sim-Micros", sim)
	h.Set("X-Wall-Micros", wall)
	body := strconv.AppendInt(append(make([]byte, 0, 96), "status="...), int64(status), 10)
	body = strconv.AppendQuote(append(body, " model="...), model.String())
	body = append(append(body, " sim_us="...), sim...)
	body = append(append(body, " wall_us="...), wall...)
	w.Write(append(body, '\n'))
}

// workerMachine returns the machine a new fleet worker holds: a clone
// of the template, or in ClonePerRequest mode the template itself,
// which the worker never serves on or writes.
func (s *Server) workerMachine() (*webserver.Server, error) {
	if s.clones != nil {
		return s.tmpl, nil
	}
	return s.tmpl.Clone()
}

// workerCounters returns worker wk's published counters. ScaleUp
// grows the table before the worker's machine joins the pool.
func (s *Server) workerCounters(wk int) *workerCounters {
	s.wmu.RLock()
	defer s.wmu.RUnlock()
	return s.wstats[wk]
}

// autoscale samples the requests in flight every ScaleInterval and
// adds a cloned worker while they exceed ScaleUpDepth per worker.
// Scale-up is one Clone of the pristine template, so a scaled-up
// worker's simulated state is bit-identical to a boot-time worker's.
func (s *Server) autoscale() {
	defer close(s.scalerDone)
	t := time.NewTicker(s.cfg.ScaleInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		workers := s.pool.Workers()
		if workers < s.maxWorkers && float64(s.pool.Inflight()) > s.cfg.ScaleUpDepth*float64(workers) {
			if err := s.ScaleUp(); err != nil {
				if !errors.Is(err, fleet.ErrClosed) {
					fmt.Printf("serve: scale-up: %v\n", err)
				}
				return
			}
			continue
		}
		if s.cfg.ScaleDownDepth > 0 && workers > s.cfg.Workers &&
			float64(s.pool.Inflight()) < s.cfg.ScaleDownDepth*float64(workers-1) {
			if err := s.ScaleDown(); err != nil && !errors.Is(err, fleet.ErrClosed) {
				fmt.Printf("serve: scale-down: %v\n", err)
			}
		}
	}
}

// ScaleUp adds one worker cloned from the pristine template. The
// autoscaler calls it under load; tests call it directly.
func (s *Server) ScaleUp() error {
	m, err := s.workerMachine()
	if err != nil {
		return err
	}
	// Worker indices keep growing across retire/add cycles, so the
	// counter table grows with them rather than being capped at
	// MaxWorkers. It grows first: a request may take the new machine
	// the moment AddMachine returns. Holding wmu across AddMachine
	// keeps concurrent scale-ups from racing for the next index.
	s.wmu.Lock()
	for len(s.wstats) <= s.pool.TotalWorkers() {
		s.wstats = append(s.wstats, &workerCounters{})
	}
	_, err = s.pool.AddMachine(m)
	s.wmu.Unlock()
	if err != nil {
		return err
	}
	s.scaleUps.Add(1)
	return nil
}

// ScaleDown retires the newest live worker: no new request checks it
// out, the requests already holding it or pinned to it finish
// (conservation-exact — nothing admitted is dropped), and its
// machine's frames are released.
// The fleet never shrinks below its boot size.
func (s *Server) ScaleDown() error {
	live := s.pool.LiveWorkers()
	if len(live) <= s.cfg.Workers {
		return nil
	}
	w := live[len(live)-1]
	m, err := s.pool.RemoveMachine(w)
	if err != nil {
		return err
	}
	if m != s.tmpl {
		m.S.K.Phys.Release()
	}
	s.scaleDowns.Add(1)
	return nil
}

// Close shuts the tier down in dependency order: stop the autoscaler,
// stop accepting HTTP, close idle connections, let each in-flight
// request finish and write its response (an admitted request runs to
// completion), then close the pool, which waits for every admitted
// request. When ctx ends before the connections are done, every
// connection is closed and ctx's error returned once the admitted
// requests have finished. It reports only a shutdown error: a request
// that failed is counted in Failed, not returned. Safe to call more
// than once.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.stopOnce.Do(func() { close(s.stop) })
	var err error
	if s.ln != nil { // Start ran: the scaler and listener goroutines exist
		<-s.scalerDone
		err = s.shutdown(ctx)
	}
	s.pool.Close()
	// No request is in flight; no handler can Take any more. Drain the warm
	// clones so their frame references are released.
	if s.clones != nil {
		s.clones.Close()
	}
	return err
}
