// Package serve is the network front end of the reproduction: a real
// HTTP daemon mapping each incoming request to a webserver.ServeRequest
// on a machine of a fleet.Pool, the paper's extensible HTTP/CGI server
// (Table 3) finally put behind a listener.
//
// The tier adds exactly three things around the fleet, in that order:
//
//   - Admission control: a bounded submission queue. A full queue
//     refuses the request immediately — fleet.ErrBackpressure is
//     classified as sandbox.Fault{Class: Backpressure} and surfaces as
//     HTTP 503 with a Retry-After header — instead of queueing callers
//     behind capacity the fleet does not have.
//   - Dispatch: admitted requests go through the pool's balanced
//     submission path; any idle machine steals them.
//   - Autoscaling: a sampler watches queue depth and, while it stays
//     above a per-worker threshold, adds a worker cloned from a
//     pristine template machine (PR 3's clone-boot, so scale-up costs
//     one Clone and the new machine's simulated state is bit-identical
//     to a boot-time worker's).
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/webserver"
	"repro/sandbox"
)

// HTTP connection bounds. A client that never finishes its request
// headers, or leaves a keep-alive connection idle, is disconnected
// instead of pinning a goroutine forever. There is deliberately no
// write timeout: /debug/pprof/profile streams for 30 s by default.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
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
	// live worker drains and retires. 0 disables scale-down.
	ScaleDownDepth float64
	// ClonePerRequest switches the tier to ephemeral-clone serving:
	// every admitted request runs on a fresh clone forked from the
	// pristine template (pre-forked into a warm pool off the hot path)
	// and discarded — never reused — on completion.
	ClonePerRequest bool
	// WarmClones bounds the pre-forked warm clone pool (default 2;
	// only meaningful with ClonePerRequest).
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

// workerCounters is a per-worker snapshot of the simulator-internal
// counters, refreshed by the owning worker after every request it
// serves, so /metrics can read them without touching a machine another
// goroutine owns.
type workerCounters struct {
	blockHits, blockBuilds, blockInvalids atomic.Uint64
	chainHits, fastFetches                atomic.Uint64
	traceBuilds, traceDispatches          atomic.Uint64
	traceInvalids, traceDeopts            atomic.Uint64
	tlbHits, tlbMisses, tlbFlushes        atomic.Uint64
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
	// clones is the warm ephemeral-clone pool (ClonePerRequest mode).
	clones *fleet.ClonePool[*webserver.Server]

	ln net.Listener
	hs *http.Server

	// Request accounting. admitted counts requests accepted into the
	// fleet queue; completed+failed must equal it after a drain —
	// the "no accepted request is ever dropped" invariant.
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

// result carries one request's outcome from the fleet worker back to
// the HTTP handler.
type result struct {
	status    int
	simMicros float64
	err       error
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
	// Every worker — boot-time and scaled-up alike — is a clone of the
	// never-serving template, so all workers are bit-identical at
	// birth no matter when they join.
	pool, err := fleet.New(fleet.Config{Workers: cfg.Workers, Queue: cfg.Queue},
		func(int) (*webserver.Server, error) { return tmpl.Clone() })
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		defaultModel: defaultModel,
		pool:         pool,
		tmpl:         tmpl,
		simHist:      &Hist{},
		wallHist:     &Hist{},
		wstats:       make([]*workerCounters, cfg.MaxWorkers),
		maxWorkers:   cfg.MaxWorkers,
		stop:         make(chan struct{}),
		scalerDone:   make(chan struct{}),
		serveDone:    make(chan struct{}),
	}
	for i := range s.wstats {
		s.wstats[i] = &workerCounters{}
	}
	if cfg.ClonePerRequest {
		if cfg.WarmClones <= 0 {
			cfg.WarmClones = 2
		}
		s.cfg.WarmClones = cfg.WarmClones
		// Discarded clones release their frame references so the
		// template's frames never stay falsely shared and the spent
		// clone's private frames are reclaimed.
		s.clones = fleet.NewClonePool(cfg.WarmClones,
			tmpl.Clone,
			func(c *webserver.Server) { c.S.K.Phys.Release() })
	}
	mux := http.NewServeMux()
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
	s.hs = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
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
	go func() {
		defer close(s.serveDone)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("serve: http: %v\n", err)
		}
	}()
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
// placement and block workers deterministically).
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

// CloneStats snapshots the ephemeral-clone pool gauges; ok is false
// when the tier is not in ClonePerRequest mode.
func (s *Server) CloneStats() (st fleet.CloneStats, ok bool) {
	if s.clones == nil {
		return fleet.CloneStats{}, false
	}
	return s.clones.Stats(), true
}

// SimHist and WallHist expose the latency histograms (µs).
func (s *Server) SimHist() *Hist  { return s.simHist }
func (s *Server) WallHist() *Hist { return s.wallHist }

// handleServe maps one HTTP request onto a fleet machine.
func (s *Server) handleServe(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" && r.URL.Path != "/serve" {
		http.NotFound(w, r)
		return
	}
	model := s.defaultModel
	if name := r.URL.Query().Get("model"); name != "" {
		m, err := ParseModel(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		model = m
	}

	t0 := time.Now()
	done := make(chan result, 1)
	handler := func(wk int, srv *webserver.Server) error {
		before := srv.SimCycles()
		status, err := srv.ServeRequest(model)
		cyc := srv.SimCycles() - before
		s.refreshWorkerCounters(wk, srv)
		done <- result{status: status, simMicros: srv.S.Clock().Micros(cyc), err: err}
		return err
	}
	if s.clones != nil {
		// Ephemeral-clone mode: the fleet still provides admission
		// control and worker concurrency, but the request executes on a
		// fresh clone popped from the warm pool, not on the worker's
		// long-lived machine, and the clone is discarded afterwards.
		handler = func(wk int, _ *webserver.Server) error {
			c, err := s.clones.Take()
			if err != nil {
				done <- result{err: err}
				return err
			}
			before := c.SimCycles()
			status, serr := c.ServeRequest(model)
			cyc := c.SimCycles() - before
			s.refreshWorkerCounters(wk, c)
			res := result{status: status, simMicros: c.S.Clock().Micros(cyc), err: serr}
			// Discard before completing the request, so the pool gauges
			// are settled by the time the response is observable.
			s.clones.Discard(c)
			done <- res
			return serr
		}
	}
	err := s.pool.TrySubmit(handler)
	if err != nil {
		// Queue full (or shutting down): typed backpressure, HTTP 503.
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

	// Admission is final: even if the client goes away, the request
	// runs and is accounted. The buffered channel lets the worker
	// complete without a reader.
	var res result
	select {
	case res = <-done:
	case <-r.Context().Done():
		res = <-done
	}
	wallMicros := time.Since(t0).Microseconds()
	s.wallHist.Record(uint64(wallMicros))
	s.simHist.Record(uint64(res.simMicros))
	if res.err != nil {
		s.failed.Add(1)
		http.Error(w, res.err.Error(), http.StatusInternalServerError)
		return
	}
	s.completed.Add(1)
	w.Header().Set("X-Model", model.String())
	w.Header().Set("X-Sim-Micros", fmt.Sprintf("%.3f", res.simMicros))
	w.Header().Set("X-Wall-Micros", fmt.Sprintf("%d", wallMicros))
	fmt.Fprintf(w, "status=%d model=%q sim_us=%.3f wall_us=%d\n",
		res.status, model.String(), res.simMicros, wallMicros)
}

// refreshWorkerCounters publishes worker wk's simulator counters; it
// runs on the worker goroutine that owns srv, so the reads are safe.
func (s *Server) refreshWorkerCounters(wk int, srv *webserver.Server) {
	s.wmu.RLock()
	var c *workerCounters
	if wk < len(s.wstats) {
		c = s.wstats[wk]
	}
	s.wmu.RUnlock()
	if c == nil {
		return
	}
	hits, builds, invalids := srv.S.K.Machine.BlockCacheStats()
	chains, fast := srv.S.K.Machine.ChainStats()
	ts := srv.S.K.Machine.TraceStats()
	th, tm, tf := srv.S.K.MMU.TLB().Stats()
	c.blockHits.Store(hits)
	c.blockBuilds.Store(builds)
	c.blockInvalids.Store(invalids)
	c.chainHits.Store(chains)
	c.fastFetches.Store(fast)
	c.traceBuilds.Store(ts.Built)
	c.traceDispatches.Store(ts.Dispatches)
	c.traceInvalids.Store(ts.Invalidated)
	c.traceDeopts.Store(ts.DeoptTick + ts.DeoptFault + ts.DeoptPage + ts.DeoptBudget)
	c.tlbHits.Store(th)
	c.tlbMisses.Store(tm)
	c.tlbFlushes.Store(tf)
}

// autoscale samples queue depth every ScaleInterval and adds a cloned
// worker while the backlog exceeds ScaleUpDepth per worker. Scale-up
// is one Clone of the pristine template (PR 3), so a scaled-up
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
// autoscaler calls it on queue pressure; tests call it directly.
func (s *Server) ScaleUp() error {
	clone, err := s.tmpl.Clone()
	if err != nil {
		return err
	}
	w, err := s.pool.AddMachine(clone)
	if err != nil {
		return err
	}
	// Worker indices keep growing across retire/add cycles, so the
	// counter table grows with them rather than being capped at
	// MaxWorkers.
	s.wmu.Lock()
	for len(s.wstats) <= w {
		s.wstats = append(s.wstats, &workerCounters{})
	}
	s.wmu.Unlock()
	s.scaleUps.Add(1)
	return nil
}

// ScaleDown retires the newest live worker: it stops receiving new
// submissions, drains its queue (conservation-exact — nothing it
// accepted is dropped), exits, and its machine's frames are released.
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
	m.S.K.Phys.Release()
	s.scaleDowns.Add(1)
	return nil
}

// Close shuts the tier down in dependency order: stop the autoscaler,
// stop accepting HTTP, let in-flight handlers finish (their fleet
// requests execute — the pool drains accepted work), then close the
// pool. Safe to call more than once.
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
		err = s.hs.Shutdown(ctx)
		<-s.serveDone
	}
	if _, cerr := s.pool.Close(); err == nil {
		err = cerr
	}
	// Workers are gone; no handler can Take any more. Drain the warm
	// clones so their frame references are released.
	if s.clones != nil {
		s.clones.Close()
	}
	return err
}
