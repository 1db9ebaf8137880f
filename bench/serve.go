package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/webserver"
)

// The serve workloads: an in-process palladium-serve daemon with two
// workers, the paper's 28-byte file under the protected LibCGI model,
// and two keep-alive connections. serve-shared serves on long-lived
// machines; serve-clone serves every request on a fresh clone of a
// template restored from a saved image.

const (
	serveFileSize = 28
	// serveWorkers and serveConns match the two cores the benchmark was
	// sized on; the load side never uses more goroutines than conns.
	serveWorkers = 2
	serveConns   = 2
	serveModel   = webserver.LibCGIProtected
	// sloP99US is the latency limit on p99 (from due time) for slo_rps.
	// The generator sleeps between sends, and sleeps here are only
	// accurate to about a millisecond, so the limit is five of those.
	sloP99US    = 5000
	sloErrRatio = 0.001 // failure limit for slo_rps
	warmup      = 300 * time.Millisecond
)

// ladders are the open-loop rates in requests per second, lowest step
// meeting the SLO and the top step missing it.
var ladders = map[bool][]float64{
	false: {4000, 8000, 16000, 32000},
	true:  {500, 1000, 2000, 4000},
}

// latencyStep is the ladder step whose schedule the traced run replays.
const latencyStep = 1

// ladderStep is one open-loop rate's outcome.
type ladderStep struct {
	RateRPS    float64 `json:"rate_rps"`
	Seconds    float64 `json:"seconds"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	OfferedRPS float64 `json:"offered_rps"`
	P50US      float64 `json:"latency_p50_us"`
	P99US      float64 `json:"latency_p99_us"`
	LagP50US   float64 `json:"lag_p50_us"`
	LagP99US   float64 `json:"lag_p99_us"`
	// LagEndUS is the median lag of the step's last tenth of requests; a
	// generator falling ever further behind shows here.
	LagEndUS float64 `json:"lag_end_us"`
	MeetsSLO bool    `json:"meets_slo"`
	// Valid is false when the generator's median lag exceeds a tenth of
	// the latency p50, so the step measured the client more than the
	// daemon.
	Valid bool `json:"valid"`
}

// respChecker checks every response against the oracle: status 200, the
// daemon's body, and X-Sim-Micros equal to a first or steady request's.
type respChecker struct {
	e      *expected
	clone  bool
	t      *tally
	firsts atomic.Int64
}

func (c *respChecker) check(s *sent) bool {
	switch {
	case s.err != nil:
		c.t.fail("request: %v", s.err)
	case s.resp.status != http.StatusOK:
		c.t.fail("status %d: %q", s.resp.status, s.resp.body)
	case !bytes.HasPrefix(s.resp.body, []byte("status=200 ")):
		c.t.fail("body %q", s.resp.body)
	default:
		return c.checkSim(s.resp.simUS)
	}
	return false
}

// checkSim counts one request whose simulated service time the daemon
// (or the replica pass) reported as sim.
func (c *respChecker) checkSim(sim string) bool {
	switch {
	case sim == c.e.Serve.FirstSimUS:
		c.firsts.Add(1)
	case sim == c.e.Serve.SteadySimUS && !c.clone:
	default:
		c.t.fail("X-Sim-Micros %s, oracle %s (first) / %s (steady)", sim, c.e.Serve.FirstSimUS, c.e.Serve.SteadySimUS)
		return false
	}
	c.t.ok()
	return true
}

// finish checks that on long-lived machines only each machine's first
// request ran cold.
func (c *respChecker) finish(machines int) {
	if !c.clone && c.firsts.Load() > int64(machines) {
		c.t.fail("%d first-request service times on %d long-lived machines", c.firsts.Load(), machines)
	}
}

type serveRun struct {
	cfg     config
	clone   bool
	img     []byte
	d       *serve.Server
	clients []*client
	chk     *respChecker
}

func (s *serveRun) daemonConfig() serve.Config {
	c := serve.Config{Workers: serveWorkers, FileSize: serveFileSize, DefaultModel: "libcgi-prot"}
	if s.clone {
		c.ClonePerRequest, c.WarmClones, c.RestoreImage = true, 2, s.img
	}
	return c
}

// start boots the daemon and waits until it answers.
func (s *serveRun) start() error {
	d, err := serve.New(s.daemonConfig())
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		d.Close(context.Background())
		return err
	}
	s.d = d
	c := &client{addr: d.Addr()}
	defer c.close()
	resp, err := c.do([]byte("GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"))
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("healthz status %d", resp.status)
	}
	return err
}

func (s *serveRun) stop() error {
	for _, c := range s.clients {
		c.close()
	}
	if s.d == nil {
		return nil
	}
	err := s.d.Close(context.Background())
	s.d = nil
	return err
}

func runServe(cfg config, clone bool, e *expected, r *result, t *tally) (err error) {
	s := &serveRun{cfg: cfg, clone: clone, chk: &respChecker{e: e, clone: clone, t: t}}
	if clone {
		tmpl, err := webserver.BootServer(serveFileSize)
		if err != nil {
			return err
		}
		s.img = tmpl.SaveBytes()
	}
	// Set-up: daemon boot (for serve-clone, the restore from the image)
	// to first answer, setupReps times; the last daemon serves the run.
	var setups []float64
	slow := slowdown(func() {
		for i := 0; i < setupReps && err == nil; i++ {
			if err = s.stop(); err != nil {
				break
			}
			t0 := time.Now()
			err = s.start()
			setups = append(setups, time.Since(t0).Seconds())
		}
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.stop(); err == nil {
			err = cerr
		}
	}()
	for i := 0; i < serveConns; i++ {
		s.clients = append(s.clients, &client{addr: s.d.Addr()})
	}
	closedLoop(s.clients, warmup, func(x *sent) { s.chk.check(x) })
	r.markHeap()
	before := s.d.CountersSnapshot()

	if cfg.Trace {
		err = s.traced(r)
	} else {
		err = s.untraced(r, median(setups), slow)
	}
	if err != nil {
		return err
	}
	after := s.d.CountersSnapshot()
	machines := serveWorkers
	if cfg.Trace {
		machines += serveWorkers // the replica pass's workers
	}
	s.chk.finish(machines)
	gap := int64(after.Admitted) - int64(after.Completed) - int64(after.Failed)
	t.check(gap == 0, "conservation: admitted %d != completed %d + failed %d", after.Admitted, after.Completed, after.Failed)
	t.check(after.Rejected == before.Rejected, "%d requests refused with 503", after.Rejected-before.Rejected)
	return nil
}

// untraced runs the open-loop rate ladder, then every connection in a
// closed loop: the capacity, and each request's latency at it.
func (s *serveRun) untraced(r *result, setup, slow float64) error {
	ladder := ladders[s.clone]
	stepDur := s.cfg.Duration * 2 / 10 / time.Duration(len(ladder))
	for i, rate := range ladder {
		sched := poissonSchedule(s.cfg.Seed, i, rate, stepDur)
		r.Steps = append(r.Steps, s.step(rate, stepDur, sched))
	}
	r.markHeap()
	r.setLoopMetrics(s.cfg.Duration*8/10, func(d time.Duration) (int64, time.Duration, *sampler) {
		lat := newSampler()
		var mu sync.Mutex
		t0 := time.Now()
		closedLoop(s.clients, d, func(x *sent) {
			if s.chk.check(x) {
				mu.Lock()
				lat.add(x.rttUS)
				mu.Unlock()
			}
		})
		return lat.n, time.Since(t0), lat
	})
	r.markHeap()
	slo := 0.0
	for _, st := range r.Steps {
		if st.MeetsSLO {
			slo = st.RateRPS
		}
	}
	r.setScaled("setup_s", setup, slow, setupReps)
	r.extra("slo_rps", "req/s", slo, int64(len(r.Steps)))
	return nil
}

// step runs one open-loop ladder step.
func (s *serveRun) step(rate float64, d time.Duration, sched []time.Duration) ladderStep {
	st := ladderStep{RateRPS: rate, Seconds: d.Seconds(), Requests: len(sched),
		OfferedRPS: float64(len(sched)) / d.Seconds()}
	lat, lag, lagEnd := newSampler(), newSampler(), newSampler()
	var mu sync.Mutex
	openLoop(s.clients, sched, func(i int, x *sent) {
		good := s.chk.check(x)
		mu.Lock()
		defer mu.Unlock()
		if !good {
			st.Errors++
			return
		}
		lat.add(x.latUS)
		lag.add(x.lagUS)
		if i >= len(sched)*9/10 {
			lagEnd.add(x.lagUS)
		}
	})
	st.P50US, st.P99US = lat.quantile(0.5), lat.quantile(0.99)
	st.LagP50US, st.LagP99US, st.LagEndUS = lag.quantile(0.5), lag.quantile(0.99), lagEnd.quantile(0.5)
	st.MeetsSLO = st.Requests > 0 && st.P99US <= sloP99US &&
		float64(st.Errors) <= sloErrRatio*float64(st.Requests) && st.LagEndUS <= sloP99US
	st.Valid = st.LagP50US <= st.P50US/10
	return st
}

// traced breaks the serving path down. A short open-loop replay of the
// latency step checks the generator and loads the fleet's queues; both
// connections in a closed loop then load the daemon as the untraced
// run's latency phase does, reading the daemon's own accounting; a
// replica of that load straight through the fleet's public calls, on
// machines booted the same way, times each stage.
func (s *serveRun) traced(r *result) error {
	spans := newSpanLog()
	c0 := s.d.CountersSnapshot()
	cs0, _ := s.d.CloneStats()
	var sentN atomic.Int64

	d0 := s.cfg.Duration / 10
	sched := poissonSchedule(s.cfg.Seed, latencyStep, ladders[s.clone][latencyStep], d0)
	run := s.d.Pool().BeginRun()
	lag := newSampler()
	var mu sync.Mutex
	elapsed := openLoop(s.clients, sched, func(_ int, x *sent) {
		sentN.Add(1)
		s.chk.check(x)
		mu.Lock()
		lag.add(x.lagUS)
		mu.Unlock()
	})
	st := run.Stats()
	r.set("loadgen.lag_p99_us", lag.quantile(0.99), lag.n)
	r.set("loadgen.offered_rps", float64(len(sched))/d0.Seconds(), lag.n)
	r.set("fleet.busy_ratio", st.Busy.Seconds()/(elapsed.Seconds()*serveWorkers), int64(st.Requests))
	r.set("fleet.queue_high_water", float64(st.QueueHighWater), int64(st.Requests))
	r.set("fleet.steals_per_req", ratio(st.Steals, st.Requests), int64(st.Requests))

	self, handler := newSampler(), newSampler()
	closedLoop(s.clients, s.cfg.Duration/4, func(x *sent) {
		sentN.Add(1)
		if s.chk.check(x) {
			// X-Wall-Micros is truncated to whole µs; the midpoint of that
			// µs is the unbiased estimate.
			wall := float64(x.resp.wallUS) + 0.5
			mu.Lock()
			self.add(x.rttUS - wall)
			handler.add(wall)
			mu.Unlock()
		}
	})
	c1 := s.d.CountersSnapshot()
	cs1, _ := s.d.CloneStats()
	if err := s.scrapeMetrics(); err != nil {
		return err
	}
	attempted := float64(sentN.Load())
	admitted := float64(c1.Admitted - c0.Admitted)
	r.set("http.self_us_p50", self.quantile(0.5), self.n)
	r.set("http.self_us_p99", self.quantile(0.99), self.n)
	r.set("serve.handler_us_p50", handler.quantile(0.5), handler.n)
	r.set("serve.handler_us_p99", handler.quantile(0.99), handler.n)
	r.set("serve.admit_ratio", admitted/attempted, int64(attempted))
	r.set("serve.conservation_gap", admitted-float64(c1.Completed-c0.Completed)-float64(c1.Failed-c0.Failed), int64(attempted))
	if s.clone {
		r.set("fleet.clone_cold_steal_ratio", ratio(cs1.ColdSteals-cs0.ColdSteals, c1.Admitted-c0.Admitted), int64(admitted))
	}

	rep, err := s.replica(s.cfg.Duration/4, spans)
	if err != nil {
		return err
	}
	r.setCounts(rep.counts, rep.n)
	r.set("cpu.host_ns_per_instr", float64(rep.serveNS)/float64(rep.counts.instr), rep.n)
	r.set("fleet.queue_wait_us_p50", spans.q("fleet.queue_wait", 0.5), rep.n)
	r.set("fleet.queue_wait_us_p99", spans.q("fleet.queue_wait", 0.99), rep.n)
	r.set("fleet.handoff_us_p50", spans.q("fleet.handoff", 0.5), rep.n)
	r.set("webserver.serve_us_p50", spans.q("webserver.ServeRequest", 0.5), rep.n)
	r.set("webserver.serve_us_p99", spans.q("webserver.ServeRequest", 0.99), rep.n)
	r.set("sim.us_per_op", rep.simUS.quantile(0.5), rep.n)
	stages := []string{"fleet.queue_wait", "webserver.ServeRequest", "serve.refresh_counters", "fleet.handoff"}
	if s.clone {
		r.set("fleet.clone_take_us_p50", spans.q("fleet.ClonePool.Take", 0.5), rep.n)
		r.set("fleet.clone_take_us_p99", spans.q("fleet.ClonePool.Take", 0.99), rep.n)
		r.set("fleet.clone_discard_us_p50", spans.q("fleet.ClonePool.Discard", 0.5), rep.n)
		r.set("mem.frames_per_clone", float64(rep.frames)/float64(rep.n), rep.n)
		stages = append(stages, "fleet.ClonePool.Take", "fleet.ClonePool.Discard")
	}
	// Means add up where medians do not: the unattributed share is the
	// part of the daemon's mean handler time no stage's mean accounts for.
	staged := 0.0
	for _, name := range stages {
		staged += spans.mean(name)
	}
	r.set("serve.unattributed_share", 1-staged/handler.mean(), handler.n)

	// Trace overhead: the saturation loop with and without recording
	// spans per request.
	overhead := traceOverhead(s.cfg.Duration*3/10, func(d time.Duration, traced bool) int64 {
		var sl *spanLog
		var ops atomic.Int64
		if traced {
			sl = newSpanLog()
		}
		return closedLoop(s.clients, d, func(x *sent) {
			s.chk.check(x)
			if sl != nil {
				op := ops.Add(1)
				rtt := time.Duration(x.rttUS * 1e3)
				start := time.Now().Add(-rtt)
				sl.record(op, "http.roundtrip", "", start, rtt)
				sl.record(op, "serve.handleServe", "http.roundtrip", start, time.Duration(x.resp.wallUS)*time.Microsecond)
			}
		})
	})
	r.set("bench.trace_overhead_ratio", overhead, 1)
	r.Spans, r.Dropped = spans.spans, spans.dropped
	if err := runProbes(r); err != nil {
		return err
	}
	r.zeroUnset()
	return nil
}

// scrapeMetrics reads the daemon's /metrics and checks its request
// accounting: every admitted request completed or failed.
func (s *serveRun) scrapeMetrics() error {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(s.d.URL() + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	vals := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(k, "#") {
			continue
		}
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			vals[k] = n
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	adm, comp, fail := vals["palladium_serve_admitted_total"], vals["palladium_serve_completed_total"], vals["palladium_serve_failed_total"]
	s.chk.t.check(adm > 0 && adm == comp+fail, "/metrics: admitted %d != completed %d + failed %d", adm, comp, fail)
	return nil
}

// replicaStats sums the replica pass.
type replicaStats struct {
	n       int64
	counts  counters
	serveNS int64
	simUS   *sampler // per request, rounded as X-Sim-Micros reports it
	frames  int64
}

// replicaRec is one replica request's stage times and results.
type replicaRec struct {
	submit, sent                      time.Time
	queue, take, serve, refresh, disc time.Duration
	status                            int
	err                               error
	c                                 counters
	simUS                             float64
	frames                            int
}

// simText formats a simulated service time as the daemon's X-Sim-Micros
// header does.
func simText(simUS float64) string { return fmt.Sprintf("%.3f", simUS) }

// replica repeats, for d, the path the daemon's requests take, straight
// through the fleet's public calls on two workers cloned from a template
// booted as the daemon boots its own. Each of serveConns submitting
// goroutines plays one connection's handler: it submits a request and
// blocks until the worker hands the result back. The worker does what
// the daemon's does: ClonePool.Take (clone mode), ServeRequest, a counter
// refresh and ClonePool.Discard. The worker owns the machine, so its
// counter reads are race-free.
func (s *serveRun) replica(d time.Duration, spans *spanLog) (replicaStats, error) {
	var tmpl *webserver.Server
	var err error
	if s.clone {
		tmpl, err = webserver.LoadServerBytes(s.img)
	} else {
		tmpl, err = webserver.BootServer(serveFileSize)
	}
	if err != nil {
		return replicaStats{}, err
	}
	pool, err := fleet.New(fleet.Config{Workers: serveWorkers, Queue: 4 * serveWorkers},
		func(int) (*webserver.Server, error) { return tmpl.Clone() })
	if err != nil {
		return replicaStats{}, err
	}
	defer pool.Close()
	var clones *fleet.ClonePool[*webserver.Server]
	if s.clone {
		clones = fleet.NewClonePool(2, tmpl.Clone, func(c *webserver.Server) { c.S.K.Phys.Release() })
		defer clones.Close()
	}

	handler := func(submit time.Time, done chan<- replicaRec) fleet.Request[*webserver.Server] {
		return func(_ int, m *webserver.Server) error {
			rc := replicaRec{submit: submit}
			t0 := time.Now()
			rc.queue = t0.Sub(submit)
			if clones != nil {
				c, err := clones.Take()
				if err != nil {
					rc.err = err
					done <- rc
					return err
				}
				m = c
				rc.take = time.Since(t0)
			}
			before := readCounters(m.S.K)
			cyc0 := m.SimCycles()
			t1 := time.Now()
			rc.status, rc.err = m.ServeRequest(serveModel)
			t2 := time.Now()
			rc.serve = t2.Sub(t1)
			rc.simUS = m.S.Clock().Micros(m.SimCycles() - cyc0)
			rc.c.addDelta(readCounters(m.S.K), before)
			rc.refresh = time.Since(t2)
			if clones != nil {
				rc.frames = m.S.K.Phys.FrameCount()
				t3 := time.Now()
				clones.Discard(m)
				rc.disc = time.Since(t3)
			}
			rc.sent = time.Now()
			done <- rc
			return rc.err
		}
	}

	// Warm each long-lived worker past its cold first request and the
	// trace tier's hotness threshold, pinned so that stealing cannot
	// leave one cold.
	warm := make(chan replicaRec, 1)
	for w := 0; w < serveWorkers; w++ {
		for i := 0; i < 100; i++ {
			if err := pool.SubmitTo(w, handler(time.Now(), warm)); err != nil {
				return replicaStats{}, err
			}
			rc := <-warm
			s.chk.checkSim(simText(rc.simUS))
		}
	}

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	st := replicaStats{simUS: newSampler()}
	deadline := time.Now().Add(d)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan replicaRec, 1) // as serve's handler: the worker never blocks on it
			for time.Now().Before(deadline) {
				var rc replicaRec
				if err := pool.TrySubmit(handler(time.Now(), done)); err != nil {
					rc.err = err // cannot happen: serveConns in flight, a deeper queue
				} else {
					rc = <-done
				}
				recv := time.Now()
				if rc.err != nil || rc.status != http.StatusOK {
					s.chk.t.fail("replica request: status %d, %v", rc.status, rc.err)
					continue
				}
				s.chk.checkSim(simText(rc.simUS))
				mu.Lock()
				st.n++
				op := st.n
				st.counts.addDelta(rc.c, counters{})
				st.serveNS += int64(rc.serve)
				st.simUS.add(math.Round(rc.simUS*1e3) / 1e3)
				st.frames += int64(rc.frames)
				mu.Unlock()
				spans.record(op, "serve.handleServe", "", rc.submit, recv.Sub(rc.submit))
				spans.record(op, "fleet.queue_wait", "serve.handleServe", rc.submit, rc.queue)
				if s.clone {
					spans.record(op, "fleet.ClonePool.Take", "serve.handleServe", rc.submit.Add(rc.queue), rc.take)
					spans.record(op, "fleet.ClonePool.Discard", "serve.handleServe", rc.sent.Add(-rc.disc), rc.disc)
				}
				spans.record(op, "webserver.ServeRequest", "serve.handleServe", rc.submit.Add(rc.queue+rc.take), rc.serve)
				spans.record(op, "serve.refresh_counters", "serve.handleServe", rc.submit.Add(rc.queue+rc.take+rc.serve), rc.refresh)
				spans.record(op, "fleet.handoff", "serve.handleServe", rc.sent, recv.Sub(rc.sent))
			}
		}()
	}
	wg.Wait()
	return st, nil
}
