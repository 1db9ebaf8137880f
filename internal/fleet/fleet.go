// Package fleet runs requests on a pool of Palladium machines. A
// caller checks a machine out, runs its request on its own goroutine
// and hands the machine back, so the pool has no goroutines of its
// own. The caller supplies each worker's machine; the serving daemon
// (internal/serve) gives every worker a clone of one template machine.
//
// The isolation argument is machine-per-request ownership: a checked
// out machine (its own core.System, kernel, MMU, TLB, physical memory
// and clock) belongs to exactly one request until it is handed back,
// so no simulator state is ever touched by two goroutines at once and
// the simulated metrics of each machine are bit-identical to what the
// same machine would produce serving alone. The pool only adds
// bookkeeping around the machines: a bound on requests in flight,
// per-worker and aggregate statistics, panic containment, and a drain
// that never drops an admitted request.
package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Machine is the constraint for pooled simulated machines: the pool
// reads the machine's simulated clock around every request to
// attribute simulated cycles to workers.
type Machine interface {
	// SimCycles returns the machine's simulated clock reading.
	SimCycles() float64
}

// Request is one unit of work executed on a checked-out machine; the
// worker index identifies that machine.
type Request[M Machine] func(worker int, m M) error

// ErrClosed reports a submission after Close. A SubmitTo blocked at
// the in-flight bound when Close arrives is woken and returns ErrClosed
// too.
var ErrClosed = errors.New("fleet: pool is closed")

// ErrBackpressure reports a TrySubmit refused because the in-flight
// bound is reached. The serving tier maps it to a typed
// sandbox.Fault{Class: Backpressure} and HTTP 503.
var ErrBackpressure = errors.New("fleet: submission queue full")

// ErrPanicked reports a request that panicked. The request counts as
// failed, and the machine it ran on is replaced by a freshly booted one.
var ErrPanicked = errors.New("fleet: request panicked")

// Config sizes a pool.
type Config struct {
	// Workers is the number of machines to boot (default 1).
	Workers int
	// Queue bounds the admitted-but-unfinished requests, running or
	// waiting for a machine; SubmitTo blocks and TrySubmit refuses
	// while the bound is reached (default 4*Workers).
	Queue int
}

// WorkerStats are one worker's counters, totals since boot.
type WorkerStats struct {
	Worker int
	// Requests is the number of requests run on this worker's machine.
	Requests uint64
	// Errors counts requests that returned an error or panicked.
	Errors uint64
	// SimCycles is the simulated cycles charged to this worker's
	// machine while executing requests.
	SimCycles float64
	// Retired reports that the worker has been removed from the pool
	// (RemoveMachine, or a panic whose replacement failed to boot): it
	// serves nothing further, but its counters stay in every snapshot
	// so pool totals remain conservation-exact across scale-downs.
	Retired bool
	// Busy is the wall-clock time spent executing requests.
	Busy time.Duration
}

// Stats is a snapshot of the whole pool.
type Stats struct {
	Workers []WorkerStats
	// Sums of the per-worker fields.
	Requests  uint64
	Errors    uint64
	SimCycles float64
	Busy      time.Duration
	// QueueHighWater is the most requests that waited for a machine at
	// once: since boot in Pool.Stats snapshots, since BeginRun in
	// Run.Stats ones.
	QueueHighWater int
	// Steals always reads 0: a request runs on the machine it checks
	// out, so there is nothing to steal. It stays because bench/serve.go
	// still reads it.
	Steals uint64
}

func (s *Stats) sum() {
	for _, w := range s.Workers {
		s.Requests += w.Requests
		s.Errors += w.Errors
		s.SimCycles += w.SimCycles
		s.Busy += w.Busy
	}
}

// slot is one worker: its machine and whether a request holds it.
type slot[M Machine] struct {
	m      M
	held   bool
	pinned int  // SubmitTo callers admitted and waiting for this machine
	lost   bool // a panic left no machine: the replacement failed to boot
	stats  WorkerStats
}

// Pool is a set of machines that requests check out one at a time.
type Pool[M Machine] struct {
	boot  func(worker int) (M, error) // boots worker machines and replaces panicked ones
	bound int

	mu      sync.Mutex
	changed *sync.Cond // a machine or an in-flight slot came free, or the pool is closing

	slots    []slot[M]
	free     []int // live workers no request holds, most recently released last
	live     int   // workers not retired
	inflight int   // admitted requests, running or waiting for a machine
	waiting  int   // admitted requests waiting for a machine
	high     int   // waiting high water since boot
	runHigh  int   // waiting high water since BeginRun
	epoch    uint64
	closing  bool
}

// New boots cfg.Workers machines, sequentially so boot-time frame and
// address allocations are deterministic per worker index. boot also
// replaces the machine of any request that panics.
func New[M Machine](cfg Config, boot func(worker int) (M, error)) (*Pool[M], error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	p := &Pool[M]{boot: boot, bound: cfg.Queue}
	p.changed = sync.NewCond(&p.mu)
	for w := 0; w < cfg.Workers; w++ {
		m, err := boot(w)
		if err != nil {
			return nil, fmt.Errorf("fleet: booting machine %d: %w", w, err)
		}
		p.addLocked(m)
	}
	return p, nil
}

func (p *Pool[M]) addLocked(m M) int {
	w := len(p.slots)
	p.slots = append(p.slots, slot[M]{m: m, stats: WorkerStats{Worker: w}})
	p.free = append(p.free, w)
	p.live++
	return w
}

// AddMachine grows a live pool by one worker owning machine m and
// returns the new worker's index. The serving tier's autoscaler uses
// it with a clone of a pristine template machine, so a scaled-up
// worker's simulated state is bit-identical to a boot-time worker's.
// The machine is free for the next request at once.
func (p *Pool[M]) AddMachine(m M) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closing {
		return 0, ErrClosed
	}
	w := p.addLocked(m)
	p.changed.Broadcast()
	return w, nil
}

// RemoveMachine retires worker w: no new request checks it out, the
// requests already admitted for it by SubmitTo still run on it
// (accepted work is never dropped, so conservation of requests is
// exact across a scale-down), and RemoveMachine blocks until the last
// of them hands it back. It then returns the machine to the caller,
// who owns it exclusively (an ephemeral-clone tier must release its
// frame references; see mem.Physical.Release). The worker's statistics
// remain in every later Stats snapshot, flagged Retired. The last live
// worker cannot be removed.
func (p *Pool[M]) RemoveMachine(w int) (M, error) {
	var zero M
	p.mu.Lock()
	defer p.mu.Unlock()
	if w < 0 || w >= len(p.slots) {
		return zero, fmt.Errorf("fleet: no worker %d", w)
	}
	if p.closing {
		return zero, ErrClosed
	}
	s := &p.slots[w]
	if s.stats.Retired {
		return zero, fmt.Errorf("fleet: worker %d already retired", w)
	}
	if p.live <= 1 {
		return zero, fmt.Errorf("fleet: cannot retire the last live worker")
	}
	p.retireLocked(w)
	for p.slots[w].held || p.slots[w].pinned > 0 {
		p.changed.Wait()
	}
	s = &p.slots[w]
	if s.lost {
		return zero, fmt.Errorf("fleet: worker %d lost its machine to a panic", w)
	}
	m := s.m
	s.m = zero // the pool drops its reference; the caller owns m
	return m, nil
}

func (p *Pool[M]) retireLocked(w int) {
	p.slots[w].stats.Retired = true
	p.live--
	if i := slices.Index(p.free, w); i >= 0 {
		p.free = slices.Delete(p.free, i, i+1)
	}
	p.changed.Broadcast()
}

// LiveWorkers lists the indices of workers that have not been retired,
// in ascending order.
func (p *Pool[M]) LiveWorkers() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, p.live)
	for w := range p.slots {
		if !p.slots[w].stats.Retired {
			out = append(out, w)
		}
	}
	return out
}

// Workers returns the number of live (non-retired) workers. Under
// autoscaling it can change between calls in either direction.
func (p *Pool[M]) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// TotalWorkers returns how many workers the pool has ever had; worker
// indices run [0, TotalWorkers) and retired ones keep theirs.
func (p *Pool[M]) TotalWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}

// Inflight reports the number of admitted requests, running or waiting
// for a machine; the serving tier's autoscaler samples it as queue
// depth.
func (p *Pool[M]) Inflight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

// Bound reports the in-flight bound.
func (p *Pool[M]) Bound() int { return p.bound }

// TrySubmit is the serving tier's admission path. It refuses at once
// with ErrBackpressure when the in-flight bound is reached, instead of
// queueing the caller behind capacity the pool does not have.
// Otherwise it waits for any free live machine, runs req on it on the
// calling goroutine and returns once req has run. It returns
// ErrPanicked if req panicked; the request's own error is counted in
// Stats.Errors, not returned.
func (p *Pool[M]) TrySubmit(req Request[M]) error {
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.inflight >= p.bound {
		p.mu.Unlock()
		return ErrBackpressure
	}
	return p.exec(-1, req)
}

// SubmitTo runs req on worker w's machine, blocking while the in-flight
// bound is reached and then until the machine is free. It returns as
// TrySubmit does, once req has run. Simulated placement is thus
// decided by the caller, not by host scheduling, and one caller's
// pinned requests run in the order it submits them.
func (p *Pool[M]) SubmitTo(w int, req Request[M]) error {
	p.mu.Lock()
	for p.inflight >= p.bound && !p.closing {
		p.changed.Wait()
	}
	var err error
	switch {
	case p.closing:
		err = ErrClosed
	case w < 0 || w >= len(p.slots):
		err = fmt.Errorf("fleet: no worker %d", w)
	case p.slots[w].stats.Retired:
		err = fmt.Errorf("fleet: worker %d retired", w)
	}
	if err != nil {
		p.mu.Unlock()
		return err
	}
	return p.exec(w, req)
}

// exec admits req, checks out worker want's machine (any free live one
// when want < 0), runs req on the calling goroutine and hands the
// machine back. It is called with p.mu held and returns with it
// released. This is the pool's one execution path.
func (p *Pool[M]) exec(want int, req Request[M]) (err error) {
	p.inflight++
	w, err := p.checkoutLocked(want)
	if err != nil {
		p.inflight--
		p.changed.Broadcast()
		p.mu.Unlock()
		return err
	}
	m := p.slots[w].m
	p.mu.Unlock()

	start := time.Now()
	var cycles float64
	var reqErr error
	done := false
	defer func() {
		if !done {
			// The request panicked, leaving m in whatever state it had
			// reached: it fails, and m is quarantined.
			reqErr = fmt.Errorf("%w on worker %d: %v", ErrPanicked, w, recover())
			err = reqErr
		}
		p.checkin(w, time.Since(start), cycles, reqErr, !done)
	}()
	before := m.SimCycles()
	reqErr = req(w, m)
	cycles, done = m.SimCycles()-before, true
	return nil
}

// checkoutLocked waits until worker want's machine (any live machine
// when want < 0) is free and marks it held.
func (p *Pool[M]) checkoutLocked(want int) (int, error) {
	waited := false
	defer func() {
		if waited {
			p.waiting--
			if want >= 0 {
				p.slots[want].pinned--
			}
		}
	}()
	for {
		w := -1
		switch {
		case want >= 0 && p.slots[want].lost:
			return 0, fmt.Errorf("fleet: worker %d lost its machine to a panic", want)
		case want >= 0 && !p.slots[want].held:
			w = want
			if i := slices.Index(p.free, w); i >= 0 {
				p.free = slices.Delete(p.free, i, i+1)
			}
		case want < 0 && len(p.free) > 0:
			w = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
		case want < 0 && p.live == 0:
			return 0, errors.New("fleet: no live machine")
		}
		if w >= 0 {
			p.slots[w].held = true
			return w, nil
		}
		if !waited {
			waited = true
			p.waiting++
			p.high = max(p.high, p.waiting)
			p.runHigh = max(p.runHigh, p.waiting)
			if want >= 0 {
				p.slots[want].pinned++
			}
		}
		p.changed.Wait()
	}
}

// checkin hands worker w's machine back after a request and records
// it. A quarantined machine never goes back: the pool's boot function
// replaces it, and if that fails the worker retires.
func (p *Pool[M]) checkin(w int, busy time.Duration, cycles float64, reqErr error, quarantine bool) {
	var fresh M
	var bootErr error
	if quarantine {
		fresh, bootErr = p.boot(w)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.slots[w]
	s.stats.Requests++
	s.stats.Busy += busy
	s.stats.SimCycles += cycles
	if reqErr != nil {
		s.stats.Errors++
	}
	if quarantine {
		s.m = fresh
	}
	s.held = false
	switch {
	case bootErr != nil:
		s.lost = true
		if !s.stats.Retired {
			p.retireLocked(w)
		}
	case !s.stats.Retired:
		p.free = append(p.free, w)
	}
	p.inflight--
	p.changed.Broadcast()
}

// Drain blocks until every admitted request has finished. The pool
// stays open for further submissions.
func (p *Pool[M]) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inflight > 0 {
		p.changed.Wait()
	}
}

// Stats snapshots per-worker and aggregate counters. All counters are
// totals since boot; measurement code that needs per-run values uses
// BeginRun/Run.Stats instead of diffing two cumulative snapshots
// (which cannot recover a per-run high water).
func (p *Pool[M]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statsLocked()
}

func (p *Pool[M]) statsLocked() Stats {
	s := Stats{Workers: make([]WorkerStats, len(p.slots)), QueueHighWater: p.high}
	for w := range p.slots {
		s.Workers[w] = p.slots[w].stats
	}
	s.sum()
	return s
}

// Run scopes one measurement run: Stats reports deltas since the
// BeginRun that created it, not pool-lifetime totals.
type Run[M Machine] struct {
	p     *Pool[M]
	epoch uint64
	base  []WorkerStats
}

// BeginRun starts a new measurement run: it snapshots the cumulative
// counters and restarts the per-run high water from the requests
// waiting now. Only one run is tracked at a time: a later BeginRun
// ends high-water tracking for earlier handles.
func (p *Pool[M]) BeginRun() *Run[M] {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	p.runHigh = p.waiting
	return &Run[M]{p: p, epoch: p.epoch, base: p.statsLocked().Workers}
}

// Stats reports per-run deltas: requests, errors, simulated cycles and
// busy time since BeginRun, and the run's high water. Workers added
// after BeginRun (autoscaling) report their full counters, since their
// base is zero. If a newer BeginRun has superseded this run, the
// counter deltas remain correct but the high water is zeroed rather
// than silently reporting the newer run's tracking.
func (r *Run[M]) Stats() Stats {
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.statsLocked()
	for w := range r.base {
		ws, b := &s.Workers[w], r.base[w]
		ws.Requests -= b.Requests
		ws.Errors -= b.Errors
		ws.SimCycles -= b.SimCycles
		ws.Busy -= b.Busy
	}
	s.Requests, s.Errors, s.SimCycles, s.Busy = 0, 0, 0, 0
	s.sum()
	s.QueueHighWater = 0
	if r.epoch == p.epoch {
		s.QueueHighWater = p.runHigh
	}
	return s
}

// Close waits for every admitted request to finish, refuses further
// submissions, and returns the final statistics; a request's own error
// is counted in Stats.Errors, not returned. Submissions racing with
// Close either complete or return ErrClosed, and submitters blocked at
// the in-flight bound are woken with ErrClosed.
func (p *Pool[M]) Close() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closing = true
	p.changed.Broadcast()
	for p.inflight > 0 {
		p.changed.Wait()
	}
	return p.statsLocked()
}
