// Package fleet runs a pool of Palladium machines behind a
// work-stealing request dispatcher, turning the one-machine-at-a-time
// reproduction into a concurrent serving tier. The caller supplies
// each worker's machine; the serving daemon (internal/serve) gives
// every worker a clone of one template machine.
//
// The isolation argument is machine-per-worker ownership: every worker
// goroutine exclusively owns one complete simulated machine (its own
// core.System, kernel, MMU, TLB, physical memory and clock), so no
// simulator state is ever shared between goroutines and the simulated
// metrics of each machine are bit-identical to what the same machine
// would produce serving alone. The pool only adds scheduling around
// the machines: a bounded submission queue, per-worker run queues with
// idle-worker stealing, per-worker and aggregate statistics, and a
// graceful drain that never drops an accepted request.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Machine is the constraint for worker-owned simulated machines: the
// pool reads the machine's simulated clock around every request to
// attribute simulated cycles to workers.
type Machine interface {
	// SimCycles returns the machine's simulated clock reading.
	SimCycles() float64
}

// Request is one unit of work executed on a worker-owned machine. The
// worker index identifies the machine the request actually ran on
// (which, under stealing, may differ from the submission target).
type Request[M Machine] func(worker int, m M) error

// ErrClosed reports a submission after Close. A SubmitTo blocked on a
// full queue when Close arrives is woken and returns ErrClosed too,
// rather than being stranded against a queue no worker will ever
// drain.
var ErrClosed = errors.New("fleet: pool is closed")

// ErrBackpressure reports a TrySubmit refused because the submission
// bound is reached. The serving tier maps it to a typed
// sandbox.Fault{Class: Backpressure} and HTTP 503.
var ErrBackpressure = errors.New("fleet: submission queue full")

// Config sizes a pool.
type Config struct {
	// Workers is the number of machines to boot (default 1).
	Workers int
	// Queue bounds the number of accepted-but-unfinished requests;
	// SubmitTo blocks and TrySubmit refuses while the bound is reached
	// (default 4*Workers).
	Queue int
}

// WorkerStats are one worker's counters. All fields are totals since
// boot; Stats aggregates them by summation (QueueHighWater by max).
type WorkerStats struct {
	Worker int
	// Requests is the number of requests this worker executed.
	Requests uint64
	// Errors counts requests whose handler returned an error.
	Errors uint64
	// Steals counts requests this worker took from another worker's
	// queue while its own was empty.
	Steals uint64
	// SimCycles is the simulated cycles charged to this worker's
	// machine while executing requests.
	SimCycles float64
	// Retired reports that the worker has been removed from the pool
	// (RemoveMachine): it serves nothing further, but its counters stay
	// in every snapshot so pool totals remain conservation-exact across
	// scale-downs.
	Retired bool
	// Busy is the wall-clock time spent executing requests.
	Busy time.Duration
	// QueueHighWater is the deepest this worker's run queue got: since
	// boot in Pool.Stats snapshots, since BeginRun in Run.Stats ones.
	QueueHighWater int
}

// Stats is a snapshot of the whole pool.
type Stats struct {
	Workers []WorkerStats
	// Aggregates: sums of the per-worker fields (QueueHighWater is
	// the max across workers).
	Requests       uint64
	Errors         uint64
	Steals         uint64
	SimCycles      float64
	Busy           time.Duration
	QueueHighWater int
}

// aggregate recomputes the summary fields from Workers.
func (s *Stats) aggregate() {
	s.Requests, s.Errors, s.Steals, s.SimCycles, s.Busy, s.QueueHighWater = 0, 0, 0, 0, 0, 0
	for _, w := range s.Workers {
		s.Requests += w.Requests
		s.Errors += w.Errors
		s.Steals += w.Steals
		s.SimCycles += w.SimCycles
		s.Busy += w.Busy
		if w.QueueHighWater > s.QueueHighWater {
			s.QueueHighWater = w.QueueHighWater
		}
	}
}

// item is one queued request. Pinned items model the fleet's load
// balancer assigning a request to a specific machine: they may only
// run on their queue's worker (a steal would change which simulated
// machine's clock the request charges, making simulated placement
// depend on host scheduling).
type item[M Machine] struct {
	req    Request[M]
	pinned bool
}

// ring is a growable circular queue of items. The buffer is allocated
// once (pre-sized to the submission bound) and reused, so steady-state
// submit/take cycles allocate nothing — the slice-append queues this
// replaces reallocated continuously because popping from the front
// discards capacity.
type ring[M Machine] struct {
	buf  []item[M]
	head int
	n    int
}

func (r *ring[M]) len() int { return r.n }

func (r *ring[M]) at(i int) *item[M] { return &r.buf[(r.head+i)%len(r.buf)] }

func (r *ring[M]) push(it item[M]) {
	if r.n == len(r.buf) {
		nb := make([]item[M], max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			nb[i] = *r.at(i)
		}
		r.buf, r.head = nb, 0
	}
	*r.at(r.n) = it
	r.n++
}

func (r *ring[M]) popFront() item[M] {
	it := r.buf[r.head]
	r.buf[r.head] = item[M]{} // release the closure reference
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return it
}

// removeAt deletes logical index i in place, shifting the shorter
// side (the dispatcher steals the newest stealable item, so this is
// normally a shift of zero or one element).
func (r *ring[M]) removeAt(i int) item[M] {
	it := *r.at(i)
	if i <= r.n-1-i {
		for j := i; j > 0; j-- {
			*r.at(j) = *r.at(j - 1)
		}
		r.buf[r.head] = item[M]{}
		r.head = (r.head + 1) % len(r.buf)
	} else {
		for j := i; j < r.n-1; j++ {
			*r.at(j) = *r.at(j + 1)
		}
		*r.at(r.n - 1) = item[M]{}
	}
	r.n--
	return it
}

// Pool is a fleet of worker-owned machines behind a work-stealing
// dispatcher.
type Pool[M Machine] struct {
	mu    sync.Mutex
	work  *sync.Cond // work arrived (or the pool is closing)
	space *sync.Cond // the submission bound has room again
	idle  *sync.Cond // all accepted requests finished

	queues   []ring[M]
	inflight int // accepted (queued or running) requests
	next     int // round-robin submission cursor
	bound    int
	closing  bool

	machines []M
	retired  []bool // worker has been told to retire (RemoveMachine)
	exited   []bool // worker goroutine has finished draining and left
	gone     *sync.Cond
	live     int // workers not retired
	stats    []WorkerStats
	epoch    uint64 // bumped by BeginRun; scopes the run tracking
	runHigh  []int  // per-worker queue high water for the current run
	wg       sync.WaitGroup
}

// New boots cfg.Workers machines (sequentially, so boot-time frame and
// address allocations are deterministic per worker index) and starts
// one goroutine per machine.
func New[M Machine](cfg Config, boot func(worker int) (M, error)) (*Pool[M], error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	p := &Pool[M]{
		queues:   make([]ring[M], cfg.Workers),
		bound:    cfg.Queue,
		machines: make([]M, cfg.Workers),
		retired:  make([]bool, cfg.Workers),
		exited:   make([]bool, cfg.Workers),
		live:     cfg.Workers,
		stats:    make([]WorkerStats, cfg.Workers),
		runHigh:  make([]int, cfg.Workers),
	}
	for w := range p.queues {
		// Pre-size to the submission bound: no queue can hold more
		// than `bound` items, so steady-state submission never grows.
		p.queues[w].buf = make([]item[M], cfg.Queue)
	}
	p.work = sync.NewCond(&p.mu)
	p.space = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	p.gone = sync.NewCond(&p.mu)
	for w := 0; w < cfg.Workers; w++ {
		m, err := boot(w)
		if err != nil {
			return nil, fmt.Errorf("fleet: booting machine %d: %w", w, err)
		}
		p.machines[w] = m
		p.stats[w] = WorkerStats{Worker: w}
	}
	p.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go p.run(w, p.machines[w])
	}
	return p, nil
}

// AddMachine grows a live pool by one worker owning machine m and
// returns the new worker's index. The serving tier's autoscaler uses
// it with a clone of a pristine template machine, so a scaled-up
// worker's simulated state is bit-identical to a boot-time worker's.
// Existing queues, in-flight requests and statistics are untouched;
// balanced submissions start landing on the new worker immediately.
func (p *Pool[M]) AddMachine(m M) (int, error) {
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return 0, ErrClosed
	}
	w := len(p.machines)
	p.machines = append(p.machines, m)
	p.retired = append(p.retired, false)
	p.exited = append(p.exited, false)
	p.live++
	p.stats = append(p.stats, WorkerStats{Worker: w})
	p.queues = append(p.queues, ring[M]{buf: make([]item[M], p.bound)})
	p.runHigh = append(p.runHigh, 0)
	p.wg.Add(1)
	p.mu.Unlock()
	go p.run(w, m)
	return w, nil
}

// RemoveMachine retires worker w: balanced submissions stop landing on
// it immediately, it drains whatever its queue already holds (accepted
// work is never dropped — conservation of requests is exact across a
// scale-down), and once empty its goroutine exits. RemoveMachine
// blocks until the drain completes, then returns the machine to the
// caller, who now owns it exclusively (an ephemeral-clone tier must
// release its frame references; see mem.Physical.Release). The
// worker's statistics remain in every later Stats snapshot, flagged
// Retired. The last live worker cannot be removed.
func (p *Pool[M]) RemoveMachine(w int) (M, error) {
	var zero M
	p.mu.Lock()
	defer p.mu.Unlock()
	if w < 0 || w >= len(p.machines) {
		return zero, fmt.Errorf("fleet: no worker %d", w)
	}
	if p.closing {
		return zero, ErrClosed
	}
	if p.retired[w] {
		return zero, fmt.Errorf("fleet: worker %d already retired", w)
	}
	if p.live <= 1 {
		return zero, fmt.Errorf("fleet: cannot retire the last live worker")
	}
	p.retired[w] = true
	p.live--
	p.stats[w].Retired = true
	p.work.Broadcast() // wake w (and stealers of its queue)
	for !p.exited[w] {
		p.gone.Wait()
	}
	m := p.machines[w]
	p.machines[w] = zero // the pool drops its reference; caller owns m
	return m, nil
}

// LiveWorkers lists the indices of workers that have not been retired,
// in ascending order.
func (p *Pool[M]) LiveWorkers() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, p.live)
	for w, r := range p.retired {
		if !r {
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
	return len(p.machines)
}

// Inflight reports the number of accepted (queued or running)
// requests; the serving tier's autoscaler samples it as queue depth.
func (p *Pool[M]) Inflight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

// Bound reports the submission bound.
func (p *Pool[M]) Bound() int { return p.bound }

// TrySubmit is the serving tier's admission path: the request is
// placed round-robin on a live worker's run queue, where an idle
// worker may steal it, and a full queue refuses immediately with
// ErrBackpressure instead of queueing the caller behind capacity the
// pool does not have.
func (p *Pool[M]) TrySubmit(req Request[M]) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closing {
		return ErrClosed
	}
	if p.inflight >= p.bound {
		return ErrBackpressure
	}
	for {
		t := p.next % len(p.queues)
		p.next++
		if !p.retired[t] {
			p.enqueueLocked(t, item[M]{req: req})
			return nil
		}
	}
}

// SubmitTo places a request on worker w's queue pinned to its machine,
// blocking while the submission bound is reached: only that worker
// executes it, so simulated placement is decided by the caller's
// balancing policy, not by host scheduling.
func (p *Pool[M]) SubmitTo(w int, req Request[M]) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inflight >= p.bound && !p.closing {
		p.space.Wait()
	}
	if p.closing {
		return ErrClosed
	}
	if w < 0 || w >= len(p.machines) {
		return fmt.Errorf("fleet: no worker %d", w)
	}
	if p.retired[w] {
		return fmt.Errorf("fleet: worker %d retired", w)
	}
	p.enqueueLocked(w, item[M]{req: req, pinned: true})
	return nil
}

func (p *Pool[M]) enqueueLocked(w int, it item[M]) {
	p.queues[w].push(it)
	p.inflight++
	if n := p.queues[w].len(); n > p.stats[w].QueueHighWater {
		p.stats[w].QueueHighWater = n
	}
	if n := p.queues[w].len(); n > p.runHigh[w] {
		p.runHigh[w] = n
	}
	// Broadcast, not Signal: a pinned item must wake its owner, and
	// Signal could wake only a worker that cannot take it.
	p.work.Broadcast()
}

// take returns the next request for worker w: its own queue first
// (FIFO), then a steal of the newest stealable item from the most
// loaded other queue that has one. It blocks while no eligible work
// exists and reports false once the pool is closing and no work
// remains for this worker (so every accepted request is executed).
func (p *Pool[M]) take(w int) (Request[M], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.queues[w].len() > 0 {
			return p.queues[w].popFront().req, true
		}
		if p.retired[w] {
			// Queue drained: the retiring worker leaves without
			// stealing (its machine is about to be handed back).
			return nil, false
		}
		victim, at, depth := -1, -1, 0
		for v := range p.queues {
			q := &p.queues[v]
			if v == w || q.len() <= depth {
				continue
			}
			for i := q.len() - 1; i >= 0; i-- {
				if !q.at(i).pinned {
					victim, at, depth = v, i, q.len()
					break
				}
			}
		}
		if victim >= 0 {
			req := p.queues[victim].removeAt(at).req
			p.stats[w].Steals++
			return req, true
		}
		if p.closing {
			return nil, false
		}
		p.work.Wait()
	}
}

// run is the worker loop: it exclusively owns machine m (worker w).
// The machine is passed in rather than re-read from p.machines so the
// loop never touches the slice header AddMachine may be growing.
func (p *Pool[M]) run(w int, m M) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		p.exited[w] = true
		p.gone.Broadcast()
		p.mu.Unlock()
	}()
	for {
		req, ok := p.take(w)
		if !ok {
			return
		}
		start := time.Now()
		before := m.SimCycles()
		err := req(w, m)
		busy := time.Since(start)
		after := m.SimCycles()

		p.mu.Lock()
		st := &p.stats[w]
		st.Requests++
		st.Busy += busy
		st.SimCycles += after - before
		if err != nil {
			st.Errors++
		}
		p.inflight--
		if p.inflight == 0 {
			p.idle.Broadcast()
		}
		p.space.Signal()
		p.mu.Unlock()
	}
}

// Drain blocks until every accepted request has finished. The pool
// stays open for further submissions.
func (p *Pool[M]) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inflight > 0 {
		p.idle.Wait()
	}
}

// Stats snapshots per-worker and aggregate counters. All counters are
// totals since boot; measurement code that needs per-run values uses
// BeginRun/Run.Stats instead of diffing two cumulative snapshots
// (which cannot recover a per-run queue high water).
func (p *Pool[M]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statsLocked()
}

func (p *Pool[M]) statsLocked() Stats {
	s := Stats{Workers: append([]WorkerStats(nil), p.stats...)}
	s.aggregate()
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
// counters and resets the pool's per-run queue high water. Only one
// run is tracked at a time — a later BeginRun ends high-water tracking
// for earlier handles — and runs are expected to begin while the pool
// is quiescent (after Drain), as the measurement harnesses do.
func (p *Pool[M]) BeginRun() *Run[M] {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	for w := range p.runHigh {
		// Anything already queued counts toward this run's high water.
		p.runHigh[w] = p.queues[w].len()
	}
	return &Run[M]{p: p, epoch: p.epoch, base: append([]WorkerStats(nil), p.stats...)}
}

// Stats reports per-run deltas: requests, errors, steals, simulated
// cycles and busy time since BeginRun, and the run's queue high water.
// Workers added after BeginRun (autoscaling) report their full
// counters, since their base is zero. If a newer BeginRun has
// superseded this run, the counter deltas remain correct but the
// high-water marks are zeroed rather than silently reporting the newer
// run's tracking.
func (r *Run[M]) Stats() Stats {
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{Workers: make([]WorkerStats, len(p.stats))}
	for w := range p.stats {
		ws := p.stats[w]
		if w < len(r.base) {
			b := r.base[w]
			ws.Requests -= b.Requests
			ws.Errors -= b.Errors
			ws.Steals -= b.Steals
			ws.SimCycles -= b.SimCycles
			ws.Busy -= b.Busy
		}
		ws.QueueHighWater = 0
		if r.epoch == p.epoch {
			ws.QueueHighWater = p.runHigh[w]
		}
		s.Workers[w] = ws
	}
	s.aggregate()
	return s
}

// Close executes every already-accepted request, stops the workers,
// and returns the final statistics; a request's own error is counted
// in Stats.Errors, not returned. Submissions racing with Close either
// complete or return ErrClosed; accepted ones are never dropped, and
// submitters blocked on a full queue are woken with ErrClosed.
func (p *Pool[M]) Close() Stats {
	p.mu.Lock()
	if !p.closing {
		p.closing = true
		p.work.Broadcast()
		p.space.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statsLocked()
}
