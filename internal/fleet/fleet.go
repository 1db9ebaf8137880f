// Package fleet runs a pool of independently booted Palladium
// machines behind a work-stealing request dispatcher, turning the
// one-machine-at-a-time reproduction into a concurrent serving tier.
//
// The isolation argument is machine-per-worker ownership: every worker
// goroutine boots and exclusively owns one complete simulated machine
// (its own core.System, kernel, MMU, TLB, physical memory and clock),
// so no simulator state is ever shared between goroutines and the
// simulated metrics of each machine are bit-identical to what the same
// machine would produce serving alone. The pool only adds scheduling
// around the machines: a bounded submission queue, per-worker run
// queues with idle-worker stealing, per-worker and aggregate
// statistics, and a graceful drain that never drops an accepted
// request.
package fleet

import (
	"context"
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

// ErrClosed reports a Submit after Close. A Submit blocked on a full
// queue when Close arrives is woken and returns ErrClosed too, rather
// than being stranded against a queue no worker will ever drain.
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
	// Submit blocks while the bound is reached (default 4*Workers).
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
	// BootCycles is the machine's simulated clock reading right after
	// boot, before any request ran.
	BootCycles float64
	// Busy is the wall-clock time spent executing requests.
	Busy time.Duration
	// QueueHighWater is the deepest this worker's run queue got: since
	// boot in Pool.Stats snapshots, since BeginRun in Run.Stats ones.
	QueueHighWater int
	// SpanCycles and SpanSeconds are per-run serving spans, populated
	// only by Run.Stats: the machine's simulated clock span and the
	// host wall-clock span from just before this worker's first served
	// request of the run to just after its last. Workers that join the
	// pool mid-run (autoscaling) get a correct local span rather than
	// inheriting the run's global start. Zero in cumulative Pool.Stats
	// snapshots and for workers that served nothing this run.
	SpanCycles  float64
	SpanSeconds float64
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
// Submit/take cycles allocate nothing — the slice-append queues this
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
	epoch    uint64     // bumped by BeginRun; scopes the run tracking
	runs     []runTrack // per-worker tracking for the current run
	firstErr error
	wg       sync.WaitGroup
}

// runTrack is the pool's per-worker bookkeeping for the current
// measurement run (see BeginRun): how many requests the worker served
// this run, the simulated-clock and wall-clock readings bracketing its
// first and last served request, and the run-local queue high water.
type runTrack struct {
	served    uint64
	spanStart float64 // machine clock just before the first request
	spanEnd   float64 // machine clock just after the latest request
	firstWall time.Time
	lastWall  time.Time
	highWater int
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
		runs:     make([]runTrack, cfg.Workers),
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
		p.stats[w] = WorkerStats{Worker: w, BootCycles: m.SimCycles()}
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
	p.stats = append(p.stats, WorkerStats{Worker: w, BootCycles: m.SimCycles()})
	p.queues = append(p.queues, ring[M]{buf: make([]item[M], p.bound)})
	p.runs = append(p.runs, runTrack{})
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

// NewFromTemplate boots ONE template machine and derives the other
// workers by cloning it, replacing cfg.Workers serial boots with a
// single boot plus cfg.Workers-1 clones. The template itself serves as
// worker 0. Because a clone's simulated state is bit-identical to its
// source's, a clone-booted fleet serves exactly as a serially booted
// one — the only difference is wall-clock boot time. All clones are
// taken up front, before any worker goroutine starts, so the template
// is quiescent while cloned.
func NewFromTemplate[M Machine](cfg Config, bootTemplate func() (M, error), clone func(worker int, template M) (M, error)) (*Pool[M], error) {
	tmpl, err := bootTemplate()
	if err != nil {
		return nil, fmt.Errorf("fleet: booting template machine: %w", err)
	}
	return New(cfg, func(w int) (M, error) {
		if w == 0 {
			return tmpl, nil
		}
		return clone(w, tmpl)
	})
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

// Submit hands a request to the dispatcher, blocking while the
// submission bound is reached. Requests are placed round-robin on the
// worker run queues; idle workers steal from the longest queue.
func (p *Pool[M]) Submit(req Request[M]) error {
	return p.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with cancellation: a submitter blocked on a full
// queue returns ctx.Err() once ctx is done (and ErrClosed if the pool
// closes first). An accepted request is never revoked by a later
// cancellation of ctx.
func (p *Pool[M]) SubmitCtx(ctx context.Context, req Request[M]) error {
	return p.submit(ctx, balanced, item[M]{req: req})
}

// TrySubmit is the non-blocking Submit used for admission control: a
// full queue refuses immediately with ErrBackpressure instead of
// queueing the caller behind capacity the pool does not have.
func (p *Pool[M]) TrySubmit(req Request[M]) error {
	return p.trySubmit(balanced, item[M]{req: req})
}

// SubmitTo places a request on worker w's queue pinned to its machine:
// only that worker executes it, so simulated placement is decided by
// the caller's balancing policy, not by host scheduling. Capacity
// measurements use this; wall-clock workloads use Submit and let idle
// workers steal.
func (p *Pool[M]) SubmitTo(w int, req Request[M]) error {
	return p.submit(context.Background(), w, item[M]{req: req, pinned: true})
}

// TrySubmitTo is the non-blocking SubmitTo: pinned placement with
// ErrBackpressure instead of blocking at the bound.
func (p *Pool[M]) TrySubmitTo(w int, req Request[M]) error {
	return p.trySubmit(w, item[M]{req: req, pinned: true})
}

// balanced marks a submission with no pinned worker: the target is
// picked round-robin over live workers at enqueue time, so a worker
// retiring while a submitter waits for space never receives new work.
const balanced = -1

// targetLocked resolves a submission target. Caller holds p.mu.
func (p *Pool[M]) targetLocked(w int) (int, error) {
	if w == balanced {
		for {
			t := p.next % len(p.queues)
			p.next++
			if !p.retired[t] {
				return t, nil
			}
		}
	}
	if w < 0 || w >= len(p.machines) {
		return 0, fmt.Errorf("fleet: no worker %d", w)
	}
	if p.retired[w] {
		return 0, fmt.Errorf("fleet: worker %d retired", w)
	}
	return w, nil
}

func (p *Pool[M]) submit(ctx context.Context, w int, it item[M]) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ctx.Done() != nil {
		// Wake the cond loop when the context fires; Wait cannot
		// select on a channel, so the watcher broadcasts instead.
		stop := context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.space.Broadcast()
			p.mu.Unlock()
		})
		defer stop()
	}
	for p.inflight >= p.bound && !p.closing && ctx.Err() == nil {
		p.space.Wait()
	}
	if p.closing {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t, err := p.targetLocked(w)
	if err != nil {
		return err
	}
	p.enqueueLocked(t, it)
	return nil
}

func (p *Pool[M]) trySubmit(w int, it item[M]) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closing {
		return ErrClosed
	}
	if p.inflight >= p.bound {
		return ErrBackpressure
	}
	t, err := p.targetLocked(w)
	if err != nil {
		return err
	}
	p.enqueueLocked(t, it)
	return nil
}

func (p *Pool[M]) enqueueLocked(w int, it item[M]) {
	p.queues[w].push(it)
	p.inflight++
	if n := p.queues[w].len(); n > p.stats[w].QueueHighWater {
		p.stats[w].QueueHighWater = n
	}
	if n := p.queues[w].len(); n > p.runs[w].highWater {
		p.runs[w].highWater = n
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
		end := time.Now()
		after := m.SimCycles()

		p.mu.Lock()
		st := &p.stats[w]
		st.Requests++
		st.Busy += end.Sub(start)
		st.SimCycles += after - before
		rt := &p.runs[w]
		if rt.served == 0 {
			rt.spanStart, rt.firstWall = before, start
		}
		rt.spanEnd, rt.lastWall = after, end
		rt.served++
		if err != nil {
			st.Errors++
			if p.firstErr == nil {
				p.firstErr = err
			}
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
// (which cannot recover a per-run queue high water or serving span).
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
// counters and resets the pool's per-run tracking (queue high water,
// per-worker serving spans). Only one run is tracked at a time — a
// later BeginRun ends span/high-water tracking for earlier handles —
// and runs are expected to begin while the pool is quiescent (after
// Drain), as the measurement harnesses do.
func (p *Pool[M]) BeginRun() *Run[M] {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	for w := range p.runs {
		// Anything already queued counts toward this run's high water.
		p.runs[w] = runTrack{highWater: p.queues[w].len()}
	}
	return &Run[M]{p: p, epoch: p.epoch, base: append([]WorkerStats(nil), p.stats...)}
}

// Stats reports per-run deltas: requests, errors, steals, simulated
// cycles and busy time since BeginRun, the run's queue high water, and
// each worker's serving span from just before its first served request
// to just after its last (SpanCycles/SpanSeconds). Workers added after
// BeginRun (autoscaling) report their full counters, since their base
// is zero. If a newer BeginRun has superseded this run, the counter
// deltas remain correct but spans and high-water marks are zeroed
// rather than silently reporting the newer run's tracking.
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
			rt := p.runs[w]
			ws.QueueHighWater = rt.highWater
			if rt.served > 0 {
				ws.SpanCycles = rt.spanEnd - rt.spanStart
				ws.SpanSeconds = rt.lastWall.Sub(rt.firstWall).Seconds()
			}
		}
		s.Workers[w] = ws
	}
	s.aggregate()
	return s
}

// Machine returns worker w's machine. It is only safe to touch the
// machine while no requests are in flight (after Drain or Close); the
// caller is reaching into a worker's private state.
func (p *Pool[M]) Machine(w int) M {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.machines[w]
}

// Close executes every already-accepted request, stops the workers,
// and returns the final statistics plus the first request error
// observed (if any). Submissions racing with Close either complete or
// return ErrClosed; accepted ones are never dropped, and submitters
// blocked on a full queue are woken with ErrClosed.
func (p *Pool[M]) Close() (Stats, error) {
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
	return p.statsLocked(), p.firstErr
}
