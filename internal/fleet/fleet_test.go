package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeMachine is a minimal Machine for pool tests. Its fields are
// deliberately unsynchronized: the pool's machine-per-worker ownership
// guarantee is exactly what makes that safe, and the -race leg of the
// test suite verifies it.
type fakeMachine struct {
	id     int
	cycles float64
	served int
}

func (m *fakeMachine) SimCycles() float64 { return m.cycles }

func newFakePool(t *testing.T, workers, queue int) *Pool[*fakeMachine] {
	t.Helper()
	p, err := New(Config{Workers: workers, Queue: queue}, func(w int) (*fakeMachine, error) {
		return &fakeMachine{id: w}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// submitBalanced retries TrySubmit until the pool has room, as a
// client retries a 503: balanced placement that waits for capacity.
func submitBalanced(p *Pool[*fakeMachine], req Request[*fakeMachine]) error {
	for {
		err := p.TrySubmit(req)
		if !errors.Is(err, ErrBackpressure) {
			return err
		}
		runtime.Gosched()
	}
}

// TestPoolHammer floods the pool from many goroutines, mixing
// balanced (TrySubmit) and pinned (SubmitTo) requests, and checks that
// every accepted request executed exactly once and that the aggregate
// stats equal the sum of the per-worker stats. Run with -race this is
// also the machine-ownership proof: each fakeMachine is mutated
// without locks by whichever worker runs the request.
func TestPoolHammer(t *testing.T) {
	const (
		workers    = 8
		submitters = 16
		perSub     = 50
	)
	p := newFakePool(t, workers, 32)
	var executed atomic.Uint64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				req := func(w int, m *fakeMachine) error {
					if m.id != w {
						return fmt.Errorf("worker %d got machine %d", w, m.id)
					}
					m.cycles += 3
					m.served++
					executed.Add(1)
					return nil
				}
				var err error
				if i%2 == 0 {
					err = submitBalanced(p, req)
				} else {
					err = p.SubmitTo((s+i)%workers, req)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	stats := p.Close()

	const want = submitters * perSub
	if got := executed.Load(); got != want {
		t.Errorf("executed %d of %d requests", got, want)
	}
	if stats.Requests != want {
		t.Errorf("stats.Requests = %d, want %d", stats.Requests, want)
	}
	if stats.SimCycles != 3*want {
		t.Errorf("stats.SimCycles = %v, want %v", stats.SimCycles, 3*want)
	}
	if stats.Errors != 0 {
		t.Errorf("stats.Errors = %d", stats.Errors)
	}

	// Aggregate equals the sum (max for the high-water mark) of the
	// per-worker stats.
	var sum Stats
	sum.Workers = stats.Workers
	sum.aggregate()
	if stats.Requests != sum.Requests || stats.Errors != sum.Errors ||
		stats.Steals != sum.Steals || stats.SimCycles != sum.SimCycles ||
		stats.Busy != sum.Busy || stats.QueueHighWater != sum.QueueHighWater {
		t.Errorf("aggregate %+v != recomputed %+v", stats, sum)
	}

	// And the per-worker machine counters agree with the per-worker
	// stats (nothing ran on the wrong machine). The workers are gone,
	// so their machines may be read.
	for w := 0; w < workers; w++ {
		m := p.machines[w]
		if uint64(m.served) != stats.Workers[w].Requests {
			t.Errorf("worker %d: machine served %d, stats say %d", w, m.served, stats.Workers[w].Requests)
		}
	}
}

// TestDrainDropsNothing checks the graceful-drain guarantee: every
// accepted request completes, across multiple drain cycles and the
// final close.
func TestDrainDropsNothing(t *testing.T) {
	p := newFakePool(t, 4, 8)
	var executed atomic.Uint64
	req := func(_ int, m *fakeMachine) error {
		m.cycles++
		executed.Add(1)
		return nil
	}
	for round := 1; round <= 3; round++ {
		for i := 0; i < 100; i++ {
			if err := submitBalanced(p, req); err != nil {
				t.Fatal(err)
			}
		}
		p.Drain()
		if got := executed.Load(); got != uint64(100*round) {
			t.Fatalf("after drain %d: executed %d, want %d", round, got, 100*round)
		}
	}
	// Requests queued at Close time still execute.
	for i := 0; i < 50; i++ {
		if err := submitBalanced(p, req); err != nil {
			t.Fatal(err)
		}
	}
	stats := p.Close()
	if got := executed.Load(); got != 350 {
		t.Errorf("executed %d, want 350 (close dropped requests)", got)
	}
	if stats.Requests != 350 {
		t.Errorf("stats.Requests = %d, want 350", stats.Requests)
	}
	if err := p.TrySubmit(req); !errors.Is(err, ErrClosed) {
		t.Errorf("TrySubmit after Close = %v, want ErrClosed", err)
	}
	if err := p.SubmitTo(0, req); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitTo after Close = %v, want ErrClosed", err)
	}
}

// TestPinnedPlacement checks that SubmitTo requests run only on their
// target machine, even with other workers idle and stealing.
func TestPinnedPlacement(t *testing.T) {
	const workers = 4
	p := newFakePool(t, workers, 16)
	var wrong atomic.Uint64
	for i := 0; i < 200; i++ {
		target := i % workers
		if err := p.SubmitTo(target, func(w int, m *fakeMachine) error {
			if w != target || m.id != target {
				wrong.Add(1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SubmitTo(99, func(int, *fakeMachine) error { return nil }); err == nil {
		t.Error("SubmitTo(99) on a 4-worker pool must fail")
	}
	stats := p.Close()
	if wrong.Load() != 0 {
		t.Errorf("%d pinned requests ran on the wrong machine", wrong.Load())
	}
	if stats.Steals != 0 {
		t.Errorf("steals = %d, want 0 for all-pinned load", stats.Steals)
	}
	for w := 0; w < workers; w++ {
		if stats.Workers[w].Requests != 50 {
			t.Errorf("worker %d served %d, want 50", w, stats.Workers[w].Requests)
		}
	}
}

// TestIdleWorkerSteals blocks one worker on a long request and checks
// that the other worker steals the backlog queued behind it.
func TestIdleWorkerSteals(t *testing.T) {
	p := newFakePool(t, 2, 64)
	started := make(chan struct{})
	release := make(chan struct{})
	if err := p.SubmitTo(0, func(_ int, m *fakeMachine) error {
		close(started)
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	// Worker 0 is blocked; all these land in both queues, and worker 1
	// must steal worker 0's share.
	var executed atomic.Uint64
	for i := 0; i < 40; i++ {
		if err := p.TrySubmit(func(_ int, m *fakeMachine) error {
			executed.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for worker 1 to finish everything stealable.
	deadline := time.After(10 * time.Second)
	for executed.Load() != 40 {
		select {
		case <-deadline:
			t.Fatalf("only %d of 40 requests executed while worker 0 blocked", executed.Load())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	stats := p.Close()
	if stats.Workers[1].Steals == 0 {
		t.Error("worker 1 never stole despite worker 0 being blocked")
	}
	if stats.Requests != 41 {
		t.Errorf("stats.Requests = %d, want 41", stats.Requests)
	}
}

// TestRequestErrorsAreCountedAndReturned checks error accounting: a
// failed request still counts as served, and its error is counted in
// the pool's statistics rather than returned from Close.
func TestRequestErrorsAreCountedAndReturned(t *testing.T) {
	p := newFakePool(t, 2, 8)
	boom := errors.New("boom")
	for i := 0; i < 10; i++ {
		i := i
		if err := submitBalanced(p, func(int, *fakeMachine) error {
			if i%3 == 0 {
				return boom
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	stats := p.Close()
	if stats.Errors != 4 {
		t.Errorf("stats.Errors = %d, want 4", stats.Errors)
	}
	if stats.Requests != 10 {
		t.Errorf("stats.Requests = %d, want 10 (errors still count as served)", stats.Requests)
	}
}

// TestBootFailurePropagates checks that a failing boot aborts New.
func TestBootFailurePropagates(t *testing.T) {
	_, err := New(Config{Workers: 3}, func(w int) (*fakeMachine, error) {
		if w == 2 {
			return nil, errors.New("no more frames")
		}
		return &fakeMachine{id: w}, nil
	})
	if err == nil || err.Error() != "fleet: booting machine 2: no more frames" {
		t.Errorf("New error = %v", err)
	}
}

// TestBoundedQueueBlocksSubmit checks the submission bound: with all
// workers blocked, at most Queue requests are accepted before SubmitTo
// blocks, and everything completes once the workers resume.
func TestBoundedQueueBlocksSubmit(t *testing.T) {
	p := newFakePool(t, 2, 4)
	release := make(chan struct{})
	for w := 0; w < 2; w++ {
		if err := p.SubmitTo(w, func(int, *fakeMachine) error {
			<-release
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	accepted := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 20; i++ {
			if err := p.SubmitTo(i%2, func(int, *fakeMachine) error { return nil }); err != nil {
				break
			}
			n++
		}
		accepted <- n
	}()
	select {
	case n := <-accepted:
		t.Fatalf("all %d submissions accepted despite blocked workers and bound 4", n)
	case <-time.After(50 * time.Millisecond):
		// SubmitTo is blocking at the bound, as it should.
	}
	close(release)
	if n := <-accepted; n != 20 {
		t.Fatalf("only %d of 20 submissions accepted after release", n)
	}
	stats := p.Close()
	if stats.Requests != 22 {
		t.Errorf("stats.Requests = %d, want 22", stats.Requests)
	}
	if stats.QueueHighWater > 4 {
		t.Errorf("queue high water %d exceeds bound 4", stats.QueueHighWater)
	}
}

// TestTrySubmitBackpressure checks the non-blocking admission path:
// with all workers blocked and the bound reached, TrySubmit refuses
// with ErrBackpressure instead of queueing the caller, and accepts
// again once capacity frees up.
func TestTrySubmitBackpressure(t *testing.T) {
	p := newFakePool(t, 2, 2)
	release := make(chan struct{})
	for w := 0; w < 2; w++ {
		if err := p.SubmitTo(w, func(int, *fakeMachine) error {
			<-release
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Bound (2) reached: TrySubmit must refuse, typed.
	if err := p.TrySubmit(func(int, *fakeMachine) error { return nil }); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("TrySubmit at the bound = %v, want ErrBackpressure", err)
	}
	close(release)
	p.Drain()
	var ran atomic.Bool
	if err := p.TrySubmit(func(int, *fakeMachine) error { ran.Store(true); return nil }); err != nil {
		t.Fatalf("TrySubmit with capacity free = %v", err)
	}
	p.Drain()
	if !ran.Load() {
		t.Error("accepted TrySubmit request never ran")
	}
	p.Close()
	if err := p.TrySubmit(func(int, *fakeMachine) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("TrySubmit after Close = %v, want ErrClosed", err)
	}
}

// TestCloseWakesBlockedSubmitters checks the shutdown-vs-full-queue
// deadlock fix: submitters blocked at the bound are woken by Close and
// return ErrClosed rather than being stranded.
func TestCloseWakesBlockedSubmitters(t *testing.T) {
	p := newFakePool(t, 1, 1)
	release := make(chan struct{})
	if err := p.SubmitTo(0, func(int, *fakeMachine) error {
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const blocked = 4
	errs := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		go func() {
			errs <- p.SubmitTo(0, func(int, *fakeMachine) error { return nil })
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the submitters block at the bound
	done := make(chan struct{})
	go func() {
		close(release)
		p.Close()
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for i := 0; i < blocked; i++ {
		select {
		case err := <-errs:
			// Either outcome is legal for a submission racing Close —
			// accepted (nil, and then executed) or refused — but never
			// a hang.
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("blocked SubmitTo woken with %v, want nil or ErrClosed", err)
			}
		case <-deadline:
			t.Fatal("SubmitTo still blocked 5s after Close")
		}
	}
	<-done
}

// TestSubmitRacingCloseNeverDropsAccepted hammers SubmitTo and
// TrySubmit from many goroutines racing Close: every submission that
// returned nil must execute exactly once, and nothing may panic. Run
// under -race this is also the drain/shutdown memory-safety proof.
func TestSubmitRacingCloseNeverDropsAccepted(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := newFakePool(t, 4, 8)
		var accepted, executed atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					req := func(int, *fakeMachine) error {
						executed.Add(1)
						return nil
					}
					var err error
					if i%2 == 0 {
						err = p.SubmitTo(g%4, req)
					} else {
						err = p.TrySubmit(req)
					}
					if err == nil {
						accepted.Add(1)
					} else if errors.Is(err, ErrClosed) {
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Millisecond)
		p.Close()
		wg.Wait()
		if accepted.Load() != executed.Load() {
			t.Fatalf("round %d: accepted %d but executed %d", round, accepted.Load(), executed.Load())
		}
	}
}

// TestRunStatsPerRunDeltas checks that BeginRun isolates back-to-back
// measurement runs: steals, queue high water and request counts of one
// run do not contaminate the next (a heavy run used to leak its queue
// high water into a later light run's result).
func TestRunStatsPerRunDeltas(t *testing.T) {
	p := newFakePool(t, 2, 16)

	// Before run 1, worker 1 steals the balanced work queued behind a
	// blocked worker 0, so the pool's lifetime steal count is nonzero.
	release := make(chan struct{})
	if err := p.SubmitTo(0, func(int, *fakeMachine) error {
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var stolen atomic.Uint64
	for i := 0; i < 4; i++ {
		if err := p.TrySubmit(func(int, *fakeMachine) error {
			stolen.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); stolen.Load() != 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 4 balanced requests ran while worker 0 blocked", stolen.Load())
		}
	}
	close(release)
	p.Drain()
	if p.Stats().Steals == 0 {
		t.Fatal("warm-up stole nothing")
	}

	run1 := p.BeginRun()
	for i := 0; i < 10; i++ {
		if err := p.SubmitTo(i%2, func(_ int, m *fakeMachine) error {
			m.cycles += 5
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	s1 := run1.Stats()
	if s1.Requests != 10 {
		t.Errorf("run 1 requests = %d, want 10", s1.Requests)
	}
	if s1.QueueHighWater == 0 {
		t.Error("run 1 high water = 0, want > 0")
	}
	if s1.Steals != 0 {
		t.Errorf("pinned run 1 steals = %d, want 0 (got the warm-up's?)", s1.Steals)
	}
	for w, ws := range s1.Workers {
		if ws.Requests != 5 {
			t.Errorf("run 1 worker %d requests = %d, want 5", w, ws.Requests)
		}
		if ws.SimCycles != 25 {
			t.Errorf("run 1 worker %d cycles = %v, want 25", w, ws.SimCycles)
		}
	}

	// A second, smaller run on the same pool: its stats must stand
	// alone (the old cumulative counters would report 12 requests and
	// run 1's high water).
	run2 := p.BeginRun()
	for i := 0; i < 2; i++ {
		if err := p.SubmitTo(0, func(_ int, m *fakeMachine) error {
			m.cycles += 3
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		p.Drain()
	}
	s2 := run2.Stats()
	if s2.Requests != 2 || s2.Steals != 0 {
		t.Errorf("run 2 requests = %d, steals = %d; want 2, 0", s2.Requests, s2.Steals)
	}
	if s2.Workers[0].SimCycles != 6 {
		t.Errorf("run 2 worker 0 cycles = %v, want 6 (THIS run's only)", s2.Workers[0].SimCycles)
	}
	if s2.Workers[1].Requests != 0 || s2.Workers[1].SimCycles != 0 {
		t.Errorf("run 2 worker 1 = %+v, want untouched", s2.Workers[1])
	}
	if s2.QueueHighWater > 1 {
		t.Errorf("run 2 high water = %d, want <= 1 (drained between submissions)", s2.QueueHighWater)
	}
	// Draining between the two submissions means at most one request
	// was ever queued, while run 1 queued 5 per worker.
	if s1.QueueHighWater <= s2.QueueHighWater {
		t.Errorf("run 1 high water (%d) should exceed run 2's (%d)", s1.QueueHighWater, s2.QueueHighWater)
	}

	// The superseded run 1 handle still reports correct counter deltas
	// but no longer claims the live high-water tracking.
	s1again := run1.Stats()
	if s1again.Requests != 12 {
		t.Errorf("superseded run 1 requests = %d, want 12 (deltas keep accumulating)", s1again.Requests)
	}
	if s1again.QueueHighWater != 0 {
		t.Errorf("superseded run must zero its high water, got %d", s1again.QueueHighWater)
	}
	p.Close()
}

// TestAddMachineGrowsLivePool checks autoscale's primitive: a machine
// added to a serving pool starts taking balanced work, reports its own
// stats, and a run begun before the growth attributes the new worker's
// full counters to the run.
func TestAddMachineGrowsLivePool(t *testing.T) {
	p := newFakePool(t, 1, 64)
	run := p.BeginRun()
	for i := 0; i < 20; i++ {
		if err := p.TrySubmit(func(_ int, m *fakeMachine) error {
			m.cycles++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	w, err := p.AddMachine(&fakeMachine{id: 1, cycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 || p.Workers() != 2 {
		t.Fatalf("AddMachine index %d, workers %d; want 1, 2", w, p.Workers())
	}
	for i := 0; i < 20; i++ {
		if err := p.SubmitTo(1, func(_ int, m *fakeMachine) error {
			if m.id != 1 {
				return fmt.Errorf("pinned request ran on machine %d", m.id)
			}
			m.cycles += 2
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	s := run.Stats()
	if s.Requests != 40 {
		t.Errorf("run requests = %d, want 40", s.Requests)
	}
	if s.Workers[1].Requests != 20 {
		t.Errorf("scaled-up worker served %d, want 20", s.Workers[1].Requests)
	}
	// The late worker's cycles are its own requests' (100 -> 140), not
	// the clock it joined with.
	if s.Workers[1].SimCycles != 40 {
		t.Errorf("scaled-up worker cycles = %v, want 40", s.Workers[1].SimCycles)
	}
	stats := p.Close()
	if stats.Requests != 40 {
		t.Errorf("total requests = %d, want 40", stats.Requests)
	}
	if _, err := p.AddMachine(&fakeMachine{id: 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("AddMachine after Close = %v, want ErrClosed", err)
	}
}
