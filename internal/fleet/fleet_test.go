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
// deliberately unsynchronized: the pool's one-request-per-machine
// checkout is exactly what makes that safe, and the -race leg of the
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

// hold checks worker w's machine out on a goroutine of its own and
// keeps it until release is closed. It returns once the machine is
// held; the request then counts as in flight.
func hold(t *testing.T, p *Pool[*fakeMachine], w int, release <-chan struct{}) {
	t.Helper()
	held := make(chan error, 1)
	go func() {
		if err := p.SubmitTo(w, func(int, *fakeMachine) error {
			held <- nil
			<-release
			return nil
		}); err != nil {
			held <- err
		}
	}()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// waitInflight polls until the pool has n requests in flight.
func waitInflight(t *testing.T, p *Pool[*fakeMachine], n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); p.Inflight() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight, want %d", p.Inflight(), n)
		}
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

	// Aggregate equals the sum of the per-worker stats, and nothing is
	// ever stolen.
	sum := Stats{Workers: stats.Workers}
	sum.sum()
	if stats.Requests != sum.Requests || stats.Errors != sum.Errors ||
		stats.Steals != 0 || stats.SimCycles != sum.SimCycles ||
		stats.Busy != sum.Busy {
		t.Errorf("aggregate %+v != recomputed %+v", stats, sum)
	}
	if stats.QueueHighWater > 32 {
		t.Errorf("queue high water %d exceeds the bound 32", stats.QueueHighWater)
	}

	// And the per-worker machine counters agree with the per-worker
	// stats (nothing ran on the wrong machine). No request is in
	// flight, so the machines may be read.
	for w := 0; w < workers; w++ {
		m := p.slots[w].m
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
// target machine, even with other machines free.
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

// TestBoundedQueueBlocksSubmit checks the in-flight bound: with every
// machine held, at most Queue requests are admitted (two running, two
// waiting for a machine) while further SubmitTo callers block, and
// everything completes once the machines are handed back.
func TestBoundedQueueBlocksSubmit(t *testing.T) {
	p := newFakePool(t, 2, 4)
	release := make(chan struct{})
	for w := 0; w < 2; w++ {
		hold(t, p, w, release)
	}
	var accepted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.SubmitTo(i%2, func(int, *fakeMachine) error { return nil }); err == nil {
				accepted.Add(1)
			}
		}()
	}
	waitInflight(t, p, 4)
	time.Sleep(50 * time.Millisecond)
	// SubmitTo is blocking at the bound, as it should.
	if n := p.Inflight(); n != 4 {
		t.Fatalf("%d requests in flight despite held machines and bound 4", n)
	}
	if n := accepted.Load(); n != 0 {
		t.Fatalf("%d submissions completed while every machine was held", n)
	}
	close(release)
	wg.Wait()
	if n := accepted.Load(); n != 20 {
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
// with every machine held and the bound reached, TrySubmit refuses
// with ErrBackpressure instead of queueing the caller, and accepts
// again once capacity frees up.
func TestTrySubmitBackpressure(t *testing.T) {
	p := newFakePool(t, 2, 2)
	release := make(chan struct{})
	for w := 0; w < 2; w++ {
		hold(t, p, w, release)
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
	hold(t, p, 0, release)
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
// measurement runs: queue high water and request counts of one run do
// not contaminate the next (a heavy run used to leak its queue high
// water into a later light run's result).
func TestRunStatsPerRunDeltas(t *testing.T) {
	p := newFakePool(t, 2, 16)

	// Before run 1, balanced requests wait behind two held machines,
	// so the pool's lifetime high water and request count are nonzero.
	release := make(chan struct{})
	for w := 0; w < 2; w++ {
		hold(t, p, w, release)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.TrySubmit(func(int, *fakeMachine) error { return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	waitInflight(t, p, 6)
	close(release)
	wg.Wait()
	p.Drain() // and the holders
	if st := p.Stats(); st.QueueHighWater != 4 || st.Requests != 6 {
		t.Fatalf("warm-up high water %d, requests %d; want 4, 6", st.QueueHighWater, st.Requests)
	}

	// Run 1: each machine is held by one request while four more wait
	// pinned to it.
	run1 := p.BeginRun()
	serve := func(_ int, m *fakeMachine) error {
		m.cycles += 5
		return nil
	}
	release = make(chan struct{})
	for w := 0; w < 2; w++ {
		held := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.SubmitTo(w, func(w int, m *fakeMachine) error {
				close(held)
				<-release
				return serve(w, m)
			}); err != nil {
				t.Error(err)
			}
		}()
		<-held
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.SubmitTo(i%2, serve); err != nil {
				t.Error(err)
			}
		}()
	}
	waitInflight(t, p, 10)
	close(release)
	wg.Wait()
	s1 := run1.Stats()
	if s1.Requests != 10 {
		t.Errorf("run 1 requests = %d, want 10", s1.Requests)
	}
	if s1.QueueHighWater == 0 {
		t.Error("run 1 high water = 0, want > 0")
	}
	if s1.Steals != 0 {
		t.Errorf("run 1 steals = %d, want 0", s1.Steals)
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
	// Draining between the two submissions means no request ever
	// waited, while in run 1 four waited per machine.
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
