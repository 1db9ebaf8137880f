package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTrySubmitPanicQuarantinesMachine: a request that panics fails
// with ErrPanicked, counts in Stats.Errors, releases its in-flight
// slot, and its machine never serves again; the pool's boot function
// replaces it. A replacement that fails to boot retires the worker.
func TestTrySubmitPanicQuarantinesMachine(t *testing.T) {
	boots := 0
	failBoot := false
	p, err := New(Config{Workers: 1, Queue: 2}, func(w int) (*fakeMachine, error) {
		if failBoot {
			return nil, errors.New("no more frames")
		}
		boots++
		return &fakeMachine{id: 100*boots + w}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var broken *fakeMachine
	err = p.TrySubmit(func(_ int, m *fakeMachine) error {
		broken = m
		m.cycles = -1
		panic("guest state corrupt")
	})
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("TrySubmit of a panicking request = %v, want ErrPanicked", err)
	}
	if n := p.Inflight(); n != 0 {
		t.Errorf("%d requests in flight after the panic, want 0", n)
	}
	st := p.Stats()
	if st.Requests != 1 || st.Errors != 1 || st.SimCycles != 0 {
		t.Errorf("stats %+v: want 1 request, 1 error, no cycles charged", st)
	}
	if boots != 2 {
		t.Fatalf("boot ran %d times, want 2 (the replacement)", boots)
	}
	for i := 0; i < 3; i++ {
		if err := p.TrySubmit(func(_ int, m *fakeMachine) error {
			if m == broken {
				return errors.New("quarantined machine served again")
			}
			m.served++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Requests != 4 || st.Errors != 1 {
		t.Errorf("after recovery stats %+v: want 4 requests, 1 error", st)
	}

	// The replacement fails to boot: the worker retires, and a pool
	// with no live machine refuses instead of hanging.
	failBoot = true
	if err := p.SubmitTo(0, func(int, *fakeMachine) error { panic("again") }); !errors.Is(err, ErrPanicked) {
		t.Fatalf("second panic = %v, want ErrPanicked", err)
	}
	if p.Workers() != 0 || !p.Stats().Workers[0].Retired {
		t.Errorf("worker with no machine still live: %d workers", p.Workers())
	}
	if err := p.TrySubmit(func(int, *fakeMachine) error { return nil }); err == nil {
		t.Error("TrySubmit ran on a pool with no machine")
	}
	if err := p.SubmitTo(0, func(int, *fakeMachine) error { return nil }); err == nil {
		t.Error("SubmitTo ran on a worker with no machine")
	}
	if st := p.Close(); st.Requests != 5 || st.Errors != 2 {
		t.Errorf("final stats %+v: want 5 requests, 2 errors", st)
	}
}

// checkedMachine flags a machine held by two requests at once.
type checkedMachine struct {
	id   int
	busy atomic.Bool
}

func (m *checkedMachine) SimCycles() float64 { return 0 }

// TestCheckoutHammer drives TrySubmit and SubmitTo from many
// goroutines against M machines while a churner retires and adds
// machines. No machine may be held by two requests, at most M requests
// may run at once, the requests in flight never exceed the bound, and
// every attempt either completed or was refused.
func TestCheckoutHammer(t *testing.T) {
	const (
		machines   = 4
		bound      = 8
		submitters = 16
		perSub     = 300
	)
	var booted atomic.Int32
	boot := func(int) (*checkedMachine, error) {
		return &checkedMachine{id: int(booted.Add(1))}, nil
	}
	p, err := New(Config{Workers: machines, Queue: bound}, boot)
	if err != nil {
		t.Fatal(err)
	}

	var running, peak, attempted, completed, refused, executed atomic.Int64
	req := func(_ int, m *checkedMachine) error {
		if !m.busy.CompareAndSwap(false, true) {
			return fmt.Errorf("machine %d held by two requests", m.id)
		}
		n := running.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		if in := p.Inflight(); in > bound {
			return fmt.Errorf("%d requests in flight, bound %d", in, bound)
		}
		executed.Add(1)
		running.Add(-1)
		m.busy.Store(false)
		return nil
	}

	churned := make(chan error, 1)
	go func() {
		// Retire the newest live machine, then add one: never more than
		// M live machines.
		for i := 0; i < 200; i++ {
			runtime.Gosched()
			live := p.LiveWorkers()
			if _, err := p.RemoveMachine(live[len(live)-1]); err != nil {
				churned <- err
				return
			}
			m, _ := boot(0)
			if _, err := p.AddMachine(m); err != nil {
				churned <- err
				return
			}
		}
		churned <- nil
	}()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < perSub; i++ {
				attempted.Add(1)
				var err error
				if rng.Intn(2) == 0 {
					err = p.TrySubmit(req)
				} else {
					err = p.SubmitTo(rng.Intn(p.TotalWorkers()), req)
				}
				if err != nil {
					refused.Add(1)
				} else {
					completed.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	st := p.Close()

	if st.Errors != 0 {
		t.Errorf("%d requests saw a double checkout or an overfull pool", st.Errors)
	}
	if got := peak.Load(); got > machines {
		t.Errorf("%d requests ran at once on %d machines", got, machines)
	}
	if st.QueueHighWater > bound {
		t.Errorf("%d requests waited at once, bound %d", st.QueueHighWater, bound)
	}
	if refused.Load()+completed.Load() != attempted.Load() {
		t.Errorf("refused %d + completed %d != attempted %d", refused.Load(), completed.Load(), attempted.Load())
	}
	if executed.Load() != completed.Load() || st.Requests != uint64(completed.Load()) {
		t.Errorf("executed %d, pool counted %d, completed %d", executed.Load(), st.Requests, completed.Load())
	}
	if p.TotalWorkers() == machines {
		t.Error("the churner never retired a machine")
	}
}
