package fleet

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRemoveMachineDrainsAndRetires: a retiring worker finishes every
// request already pinned to it before RemoveMachine returns, then the
// slot is dead — no new submissions land on it.
func TestRemoveMachineDrainsAndRetires(t *testing.T) {
	p := newFakePool(t, 3, 16)
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Uint64
	// Hold worker 2, then admit pinned work waiting behind the holder.
	var pinnedWG sync.WaitGroup
	pinnedWG.Add(1)
	go func() {
		defer pinnedWG.Done()
		if err := p.SubmitTo(2, func(_ int, m *fakeMachine) error {
			close(started)
			<-release
			ran.Add(1)
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	const pinned = 5
	for i := 0; i < pinned; i++ {
		pinnedWG.Add(1)
		go func() {
			defer pinnedWG.Done()
			if err := p.SubmitTo(2, func(_ int, m *fakeMachine) error {
				m.served++
				ran.Add(1)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	waitInflight(t, p, 1+pinned)

	got := make(chan *fakeMachine)
	go func() {
		m, err := p.RemoveMachine(2)
		if err != nil {
			t.Error(err)
		}
		got <- m
	}()
	// RemoveMachine must block while the worker is wedged.
	select {
	case <-got:
		t.Fatal("RemoveMachine returned before the worker drained")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	m := <-got
	pinnedWG.Wait()
	if m == nil {
		t.Fatal("RemoveMachine returned no machine")
	}
	if want := uint64(1 + pinned); ran.Load() != want {
		t.Errorf("retiring worker ran %d of %d accepted requests", ran.Load(), want)
	}
	if m.served != pinned {
		t.Errorf("returned machine served %d, want %d", m.served, pinned)
	}

	if p.Workers() != 2 || p.TotalWorkers() != 3 {
		t.Errorf("Workers=%d TotalWorkers=%d, want 2/3", p.Workers(), p.TotalWorkers())
	}
	if live := p.LiveWorkers(); len(live) != 2 || live[0] != 0 || live[1] != 1 {
		t.Errorf("LiveWorkers = %v, want [0 1]", live)
	}
	st := p.Stats()
	if !st.Workers[2].Retired {
		t.Errorf("stats row for retired worker not flagged")
	}

	// The dead slot refuses pinned work and double-retire.
	if err := p.SubmitTo(2, func(int, *fakeMachine) error { return nil }); err == nil {
		t.Errorf("SubmitTo retired worker accepted")
	}
	if _, err := p.RemoveMachine(2); err == nil {
		t.Errorf("second RemoveMachine accepted")
	}
	// Balanced work still flows to the survivors.
	var onRetired atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		if err := submitBalanced(p, func(w int, _ *fakeMachine) error {
			if w == 2 {
				onRetired.Store(true)
			}
			wg.Done()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if onRetired.Load() {
		t.Errorf("balanced submission landed on retired worker")
	}
}

// TestRemoveMachineRefusesLastWorker: the fleet never shrinks to zero.
func TestRemoveMachineRefusesLastWorker(t *testing.T) {
	p := newFakePool(t, 2, 8)
	defer p.Close()
	if _, err := p.RemoveMachine(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RemoveMachine(1); err == nil {
		t.Fatal("removed the last live worker")
	}
	if _, err := p.RemoveMachine(7); err == nil {
		t.Fatal("removed an out-of-range worker")
	}
}

// TestRemoveThenAddMachine: retire/add cycles keep growing worker
// indices; the pool stays functional throughout.
func TestRemoveThenAddMachine(t *testing.T) {
	p := newFakePool(t, 2, 8)
	defer p.Close()
	if _, err := p.RemoveMachine(1); err != nil {
		t.Fatal(err)
	}
	w, err := p.AddMachine(&fakeMachine{id: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Fatalf("AddMachine slot %d, want 2 (slots are never reused)", w)
	}
	if p.Workers() != 2 || p.TotalWorkers() != 3 {
		t.Fatalf("Workers=%d TotalWorkers=%d, want 2/3", p.Workers(), p.TotalWorkers())
	}
	done := make(chan int, 1)
	if err := p.SubmitTo(2, func(w int, m *fakeMachine) error {
		done <- m.id
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if id := <-done; id != 2 {
		t.Fatalf("new worker ran machine %d", id)
	}
}

// TestRemoveMachineConservation hammers balanced submissions while
// workers retire mid-stream: every accepted request executes exactly
// once — conservation-exact scale-down.
func TestRemoveMachineConservation(t *testing.T) {
	const workers = 6
	p := newFakePool(t, workers, 64)
	var executed, accepted atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := p.TrySubmit(func(_ int, m *fakeMachine) error {
					m.served++
					executed.Add(1)
					return nil
				})
				if errors.Is(err, ErrBackpressure) {
					runtime.Gosched()
					continue
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Error(err)
					}
					return
				}
				accepted.Add(1)
			}
		}()
	}
	// Retire all but one worker while the flood runs.
	retired := make([]*fakeMachine, 0, workers-1)
	for w := workers - 1; w > 0; w-- {
		m, err := p.RemoveMachine(w)
		if err != nil {
			t.Fatal(err)
		}
		retired = append(retired, m)
	}
	close(stop)
	wg.Wait()
	p.Close()
	if accepted.Load() != executed.Load() {
		t.Errorf("accepted %d != executed %d: scale-down dropped work", accepted.Load(), executed.Load())
	}
	// The machines' own counters account for every execution too.
	var sum int
	for _, m := range retired {
		sum += m.served
	}
	sum += p.slots[0].m.served // worker 0 stays with the closed pool
	if uint64(sum) != executed.Load() {
		t.Errorf("machine counters sum %d != executed %d", sum, executed.Load())
	}
}
