package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// resettable is a clone that counts its resets; failReset makes the
// next Reset fail.
type resettable struct {
	id        int32
	resets    int
	failReset bool
}

func (m *resettable) Reset() error {
	if m.failReset {
		return errors.New("reset failed")
	}
	m.resets++
	return nil
}

// fakeClones is a clone source that counts forks and releases.
type fakeClones struct {
	forked   atomic.Int32
	released atomic.Int32
}

func (f *fakeClones) clone() (*resettable, error) {
	return &resettable{id: f.forked.Add(1)}, nil
}

func (f *fakeClones) release(*resettable) { f.released.Add(1) }

// TestClonePoolWarmPath: the pool forks its depth up front, and a
// machine handed back is reset and handed out again, oldest first, so
// steady serving forks nothing more and warms every kept machine.
func TestClonePoolWarmPath(t *testing.T) {
	f := &fakeClones{}
	p := NewClonePool(2, f.clone, f.release)
	defer p.Close()
	if st := p.Stats(); st.WarmDepth != 2 || st.Forks != 2 {
		t.Fatalf("new pool %+v: want 2 machines forked and waiting", st)
	}
	var order []int32
	for i := 0; i < 10; i++ {
		m, err := p.Take()
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, m.id)
		p.Discard(m)
	}
	for i, id := range order {
		if want := int32(i%2 + 1); id != want {
			t.Fatalf("takes handed out machines %v, want them in turn", order)
		}
	}
	want := CloneStats{WarmDepth: 2, TargetDepth: 2, Forks: 2, ColdSteals: 0, Discards: 10, Resets: 10}
	if st := p.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if f.released.Load() != 0 {
		t.Errorf("%d machines released, want 0", f.released.Load())
	}
}

// TestClonePoolWarmFewerThanDepth: a pool may fork fewer machines up
// front than it keeps. Takes that find none waiting fork the rest,
// and every machine handed back is kept, up to the depth.
func TestClonePoolWarmFewerThanDepth(t *testing.T) {
	f := &fakeClones{}
	p := NewClonePoolWarm(3, 1, f.clone, f.release)
	defer p.Close()
	if st := p.Stats(); st.WarmDepth != 1 || st.Forks != 1 || st.TargetDepth != 3 {
		t.Fatalf("new pool %+v: want 1 machine forked and waiting, depth 3", st)
	}
	ms := make([]*resettable, 3)
	for i := range ms {
		ms[i], _ = p.Take()
	}
	for _, m := range ms {
		p.Discard(m)
	}
	want := CloneStats{WarmDepth: 3, TargetDepth: 3, Forks: 3, ColdSteals: 2, Discards: 3, Resets: 3}
	if st := p.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// TestClonePoolForkError: a failed fork stops the up-front forking, and
// a Take whose inline fork fails returns the error.
func TestClonePoolForkError(t *testing.T) {
	f := &fakeClones{}
	fail := true
	p := NewClonePool(2, func() (*resettable, error) {
		if fail {
			return nil, errors.New("fork failed")
		}
		return f.clone()
	}, f.release)
	defer p.Close()
	if _, err := p.Take(); err == nil {
		t.Fatal("Take hid a failed fork")
	}
	fail = false
	if _, err := p.Take(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Forks != 1 || st.ColdSteals != 2 {
		t.Errorf("stats %+v: want 1 fork, 2 cold steals", st)
	}
}

// TestClonePoolColdSteal: a Take that finds no reset machine waiting
// clones inline and is counted as a cold steal, and takers that miss
// together each get a machine of their own.
func TestClonePoolColdSteal(t *testing.T) {
	f := &fakeClones{}
	p := NewClonePool(1, f.clone, f.release)
	defer p.Close()
	ms := make([]*resettable, 3)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i], _ = p.Take()
		}()
	}
	wg.Wait()
	if ms[0] == ms[1] || ms[1] == ms[2] || ms[0] == ms[2] {
		t.Fatal("two takes returned the same machine")
	}
	if st := p.Stats(); st.ColdSteals != 2 || st.Forks != 3 {
		t.Errorf("stats %+v: want 2 cold steals, 3 forks", st)
	}
}

// TestClonePoolReleasesWhatItDoesNotKeep: a machine is released, not
// kept, when the pool already holds depth machines or its Reset fails.
func TestClonePoolReleasesWhatItDoesNotKeep(t *testing.T) {
	f := &fakeClones{}
	p := NewClonePool(1, f.clone, f.release)
	defer p.Close()
	a, _ := p.Take()
	b, _ := p.Take()
	c, _ := p.Take()
	p.Discard(a) // kept
	p.Discard(b) // pool full: released
	if m, _ := p.Take(); m != a {
		t.Fatalf("take after discard: got machine %d, want %d", m.id, a.id)
	}
	c.failReset = true
	p.Discard(c) // reset fails: released
	if st := p.Stats(); st.WarmDepth != 0 || st.Resets != 1 || st.Discards != 3 || st.Forks != 3 {
		t.Errorf("stats %+v: want 0 waiting, 1 reset, 3 discards, 3 forks", st)
	}
	if f.released.Load() != 2 {
		t.Errorf("%d machines released, want 2", f.released.Load())
	}
}

// TestClonePoolCloseDrains: Close releases every waiting machine and
// fails later Takes; machines still out are released when handed back.
func TestClonePoolCloseDrains(t *testing.T) {
	f := &fakeClones{}
	p := NewClonePool(2, f.clone, f.release)
	a, _ := p.Take()
	b, _ := p.Take()
	c, _ := p.Take()
	p.Discard(a)
	p.Discard(b)
	p.Close()
	p.Close() // idempotent
	if _, err := p.Take(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Take after Close: %v, want ErrPoolClosed", err)
	}
	p.Discard(c)
	if f.released.Load() != f.forked.Load() {
		t.Errorf("%d of %d machines never released", f.forked.Load()-f.released.Load(), f.forked.Load())
	}
}

// TestClonePoolHammer: concurrent Take/Discard churn under -race. No
// machine is ever held by two takers at once, and the gauges agree
// with the ground truth: every fork is either waiting or released. A
// pool as deep as its takers are many keeps every machine handed back,
// so it forks no more than one per taker.
func TestClonePoolHammer(t *testing.T) {
	const takers = 8
	for _, depth := range []int{4, takers} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			f := &fakeClones{}
			p := NewClonePool(depth, f.clone, f.release)
			var inUse sync.Map
			var wg sync.WaitGroup
			for w := 0; w < takers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						m, err := p.Take()
						if err != nil {
							t.Error(err)
							return
						}
						if _, dup := inUse.LoadOrStore(m, true); dup {
							t.Errorf("machine %d handed to two takers", m.id)
						}
						runtime.Gosched()
						inUse.Delete(m)
						p.Discard(m)
					}
				}()
			}
			wg.Wait()
			st := p.Stats()
			if st.Discards != 100*takers {
				t.Errorf("discards = %d, want %d", st.Discards, 100*takers)
			}
			if st.Forks != uint64(f.forked.Load()) || st.Forks != uint64(st.WarmDepth)+uint64(f.released.Load()) {
				t.Errorf("gauges %+v drifted from ground truth: forked %d, released %d",
					st, f.forked.Load(), f.released.Load())
			}
			if depth == takers && (st.Forks > takers || st.Resets != st.Discards) {
				t.Errorf("gauges %+v: a pool as deep as its takers released a machine", st)
			}
			p.Close()
			if f.released.Load() != f.forked.Load() {
				t.Errorf("%d machines leaked", f.forked.Load()-f.released.Load())
			}
		})
	}
}
