package mem

import (
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotFreezesImageAndRestores: a clone frozen from p keeps p's
// image while p diverges, and a reset onto it brings that image back,
// as often as asked.
func TestSnapshotFreezesImageAndRestores(t *testing.T) {
	p := NewPhysical()
	p.WriteBytes(0x1000, []byte("hello"))
	p.Write32(0x40_0000, 0xdeadbeef) // a second chunk
	framesBefore := p.FrameCount()
	fpBefore := p.Fingerprint()

	s := p.Clone()
	p.WriteBytes(0x1000, []byte("WORLD"))
	p.Write8(0x80_0000, 7) // fresh frame after the freeze
	if got := string(p.FrameView(0x1000)[:5]); got != "WORLD" {
		t.Fatalf("post-freeze write lost: %q", got)
	}
	if got := string(s.FrameView(0x1000)[:5]); got != "hello" {
		t.Fatalf("frozen clone saw the write: %q", got)
	}

	p.ResetTo(s)
	if got := string(p.FrameView(0x1000)[:5]); got != "hello" {
		t.Errorf("reset: got %q, want hello", got)
	}
	if p.Read32(0x40_0000) != 0xdeadbeef {
		t.Errorf("reset lost second chunk word")
	}
	if p.FrameCount() != framesBefore {
		t.Errorf("FrameCount = %d, want %d", p.FrameCount(), framesBefore)
	}
	if p.Fingerprint() != fpBefore {
		t.Errorf("fingerprint differs after reset")
	}

	// The frozen clone stays valid: diverge and reset again.
	p.Write8(0x1000, 'X')
	p.ResetTo(s)
	if got := p.Read8(0x1000); got != 'h' {
		t.Errorf("second reset: got %q", got)
	}
	s.Release()
	if n := p.SoleOwnerFrames(); n != p.FrameCount() {
		t.Errorf("%d of %d frames sole-owned after releasing the frozen clone", n, p.FrameCount())
	}
}

func TestCloneIsIndependentAndBitIdentical(t *testing.T) {
	p := NewPhysical()
	for i := uint32(0); i < 64; i++ {
		p.Write32(i*PageSize, i^0x5a5a)
	}
	q := p.Clone()
	if q.Fingerprint() != p.Fingerprint() {
		t.Fatalf("clone fingerprint differs")
	}
	if q.FrameCount() != p.FrameCount() {
		t.Fatalf("clone FrameCount %d != %d", q.FrameCount(), p.FrameCount())
	}

	q.Write32(3*PageSize, 111)
	p.Write32(5*PageSize, 222)
	if p.Read32(3*PageSize) != 3^0x5a5a {
		t.Errorf("clone write leaked into source")
	}
	if q.Read32(5*PageSize) != 5^0x5a5a {
		t.Errorf("source write leaked into clone")
	}
	if q.Read32(3*PageSize) != 111 || p.Read32(5*PageSize) != 222 {
		t.Errorf("own writes lost")
	}
}

func TestReadsNeverCopyFrames(t *testing.T) {
	p := NewPhysical()
	p.WriteBytes(0, make([]byte, 4*PageSize))
	q := p.Clone()
	for i := uint32(0); i < 4*PageSize; i += 4 {
		q.Read32(i)
	}
	if _, copies, _ := q.COWStats(); copies != 0 {
		t.Errorf("reads caused %d COW frame copies", copies)
	}
	// One write copies exactly one frame.
	q.Write8(0, 1)
	if _, copies, _ := q.COWStats(); copies != 1 {
		t.Errorf("one write caused %d COW frame copies, want 1", copies)
	}
}

func TestReleaseRestoresInPlaceWrites(t *testing.T) {
	p := NewPhysical()
	p.Write8(0, 1)
	s := p.Clone()
	s.Release()
	p.Write8(0, 2) // sole owner again: no copy
	if _, copies, _ := p.COWStats(); copies != 0 {
		t.Errorf("write after release copied %d frames", copies)
	}
}

// TestReleaseToRecyclesFrozenFrames: releasing a frozen clone into the
// Physical it was frozen from hands that Physical the frames only the
// clone still held, and its next copy-on-write fault reuses one with
// the right bytes, leaving the clone's image alone.
func TestReleaseToRecyclesFrozenFrames(t *testing.T) {
	p := NewPhysical()
	p.Write32(0, 1)
	s := p.Clone()
	p.Write32(0, 2) // the fault leaves s alone holding the old frame
	s.ReleaseTo(p)
	if len(p.free) != 1 {
		t.Fatalf("free list holds %d frames after the release, want 1", len(p.free))
	}
	if sole, n := p.SoleOwnerFrames(), p.FrameCount(); sole != n {
		t.Fatalf("%d of %d frames sole-owned after the release", sole, n)
	}

	s = p.Clone()
	p.Write32(4, 3) // faults a copy off the recycled frame
	if len(p.free) != 0 {
		t.Errorf("the fault left %d frames on the free list, want 0", len(p.free))
	}
	if p.Read32(0) != 2 || p.Read32(4) != 3 || s.Read32(0) != 2 || s.Read32(4) != 0 {
		t.Errorf("words %d/%d live, %d/%d frozen; want 2/3 and 2/0",
			p.Read32(0), p.Read32(4), s.Read32(0), s.Read32(4))
	}
	s.ReleaseTo(p)
}

// TestCOWHammerConcurrentClones is the -race leg's core target: many
// goroutines writing and reading through clones that share frames with
// one template, while each clone freezes a clone of itself and resets
// onto it on the side.
func TestCOWHammerConcurrentClones(t *testing.T) {
	p := NewPhysical()
	const pages = 128
	for i := uint32(0); i < pages; i++ {
		p.Write32(i*PageSize, i)
	}
	base := p.Fingerprint()

	const clones = 8
	var wg sync.WaitGroup
	errs := make(chan error, clones)
	for c := 0; c < clones; c++ {
		q := p.Clone()
		wg.Add(1)
		go func(id uint32, q *Physical) {
			defer wg.Done()
			s := q.Clone()
			defer s.Release()
			for round := 0; round < 3; round++ {
				for i := uint32(0); i < pages; i++ {
					q.Write32(i*PageSize, i*1000+id)
				}
				for i := uint32(0); i < pages; i++ {
					if got := q.Read32(i * PageSize); got != i*1000+id {
						errs <- fmt.Errorf("clone %d: page %d = %d", id, i, got)
						return
					}
				}
				q.ResetTo(s)
				for i := uint32(0); i < pages; i++ {
					if got := q.Read32(i * PageSize); got != i {
						errs <- fmt.Errorf("clone %d after reset: page %d = %d", id, i, got)
						return
					}
				}
			}
		}(uint32(c), q)
	}
	// The template keeps serving reads (and its own writes to fresh
	// pages) while the clones hammer shared frames.
	for i := uint32(0); i < pages; i++ {
		if got := p.Read32(i * PageSize); got != i {
			t.Errorf("template page %d = %d during hammer", i, got)
		}
		p.Write32((pages+i)*PageSize, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Template's original image is untouched by every clone's traffic.
	q := NewPhysical()
	for i := uint32(0); i < pages; i++ {
		q.Write32(i*PageSize, p.Read32(i*PageSize))
	}
	if q.Fingerprint() != base {
		t.Errorf("template image mutated by clone traffic")
	}
}

// TestResetCloneCOWFromFreeList: on a reset clone whose free list holds
// stale frames, a copy-on-write fault takes one of them without
// clearing it first, and the copy still leaves exactly the template's
// bytes plus the write — the same image as a fresh clone given the same
// write. A page the template lacks still materializes zeroed.
func TestResetCloneCOWFromFreeList(t *testing.T) {
	tmpl := NewPhysical()
	for pg := uint32(0); pg < 10; pg++ {
		for off := uint32(0); off < PageSize; off += 4 {
			tmpl.Write32(pg*PageSize+off, pg<<24|off)
		}
	}
	c := tmpl.Clone()
	for pg := uint32(20); pg < 23; pg++ {
		for off := uint32(0); off < PageSize; off++ {
			c.Write8(pg*PageSize+off, 0xEE) // stale bytes for the free list
		}
	}
	c.ResetTo(tmpl)
	free := len(c.free)
	if free == 0 {
		t.Fatal("reset left an empty free list")
	}

	c.Write8(3*PageSize+5, 0xAB)
	if len(c.free) != free-1 {
		t.Fatalf("COW fault took %d free-list frames, want 1", free-len(c.free))
	}
	for off := uint32(0); off < PageSize; off++ {
		want := tmpl.Read8(3*PageSize + off)
		if off == 5 {
			want = 0xAB
		}
		if got := c.Read8(3*PageSize + off); got != want {
			t.Fatalf("COW copy byte %d = %#x, want %#x", off, got, want)
		}
	}
	fresh := tmpl.Clone()
	fresh.Write8(3*PageSize+5, 0xAB)
	if c.Fingerprint() != fresh.Fingerprint() {
		t.Error("reset clone's image differs from a fresh clone's after the same write")
	}

	c.Write8(30*PageSize, 1)
	for off := uint32(1); off < PageSize; off++ {
		if b := c.Read8(30*PageSize + off); b != 0 {
			t.Fatalf("new page byte %d = %#x from a free-list frame, want 0", off, b)
		}
	}
}
