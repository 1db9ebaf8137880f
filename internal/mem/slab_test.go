package mem

import (
	"runtime"
	"testing"
	"weak"
)

// slabAllocs touches frames one at a time through touch and reports
// how many slab allocations p made and how many frames they held.
// Each touch must materialize at most one frame.
func slabAllocs(p *Physical, n int, touch func(i int)) (allocs, frames int) {
	for i := 0; i < n; i++ {
		empty := len(p.slab) == 0
		before := p.FrameCount()
		_, copies0, _ := p.COWStats()
		touch(i)
		_, copies1, _ := p.COWStats()
		if empty && (p.FrameCount() != before || copies1 != copies0) {
			allocs++
			frames += p.slabLen
		}
	}
	return allocs, frames
}

// TestCloneCOWFaultAllocatesFewFrames pins the point of geometric slab
// growth: an ephemeral clone that COW-faults one frame allocates a slab
// sized for that fault, not a full frameSlabSize slab.
func TestCloneCOWFaultAllocatesFewFrames(t *testing.T) {
	p := NewPhysical()
	for i := uint32(0); i < 100; i++ {
		p.Write32(i*PageSize, i)
	}
	q := p.Clone()
	allocs, frames := slabAllocs(q, 1, func(int) { q.Write32(7*PageSize, 1) })
	if _, copies, _ := q.COWStats(); copies != 1 {
		t.Fatalf("write caused %d COW copies, want 1", copies)
	}
	if allocs != 1 || frames > 2 {
		t.Errorf("one COW fault made %d slab allocations holding %d frames, want 1 holding <= 2", allocs, frames)
	}
	if p.Read32(7*PageSize) != 7 || q.Read32(7*PageSize) != 1 {
		t.Errorf("COW fault lost isolation")
	}
}

// TestSlabGrowthBoundsAllocations: slabs double up to frameSlabSize, so
// touching n frames costs at most log2(frameSlabSize) + ceil(n /
// frameSlabSize) slab allocations, and no slab exceeds the cap.
func TestSlabGrowthBoundsAllocations(t *testing.T) {
	const n = 200
	p := NewPhysical()
	allocs, frames := slabAllocs(p, n, func(i int) { p.Write8(uint32(i)*PageSize, 1) })
	const log2Cap = 6 // log2(frameSlabSize)
	if limit := log2Cap + (n+frameSlabSize-1)/frameSlabSize; allocs > limit {
		t.Errorf("%d frames took %d slab allocations, want <= %d", n, allocs, limit)
	}
	if frames < n {
		t.Errorf("slabs held %d frames for %d touched", frames, n)
	}
	if p.slabLen != frameSlabSize {
		t.Errorf("slab size after %d frames = %d, want the %d cap", n, p.slabLen, frameSlabSize)
	}
	if p.FrameCount() != n {
		t.Errorf("FrameCount %d, want %d", p.FrameCount(), n)
	}
}

// TestReleaseDropsSlabTail: a released Physical that is still
// referenced must not pin the unused tail of its last slab.
func TestReleaseDropsSlabTail(t *testing.T) {
	p := NewPhysical()
	p.Write8(0, 1)        // a 1-frame slab, used up
	p.Write8(PageSize, 1) // a 2-frame slab, one frame left over
	if len(p.slab) == 0 {
		t.Fatal("precondition: want an unused slab tail")
	}
	tail := weak.Make(&p.slab[0])
	p.Release()
	runtime.GC()
	if tail.Value() != nil {
		t.Error("released Physical still pins its slab")
	}
	if p.FrameCount() != 0 {
		t.Errorf("FrameCount after Release = %d", p.FrameCount())
	}
	runtime.KeepAlive(p)
}
