package core

import (
	"fmt"
	"slices"
)

// span is one reusable freed range (page-granular offsets).
type span struct{ off, size uint32 }

// rangeList turns a bump allocator into a real one: it remembers the
// size of every live allocation and keeps freed ranges on a sorted,
// coalesced free list for first-fit reuse. ExtSegment and the kernel
// text space use it so FreeRange actually returns memory (the seed's
// FreeRange silently leaked every range).
type rangeList struct {
	sizes map[uint32]uint32 // base -> size of live allocations
	free  []span            // sorted by offset, adjacent spans coalesced
}

func newRangeList() *rangeList {
	return &rangeList{sizes: make(map[uint32]uint32)}
}

// takeFree carves size bytes out of the free list (first fit),
// reporting ok=false when no span is large enough.
func (r *rangeList) takeFree(size uint32) (uint32, bool) {
	for i, sp := range r.free {
		if sp.size < size {
			continue
		}
		off := sp.off
		if sp.size == size {
			r.free = slices.Delete(r.free, i, i+1)
		} else {
			r.free[i] = span{off: sp.off + size, size: sp.size - size}
		}
		return off, true
	}
	return 0, false
}

// noteAlloc records a live allocation so release knows its size.
func (r *rangeList) noteAlloc(off, size uint32) { r.sizes[off] = size }

// release frees a live allocation, inserting it into the free list and
// coalescing with its neighbours.
func (r *rangeList) release(off uint32) error {
	size, ok := r.sizes[off]
	if !ok {
		return fmt.Errorf("palladium: freeing unallocated range at %#x", off)
	}
	delete(r.sizes, off)
	i, _ := slices.BinarySearchFunc(r.free, off, func(sp span, o uint32) int {
		if sp.off < o {
			return -1
		}
		if sp.off > o {
			return 1
		}
		return 0
	})
	r.free = slices.Insert(r.free, i, span{off: off, size: size})
	// Coalesce with the successor, then the predecessor.
	if i+1 < len(r.free) && r.free[i].off+r.free[i].size == r.free[i+1].off {
		r.free[i].size += r.free[i+1].size
		r.free = slices.Delete(r.free, i+1, i+2)
	}
	if i > 0 && r.free[i-1].off+r.free[i-1].size == r.free[i].off {
		r.free[i-1].size += r.free[i].size
		r.free = slices.Delete(r.free, i, i+1)
	}
	return nil
}

// resetTo rewinds the range list in place to a copy of t, or returns
// a new copy when r is nil (an empty clone's), and returns it.
func (r *rangeList) resetTo(t *rangeList) *rangeList {
	if r == nil {
		r = new(rangeList)
	}
	r.sizes = refill(r.sizes, t.sizes)
	r.free = append(r.free[:0], t.free...)
	return r
}
