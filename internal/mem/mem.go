// Package mem implements the simulated physical memory and the page
// frame allocator. Physical memory is sparse: 4 KB frames are allocated
// on first touch, so a 4 GB physical address space costs only what is
// actually used.
//
// The frame store is copy-on-write: Snapshot freezes the current frame
// table into an immutable parent, Clone derives a new Physical sharing
// every frame with its source, and the first write through a shared
// frame clones just that frame. Whole-machine snapshot/restore
// (internal/cpu, internal/kernel, internal/core) and O(1) fleet machine
// cloning (internal/fleet) are built on this layer.
package mem

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"
)

// PageSize is the size of a physical page frame in bytes (4 KB, as on
// the Intel x86 architecture).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageMask masks the offset within a page.
const PageMask = PageSize - 1

const (
	// The 20-bit physical frame number is split into a root index and
	// a chunk index; chunks are allocated lazily, so sparse use of the
	// 4 GB physical space stays cheap while every access is two
	// indexed loads instead of a map probe — this sits under every
	// simulated load, store and page-table walk.
	physChunkBits = 10
	physChunkSize = 1 << physChunkBits
	physRootSize  = 1 << (32 - PageShift - physChunkBits)
)

// frame is one 4 KB physical page frame. refs counts how many chunk
// tables reference it; a frame is written in place only while that
// count is 1, so a frame reachable from a snapshot or a clone is
// immutable until the writer clones it off (the COW write fault).
// The count is atomic because clones run on different goroutines.
type frame struct {
	refs atomic.Int32
	data [PageSize]byte
}

// frameSlabSize caps how many frames one slab allocation holds. Frames
// carry no pointers, so a slab is a single no-scan allocation: booting
// a machine costs a handful of slab allocations instead of hundreds of
// individual 4 KB ones, which is what used to drive GC frequency in
// boot-heavy drivers (Table 3 cells, fleets).
//
// Slabs grow geometrically per Physical: 1, 2, 4, … frames, then
// frameSlabSize each. A booting machine reaches full slabs after six
// doublings, while an ephemeral clone that COW-faults one or two
// frames allocates one or two frames rather than a whole slab — the
// per-request heap of clone-per-request serving is proportional to
// what the request writes.
//
// The tradeoff: a slab is retained while ANY of its frames is
// referenced, so a workload that releases almost all of a machine's
// memory but pins a few scattered frames (a sparse long-lived
// snapshot) can retain up to frameSlabSize× the frame bytes the
// refcounts say are live. The same holds for interning: a FrameStore
// canonical frame pins its whole slab for as long as the store lives.
// Machines are normally retained or released wholesale, where the slab
// granule costs nothing.
const frameSlabSize = 64

// newFrame hands out the next frame from this Physical's slab. Slabs
// are per-Physical (each simulated machine is goroutine-owned), so no
// locking is needed; the frames themselves may still be shared
// copy-on-write across Physicals afterwards.
func (p *Physical) newFrame() *frame {
	if len(p.slab) == 0 {
		p.slabLen = min(max(2*p.slabLen, 1), frameSlabSize)
		p.slab = make([]frame, p.slabLen)
	}
	f := &p.slab[0]
	p.slab = p.slab[1:]
	f.refs.Store(1)
	return f
}

// physChunk is one 4 MB-aligned slice of the frame table. refs counts
// how many frame tables (Physicals and Snapshots) reference the chunk;
// the frames array is mutated only while that count is 1. Sharing is
// two-level so Snapshot/Clone touch only the ~1k chunk pointers, not
// every frame.
type physChunk struct {
	refs   atomic.Int32
	frames [physChunkSize]*frame
}

func newChunk() *physChunk {
	c := &physChunk{}
	c.refs.Store(1)
	return c
}

// releaseChunk drops one reference to c, cascading a frame release when
// the chunk itself dies.
func releaseChunk(c *physChunk) {
	if c.refs.Add(-1) == 0 {
		for _, f := range c.frames {
			if f != nil {
				f.refs.Add(-1)
			}
		}
	}
}

// Physical is a sparse, copy-on-write physical memory.
type Physical struct {
	root    [physRootSize]*physChunk
	touched int

	// cowCopies counts frames cloned by write faults; snapshots counts
	// Snapshot calls; deduped counts frames folded onto a canonical
	// FrameStore frame by Intern (diagnostics only — COW and interning
	// charge no simulated cycles, so the non-snapshot paths stay
	// bit-identical).
	cowCopies uint64
	snapshots uint64
	deduped   uint64

	// onRestore, when set (by the MMU observing this memory), runs
	// after every Restore so translation-keyed decode state (the CPU's
	// decoded-block cache generation) is invalidated: the restored
	// frame table may back the same physical addresses with different
	// bytes and different installed code.
	onRestore func()

	// slab batches frame allocation; slabLen is the size of the last
	// slab allocated, doubled for the next one (see newFrame).
	slab    []frame
	slabLen int
}

// NewPhysical returns an empty physical memory.
func NewPhysical() *Physical {
	return &Physical{}
}

// OnRestore registers the restore hook (one consumer: the MMU).
func (p *Physical) OnRestore(fn func()) { p.onRestore = fn }

// exclusiveChunk returns the chunk covering frame number fn with this
// Physical as its sole owner, creating it when absent and splitting it
// off when it is shared with a snapshot or a clone (the chunk-level
// half of the COW write fault).
func (p *Physical) exclusiveChunk(fn uint32) *physChunk {
	ci := fn >> physChunkBits
	c := p.root[ci]
	if c == nil {
		c = newChunk()
		p.root[ci] = c
		return c
	}
	if c.refs.Load() == 1 {
		return c
	}
	nc := newChunk()
	nc.frames = c.frames
	for _, f := range nc.frames {
		if f != nil {
			f.refs.Add(1)
		}
	}
	// Publish the new chunk before dropping the shared one: another
	// owner may treat a refcount of 1 as exclusive the instant the
	// decrement lands, so all our copying must be done by then.
	p.root[ci] = nc
	releaseChunk(c)
	return nc
}

// readFrame returns the frame backing pa for reading. An absent frame
// is allocated zeroed, exactly as the pre-COW store did, so FrameCount
// accounting is unchanged on non-snapshot paths.
func (p *Physical) readFrame(pa uint32) *[PageSize]byte {
	fn := pa >> PageShift
	if c := p.root[fn>>physChunkBits]; c != nil {
		if f := c.frames[fn&(physChunkSize-1)]; f != nil {
			return &f.data
		}
	}
	c := p.exclusiveChunk(fn)
	f := p.newFrame()
	c.frames[fn&(physChunkSize-1)] = f
	p.touched++
	return &f.data
}

// writeFrame returns the frame backing pa for writing, cloning a
// shared frame first (the frame-level half of the COW write fault).
func (p *Physical) writeFrame(pa uint32) *[PageSize]byte {
	fn := pa >> PageShift
	c := p.exclusiveChunk(fn)
	i := fn & (physChunkSize - 1)
	f := c.frames[i]
	if f == nil {
		f = p.newFrame()
		c.frames[i] = f
		p.touched++
		return &f.data
	}
	if f.refs.Load() > 1 {
		nf := p.newFrame()
		nf.data = f.data
		c.frames[i] = nf
		f.refs.Add(-1)
		p.cowCopies++
		f = nf
	}
	return &f.data
}

// Snapshot freezes the current frame table into an immutable parent:
// every chunk becomes shared, so later writes through this Physical
// (or any clone) fault their frame off before mutating it. Snapshots
// charge no simulated cycles and leave all simulated metrics
// untouched. Call Release when the snapshot is no longer needed so
// frames stop being treated as shared.
func (p *Physical) Snapshot() *Snapshot {
	s := &Snapshot{touched: p.touched}
	s.root = p.root
	for _, c := range s.root {
		if c != nil {
			c.refs.Add(1)
		}
	}
	p.snapshots++
	return s
}

// Restore resets the memory image to exactly the snapshot's state and
// fires the restore hook (invalidating translation-keyed decode state
// in the MMU's consumers). The snapshot stays valid and can be
// restored again.
func (p *Physical) Restore(s *Snapshot) {
	if s.released {
		panic("mem: restoring a released snapshot")
	}
	old := p.root
	p.root = s.root
	for _, c := range p.root {
		if c != nil {
			c.refs.Add(1)
		}
	}
	for _, c := range old {
		if c != nil {
			releaseChunk(c)
		}
	}
	p.touched = s.touched
	if p.onRestore != nil {
		p.onRestore()
	}
}

// Clone derives a new Physical whose initial contents are bit-identical
// to p, sharing every frame copy-on-write. The cost is O(chunks), not
// O(bytes): this is what makes whole-machine cloning O(1) in the size
// of memory. The clone may be used from another goroutine; the shared
// refcounts are atomic.
func (p *Physical) Clone() *Physical {
	q := &Physical{touched: p.touched}
	q.root = p.root
	for _, c := range q.root {
		if c != nil {
			c.refs.Add(1)
		}
	}
	return q
}

// Snapshot is an immutable frozen frame table.
type Snapshot struct {
	root     [physRootSize]*physChunk
	touched  int
	released bool
}

// Release drops the snapshot's frame references; restoring it
// afterwards panics. Releasing lets sole-owner frames be written in
// place again instead of being COW-cloned forever.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	for _, c := range s.root {
		if c != nil {
			releaseChunk(c)
		}
	}
}

// ForEachPageRun invokes fn once per maximal page-contained run of
// [addr, addr+n): fn(runAddr, runLen) with runLen clamped so a run
// never crosses a page boundary. It is the single implementation of
// the page-chunking loop used by every page-wise copy path (kernel
// user copies, loader writes, extension-segment staging), so boundary
// arithmetic lives in exactly one place.
func ForEachPageRun(addr uint32, n int, fn func(addr uint32, n int) error) error {
	for n > 0 {
		c := PageSize - int(addr&PageMask)
		if c > n {
			c = n
		}
		if err := fn(addr, c); err != nil {
			return err
		}
		addr += uint32(c)
		n -= c
	}
	return nil
}

// FrameView returns the whole 4 KB frame containing pa for READING.
// The caller must not write through it: a viewed frame may be shared
// copy-on-write with snapshots or clones (use FrameMut for writing).
// Like every read, an absent frame is allocated zeroed. Bulk scanners
// (page-table walks, fingerprinting, copies) use this to replace
// word-at-a-time Read32 loops with direct frame access.
func (p *Physical) FrameView(pa uint32) *[PageSize]byte {
	return p.readFrame(pa)
}

// FrameMut returns the whole 4 KB frame containing pa for WRITING,
// performing the same copy-on-write fault a Write32 would (shared
// chunks and frames are split off first). Bulk writers use it to
// replace word-at-a-time Write32 loops.
func (p *Physical) FrameMut(pa uint32) *[PageSize]byte {
	return p.writeFrame(pa)
}

// FrameViewStable returns the frame containing pa for reading, plus
// whether the caller may keep reading through the returned pointer
// while it performs further accesses on this Physical: true only when
// this Physical is the frame's sole owner (chunk and frame both
// unshared), so no copy-on-write fault triggered by an interleaved
// write can replace the frame underneath a held pointer. A shared
// frame is still returned — valid for this one read — but must not be
// cached: a later write to the same page would clone the frame and
// leave the held pointer reading frozen snapshot bytes. The CPU's
// trace tier uses this to pin frames for a dispatch, during which
// nothing can newly share a frame (Snapshot and Clone never run
// mid-dispatch).
func (p *Physical) FrameViewStable(pa uint32) (*[PageSize]byte, bool) {
	fn := pa >> PageShift
	if c := p.root[fn>>physChunkBits]; c != nil {
		if f := c.frames[fn&(physChunkSize-1)]; f != nil {
			return &f.data, c.refs.Load() == 1 && f.refs.Load() == 1
		}
	}
	return p.readFrame(pa), false
}

// Read8 reads one byte at physical address pa.
func (p *Physical) Read8(pa uint32) byte {
	return p.readFrame(pa)[pa&PageMask]
}

// Write8 writes one byte at physical address pa.
func (p *Physical) Write8(pa uint32, v byte) {
	p.writeFrame(pa)[pa&PageMask] = v
}

// Read32 reads a little-endian 32-bit word at pa. Accesses that
// straddle a frame boundary are assembled byte-wise (the MMU has
// already translated and checked each page).
func (p *Physical) Read32(pa uint32) uint32 {
	if pa&PageMask <= PageSize-4 {
		f := p.readFrame(pa)
		off := pa & PageMask
		return binary.LittleEndian.Uint32(f[off : off+4])
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(p.Read8(pa+i)) << (8 * i)
	}
	return v
}

// Write32 writes a little-endian 32-bit word at pa.
func (p *Physical) Write32(pa uint32, v uint32) {
	if pa&PageMask <= PageSize-4 {
		f := p.writeFrame(pa)
		off := pa & PageMask
		binary.LittleEndian.PutUint32(f[off:off+4], v)
		return
	}
	for i := uint32(0); i < 4; i++ {
		p.Write8(pa+i, byte(v>>(8*i)))
	}
}

// Read16 reads a little-endian 16-bit word at pa.
func (p *Physical) Read16(pa uint32) uint16 {
	return uint16(p.Read8(pa)) | uint16(p.Read8(pa+1))<<8
}

// Write16 writes a little-endian 16-bit word at pa.
func (p *Physical) Write16(pa uint32, v uint16) {
	p.Write8(pa, byte(v))
	p.Write8(pa+1, byte(v>>8))
}

// ReadBytes copies n bytes starting at pa into a new slice.
func (p *Physical) ReadBytes(pa uint32, n int) []byte {
	b := make([]byte, n)
	copied := 0
	for copied < n {
		f := p.readFrame(pa)
		off := int(pa & PageMask)
		c := copy(b[copied:], f[off:])
		copied += c
		pa += uint32(c)
	}
	return b
}

// WriteBytes copies b into physical memory starting at pa.
func (p *Physical) WriteBytes(pa uint32, b []byte) {
	for len(b) > 0 {
		f := p.writeFrame(pa)
		off := int(pa & PageMask)
		c := copy(f[off:], b)
		b = b[c:]
		pa += uint32(c)
	}
}

// Zero clears n bytes starting at pa. A frame that has never been
// touched is born zeroed, so zeroing it only materializes it — this is
// the page-table/stack-page boot path, which used to allocate a zeroed
// frame and then clear it again.
func (p *Physical) Zero(pa uint32, n int) {
	for n > 0 {
		off := int(pa & PageMask)
		c := min(n, PageSize-off)
		fn := pa >> PageShift
		ch := p.root[fn>>physChunkBits]
		if ch == nil || ch.frames[fn&(physChunkSize-1)] == nil {
			// Absent frame: materialize it (already all zero), with
			// the same touch accounting a write would perform.
			ch = p.exclusiveChunk(fn)
			ch.frames[fn&(physChunkSize-1)] = p.newFrame()
			p.touched++
		} else {
			f := p.writeFrame(pa)
			clear(f[off : off+c])
		}
		n -= c
		pa += uint32(c)
	}
}

// FrameCount reports how many frames have been touched.
func (p *Physical) FrameCount() int { return p.touched }

// COWStats reports copy-on-write diagnostics: snapshots taken on this
// Physical, frames cloned by write faults, and resident frames
// replaced by content-addressed interning (Intern) — dedupedFrames is
// how many private frames this Physical gave up in favor of canonical
// FrameStore frames.
func (p *Physical) COWStats() (snapshots, frameCopies, dedupedFrames uint64) {
	return p.snapshots, p.cowCopies, p.deduped
}

// fingerprintSeed is fixed so fingerprints are comparable across
// Physicals within one process (differential tests hash two machines).
var fingerprintSeed = maphash.MakeSeed()

// Fingerprint hashes every touched frame (index and contents) into one
// value; two Physicals with identical allocated frames and identical
// bytes fingerprint equally. It never allocates frames.
func (p *Physical) Fingerprint() uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	var idx [4]byte
	for ci, c := range p.root {
		if c == nil {
			continue
		}
		for fi, f := range c.frames {
			if f == nil {
				continue
			}
			binary.LittleEndian.PutUint32(idx[:], uint32(ci)<<physChunkBits|uint32(fi))
			h.Write(idx[:])
			h.Write(f.data[:])
		}
	}
	return h.Sum64()
}

// FrameAllocator hands out physical page frames from a fixed region of
// physical memory. Frames are identified by their physical base
// address.
type FrameAllocator struct {
	next  uint32
	limit uint32
	free  []uint32
}

// NewFrameAllocator manages frames in [start, start+size).
// Both start and size must be page-aligned.
func NewFrameAllocator(start, size uint32) *FrameAllocator {
	if start&PageMask != 0 || size&PageMask != 0 {
		panic(fmt.Sprintf("mem: unaligned frame region %#x+%#x", start, size))
	}
	return &FrameAllocator{next: start, limit: start + size}
}

// Alloc returns the base physical address of a fresh frame.
func (a *FrameAllocator) Alloc() (uint32, error) {
	if n := len(a.free); n > 0 {
		pa := a.free[n-1]
		a.free = a.free[:n-1]
		return pa, nil
	}
	if a.next >= a.limit {
		return 0, fmt.Errorf("mem: out of physical frames (limit %#x)", a.limit)
	}
	pa := a.next
	a.next += PageSize
	return pa, nil
}

// Free returns a frame to the allocator.
func (a *FrameAllocator) Free(pa uint32) {
	if pa&PageMask != 0 {
		panic(fmt.Sprintf("mem: freeing unaligned frame %#x", pa))
	}
	a.free = append(a.free, pa)
}

// Available reports how many frames can still be allocated.
func (a *FrameAllocator) Available() int {
	return int((a.limit-a.next)/PageSize) + len(a.free)
}

// Clone copies the allocator (cursor and free list) for a cloned
// machine, so both sides keep handing out the same deterministic frame
// sequence their shared history established.
func (a *FrameAllocator) Clone() *FrameAllocator {
	return &FrameAllocator{next: a.next, limit: a.limit, free: slices.Clone(a.free)}
}

// AllocatorState is a FrameAllocator snapshot.
type AllocatorState struct {
	next uint32
	free []uint32
}

// Save captures the allocator state.
func (a *FrameAllocator) Save() AllocatorState {
	return AllocatorState{next: a.next, free: slices.Clone(a.free)}
}

// RestoreState rewinds the allocator to a saved state.
func (a *FrameAllocator) RestoreState(s AllocatorState) {
	a.next = s.next
	a.free = append(a.free[:0], s.free...)
}
