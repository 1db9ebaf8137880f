// Snapshot-to-bytes serialization of a Palladium system and its
// extensible application: the state values of the system, its segments
// and the application, plus the kernel image (which carries the machine
// and the frame store). The structural skeleton — which segments exist,
// where they sit, which modules are loaded, which stubs were generated
// — is NOT
// reconstructed from bytes: LoadFrom restores into a deterministically
// booted twin and validates the image's skeleton against the twin's.
// An image saved from a machine whose post-boot history created new
// segments or loaded extra modules is rejected; palladium restores are
// boot-plus-overlay, not arbitrary-heap resurrection.
package core

import (
	"maps"
	"slices"

	"repro/internal/mem"
	"repro/internal/mmu"
)

func saveRangeList(e *mem.Enc, r *rangeList) {
	e.U32(uint32(len(r.sizes)))
	for _, off := range slices.Sorted(maps.Keys(r.sizes)) {
		e.U32(off)
		e.U32(r.sizes[off])
	}
	e.U32(uint32(len(r.free)))
	for _, sp := range r.free {
		e.U32(sp.off)
		e.U32(sp.size)
	}
}

func loadRangeList(d *mem.Dec, what string) *rangeList {
	r := newRangeList()
	n := d.Len(what+" allocation", 1<<20)
	last := int64(-1)
	for i := 0; i < n; i++ {
		off := d.U32()
		size := d.U32()
		if d.Err() != nil {
			return nil
		}
		if int64(off) <= last {
			d.Failf("%s allocation %#x out of order", what, off)
			return nil
		}
		last = int64(off)
		r.sizes[off] = size
	}
	n = d.Len(what+" free span", 1<<20)
	last = -1
	for i := 0; i < n; i++ {
		sp := span{off: d.U32(), size: d.U32()}
		if d.Err() != nil {
			return nil
		}
		if int64(sp.off) <= last || sp.size == 0 {
			d.Failf("%s free span %#x malformed", what, sp.off)
			return nil
		}
		last = int64(sp.off)
		r.free = append(r.free, sp)
	}
	return r
}

// SaveTo appends the system image: the state value in field order
// (segments with their own state, the EFT as its live names, the
// kernel stub arena as base/cursor/end) first — pure decoding on the
// load side — and the kernel, whose application is the load's point of
// no return, last.
func (s *System) SaveTo(e *mem.Enc) {
	e.U32(s.nextSeg)
	e.U32(uint32(len(s.segs)))
	for _, seg := range s.segs {
		saveSegState(e, &seg.segState)
	}
	// The EFT's live subset: an abort unregisters entry points, so the
	// image may hold fewer names than a fresh boot does.
	e.U32(uint32(len(s.eft)))
	for _, name := range slices.Sorted(maps.Keys(s.eft)) {
		e.String(name)
	}
	saveArenaExtent(e, s.kernPrep)
	saveRangeList(e, s.ktRanges)

	s.K.SaveTo(e)
}

func saveSegState(e *mem.Enc, s *segState) {
	e.String(s.Name)
	e.U32(s.Base)
	e.U32(s.Limit)
	e.U16(uint16(s.Code))
	e.U16(uint16(s.Data))
	e.U32(uint32(len(s.modules)))
	e.U32(s.next)
	saveRangeList(e, s.ranges)
	e.U32(uint32(len(s.mapped)))
	for _, page := range slices.Sorted(maps.Keys(s.mapped)) {
		e.U32(page)
	}
	saveStubArena(e, s.stubs)
	e.Bool(s.aborted)
	e.Bool(s.busy)
	e.I32(int32(s.QueueBound))
	e.U32(uint32(len(s.queue)))
	for _, req := range s.queue {
		e.String(req.fn.Name)
		e.U32(req.arg)
	}
}

func saveStubArena(e *mem.Enc, a *stubArena) {
	e.Bool(a != nil)
	if a != nil {
		saveArenaExtent(e, a)
	}
}

func saveArenaExtent(e *mem.Enc, a *stubArena) {
	e.U32(a.base)
	e.U32(a.next)
	e.U32(a.end)
}

// loadStubArena decodes an arena saved by saveStubArena, which may be
// absent exactly when the booted twin has none.
func loadStubArena(d *mem.Dec, what string, twin *stubArena) *stubArena {
	if d.Bool() {
		return loadArenaExtent(d, what, twin)
	}
	if d.Err() == nil && twin != nil {
		d.Failf("%s has no stub arena in image but one in booted twin", what)
	}
	return nil
}

// loadArenaExtent decodes an arena extent into a copy of the booted
// twin's arena, which must cover the same range.
func loadArenaExtent(d *mem.Dec, what string, twin *stubArena) *stubArena {
	base, next, end := d.U32(), d.U32(), d.U32()
	if d.Err() != nil {
		return nil
	}
	if twin == nil || base != twin.base || end != twin.end {
		d.Failf("%s stub arena differs from booted twin's", what)
		return nil
	}
	if next < base || next > end {
		d.Failf("%s stub cursor %#x outside arena", what, next)
		return nil
	}
	a := *twin
	a.next = next
	return &a
}

// LoadFrom decodes a SaveTo image into this system, which must be a
// deterministically booted twin (same boot path and post-boot segment/
// module history as the saved system's boot). The core-level image
// decodes into staged state values, validated against the twin's
// skeleton, before the kernel — the first mutating step — loads; the
// staged values are then applied whole. A corrupt kernel image can
// fail after the kernel has applied part of it (see Kernel.LoadFrom),
// so a system whose LoadFrom failed must be discarded.
func (s *System) LoadFrom(d *mem.Dec) error {
	st := s.systemState
	st.nextSeg = d.U32()
	nSegs := d.Len("extension segment", 1<<16)
	if d.Err() == nil && nSegs != len(s.segs) {
		d.Failf("image has %d extension segments, booted twin has %d", nSegs, len(s.segs))
	}
	if d.Err() != nil {
		return d.Err()
	}
	segs := make([]segState, nSegs)
	for i, seg := range s.segs {
		if err := s.loadSegState(d, &segs[i], seg); err != nil {
			return err
		}
	}

	nEFT := d.Len("extension function", 1<<20)
	st.eft = make(map[string]*KernelExtensionFunc, nEFT)
	for i := 0; i < nEFT; i++ {
		name := d.String()
		if d.Err() != nil {
			return d.Err()
		}
		if s.eft[name] == nil {
			d.Failf("extension function %q not registered in booted twin", name)
			return d.Err()
		}
		st.eft[name] = s.eft[name]
	}
	st.kernPrep = loadArenaExtent(d, "kernel", s.kernPrep)
	if st.ktRanges = loadRangeList(d, "kernel text"); st.ktRanges == nil {
		return d.Err()
	}

	// The kernel is the point of no return: on success the machine,
	// memory and process table are the image's, and the core-level
	// apply below cannot fail. On error the kernel may hold part of the
	// image, and the caller discards this system.
	if err := s.K.LoadFrom(d); err != nil {
		return err
	}
	s.systemState = st
	for i, seg := range s.segs {
		seg.segState = segs[i]
	}
	return nil
}

// loadSegState decodes one segment's state into ss, validating its
// skeleton (placement, descriptors, module count, stub arena extent)
// against the booted twin's segment; the twin's module images are kept.
func (s *System) loadSegState(d *mem.Dec, ss *segState, seg *ExtSegment) error {
	ss.Name = d.String()
	ss.Base = d.U32()
	ss.Limit = d.U32()
	ss.Code = mmu.Selector(d.U16())
	ss.Data = mmu.Selector(d.U16())
	nMods := d.U32()
	if d.Err() != nil {
		return d.Err()
	}
	if ss.Name != seg.Name || ss.Base != seg.Base || ss.Limit != seg.Limit || ss.Code != seg.Code || ss.Data != seg.Data {
		d.Failf("segment is %q@%#x in image, %q@%#x in booted twin", ss.Name, ss.Base, seg.Name, seg.Base)
		return d.Err()
	}
	if int(nMods) != len(seg.modules) {
		d.Failf("segment %q holds %d modules in image, %d in booted twin", ss.Name, nMods, len(seg.modules))
		return d.Err()
	}
	ss.modules = seg.modules
	ss.next = d.U32()
	if ss.ranges = loadRangeList(d, "segment"); ss.ranges == nil {
		return d.Err()
	}
	nMapped := d.Len("mapped page", 1<<20)
	ss.mapped = make(map[uint32]bool, nMapped)
	lastPage := int64(-1)
	for j := 0; j < nMapped; j++ {
		page := d.U32()
		if d.Err() != nil {
			return d.Err()
		}
		if int64(page) <= lastPage || page&uint32(mem.PageMask) != 0 {
			d.Failf("segment %q mapped page %#x malformed", ss.Name, page)
			return d.Err()
		}
		lastPage = int64(page)
		ss.mapped[page] = true
	}
	if ss.stubs = loadStubArena(d, "segment "+ss.Name, seg.stubs); d.Err() != nil {
		return d.Err()
	}
	ss.aborted = d.Bool()
	ss.busy = d.Bool()
	ss.QueueBound = int(d.I32())
	nQueue := d.Len("async request", 1<<20)
	for j := 0; j < nQueue; j++ {
		fnName := d.String()
		arg := d.U32()
		if d.Err() != nil {
			return d.Err()
		}
		fn := s.eft[fnName]
		if fn == nil {
			d.Failf("queued request for %q not in booted twin's function table", fnName)
			return d.Err()
		}
		ss.queue = append(ss.queue, asyncReq{fn: fn, arg: arg})
	}
	return d.Err()
}

// SaveTo appends the application's state value in field order. The
// application's skeleton — its process, loaded modules, generated
// stubs — lives in the kernel image and the twin's boot; what the app
// object itself adds are addresses and cursors.
func (a *App) SaveTo(e *mem.Enc) {
	s := &a.appState
	e.Bool(s.promoted)
	e.I32(int32(a.P.PID))
	e.U32(s.spSave)
	e.U32(s.bpSave)
	e.U32(s.extStackTop)
	e.U32(s.argSlot)
	e.U16(uint16(s.appGateSel))
	e.U32(s.gateAddr)
	e.U32(s.callStack)
	e.U32(s.svcNext)
	e.U32(s.xheap)
	e.U32(s.xheapEnd)
	e.U64(s.maxInstr)
	e.U32(uint32(s.handleCount))
	e.U32(s.intraCaller)
	e.U32(s.intraTarget)
	saveStubArena(e, s.stubs)
}

// LoadFrom decodes an application image against this booted twin app.
// Boot-structural fields must match (a mismatch means the twin was not
// booted the way the saved machine was); cursors restore. Must be
// called after the owning System.LoadFrom so the PID check sees the
// restored process table.
func (a *App) LoadFrom(d *mem.Dec) error {
	var s appState
	s.promoted = d.Bool()
	pid := int(d.I32())
	if d.Err() == nil && s.promoted != a.promoted {
		d.Failf("image app promoted=%v, booted twin promoted=%v", s.promoted, a.promoted)
	}
	if d.Err() == nil && pid != a.P.PID {
		d.Failf("image app is process %d, booted twin's is %d", pid, a.P.PID)
	}
	s.spSave = d.U32()
	s.bpSave = d.U32()
	s.extStackTop = d.U32()
	s.argSlot = d.U32()
	s.appGateSel = mmu.Selector(d.U16())
	s.gateAddr = d.U32()
	s.callStack = d.U32()
	s.svcNext = d.U32()
	s.xheap = d.U32()
	s.xheapEnd = d.U32()
	s.maxInstr = d.U64()
	s.handleCount = int(d.U32())
	s.intraCaller = d.U32()
	s.intraTarget = d.U32()
	if d.Err() == nil && (s.appGateSel != a.appGateSel || s.gateAddr != a.gateAddr) {
		d.Failf("image app call gate %#x@%#x differs from booted twin's", s.appGateSel, s.gateAddr)
	}
	if d.Err() == nil && s.handleCount != a.handleCount {
		d.Failf("image app loaded %d modules, booted twin loaded %d", s.handleCount, a.handleCount)
	}
	s.stubs = loadStubArena(d, "app", a.stubs)
	if err := d.Err(); err != nil {
		return err
	}
	a.appState = s
	return nil
}
