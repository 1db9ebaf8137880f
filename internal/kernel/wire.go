// Snapshot-to-bytes serialization of the kernel. Like Clone and
// ResetTo, the byte image carries the kernel's state value — process
// table, cursors, cost sheet, console — plus the allocator and the
// whole machine (cpu + mmu + clock + physical frames). What a byte
// stream cannot carry are the Go closures the kernel is made of:
// syscall handlers, kernel services, per-process signal handlers, timer
// subscribers. LoadFrom therefore restores INTO a deterministically
// booted twin kernel and validates the image's endpoint registries
// against the twin's closures instead of replacing them.
package kernel

import (
	"maps"
	"slices"

	"repro/internal/mem"
	"repro/internal/mmu"
)

// SaveTo appends the kernel image: the template CR3 (validated on
// load), the state value in field order, the tick-subscriber count
// (validated), then the machine (which serializes the MMU and clock,
// and whose load step is the first to mutate), the allocator and the
// physical frames.
func (k *Kernel) SaveTo(e *mem.Enc) {
	e.U32(k.kernelTemplate.CR3())
	s := &k.kernelState
	e.I32(int32(s.nextPID))
	cur := int32(-1)
	if s.cur != nil {
		cur = int32(s.cur.PID)
	}
	e.I32(cur)

	e.U32(uint32(len(s.procs)))
	for _, pid := range slices.Sorted(maps.Keys(s.procs)) {
		p := s.procs[pid]
		e.I32(int32(p.PID))
		e.I32(int32(p.Parent))
		e.U8(uint8(p.TaskSPL))
		e.U32(p.AS.CR3())
		e.U32(p.Brk)
		e.U32(p.mmapPtr)
		e.U32(p.KStackTop)
		e.U32(p.Ring2StackTop)
		e.Bool(p.Exited)
		e.I32(int32(p.ExitCode))
		e.Bool(p.LastSignal != nil)
		if p.LastSignal != nil {
			// The *mmu.Fault detail is a host-side diagnostic and is
			// not serialized; signal number and reason round-trip.
			e.I32(int32(p.LastSignal.Sig))
			e.String(p.LastSignal.Reason)
		}
		e.U32(uint32(len(p.Regions)))
		for _, r := range p.Regions {
			e.String(r.Name)
			e.U32(r.Start)
			e.U32(r.End)
			e.Bool(r.Writable)
			e.Bool(r.ForcePPL1)
		}
	}

	e.U32(s.nextKStack)
	e.U32(uint32(len(s.freeKStacks)))
	for _, slot := range s.freeKStacks {
		e.U32(slot)
	}
	e.U32(s.nextKHeap)
	e.U32(s.nextSvcAddr)
	e.I32(int32(s.nextGate))
	e.U32(s.svcSyscallAddr)
	e.U32(s.svcKSvcAddr)

	saveKeySet(e, s.syscalls)
	saveKeySet(e, s.kernelServices)

	for _, v := range costsFields(s.Costs) {
		e.F64(*v)
	}
	e.F64(s.ExtTimeLimit)
	e.F64(s.extDeadline)
	e.U32(uint32(len(k.tickFns)))
	e.Bytes(s.ConsoleOut)

	k.Machine.SaveTo(e)
	k.Alloc.SaveTo(e)
	k.Phys.SaveTo(e)
}

func saveKeySet(e *mem.Enc, m map[uint32]SyscallFn) {
	e.U32(uint32(len(m)))
	for _, nr := range slices.Sorted(maps.Keys(m)) {
		e.U32(nr)
	}
}

// costsFields enumerates every CostSheet field in wire order. A new
// cost must be added here to round-trip (TestCostSheetWireCoverage
// checks that every field of the struct is listed).
func costsFields(c *CostSheet) []*float64 {
	return []*float64{
		&c.SyscallEntry, &c.SyscallExit, &c.ContextSwitch,
		&c.Fork, &c.Exec,
		&c.PFHandler, &c.GPHandler, &c.SignalDeliver,
		&c.PPLMarkStart, &c.PPLMarkPerPage,
		&c.CopyPerByte, &c.MapPage,
		&c.DlopenBase, &c.DlopenPerSymbol, &c.DlopenPerPage,
		&c.TimerTick,
	}
}

// LoadFrom decodes a SaveTo image into this kernel, which must be a
// deterministically booted twin. The image decodes into a staged state
// value that is validated against the twin and then applied whole, so a
// corrupt image never yields a half-restored kernel. Processes the twin
// has under the same PID are restored in place, as ResetTo does, and
// keep the twin's signal handlers; new processes have none.
func (k *Kernel) LoadFrom(d *mem.Dec) error {
	ktCR3 := d.U32()
	if d.Err() == nil && ktCR3 != k.kernelTemplate.CR3() {
		d.Failf("kernel template CR3 %#x does not match booted twin's %#x", ktCR3, k.kernelTemplate.CR3())
	}
	var s kernelState
	s.nextPID = int(d.I32())
	curPID := int(d.I32())

	nProcs := d.Len("process", 1<<20)
	s.procs = make(map[int]*Process, nProcs)
	lastPID := -1 << 30
	for i := 0; i < nProcs; i++ {
		p := &Process{}
		p.PID = int(d.I32())
		if d.Err() == nil && p.PID <= lastPID {
			d.Failf("process %d out of order", p.PID)
		}
		lastPID = p.PID
		p.Parent = int(d.I32())
		spl := d.U8()
		if d.Err() == nil && (spl < 2 || spl > 3) {
			d.Failf("process %d has SPL %d", p.PID, spl)
		}
		p.TaskSPL = int(spl)
		cr3 := d.U32()
		p.Brk = d.U32()
		p.mmapPtr = d.U32()
		p.KStackTop = d.U32()
		p.Ring2StackTop = d.U32()
		p.Exited = d.Bool()
		p.ExitCode = int(d.I32())
		if d.Bool() {
			p.LastSignal = &SignalInfo{Sig: int(d.I32()), Reason: d.String()}
		}
		nRegions := d.Len("vm region", 1<<16)
		for j := 0; j < nRegions; j++ {
			r := &VMRegion{
				Name: d.String(), Start: d.U32(), End: d.U32(),
				Writable: d.Bool(), ForcePPL1: d.Bool(),
			}
			if d.Err() == nil && (r.Start&uint32(mem.PageMask) != 0 || r.End&uint32(mem.PageMask) != 0 || r.End <= r.Start) {
				d.Failf("process %d region %q [%#x,%#x) malformed", p.PID, r.Name, r.Start, r.End)
			}
			p.Regions = append(p.Regions, r)
		}
		if d.Err() != nil {
			return d.Err()
		}
		if cr3&uint32(mem.PageMask) != 0 {
			d.Failf("process %d CR3 %#x not page aligned", p.PID, cr3)
			return d.Err()
		}
		// Wrapper objects only: contents live in the frame image.
		p.AS = mmu.AdoptAddressSpace(k.Phys, k.Alloc, cr3)
		s.procs[p.PID] = p
	}

	s.nextKStack = d.U32()
	if err := s.loadFreeKStacks(d); err != nil {
		return err
	}
	s.nextKHeap = d.U32()
	s.nextSvcAddr = d.U32()
	s.nextGate = int(d.I32())
	s.svcSyscallAddr = d.U32()
	s.svcKSvcAddr = d.U32()
	if d.Err() == nil && (s.svcSyscallAddr != k.svcSyscallAddr || s.svcKSvcAddr != k.svcKSvcAddr) {
		d.Failf("trusted endpoint addresses %#x/%#x do not match booted twin's %#x/%#x",
			s.svcSyscallAddr, s.svcKSvcAddr, k.svcSyscallAddr, k.svcKSvcAddr)
	}

	// The endpoint registries are validated and kept: their handlers
	// are closures only the twin's boot could construct.
	if err := checkKeySet(d, "syscall", k.syscalls); err != nil {
		return err
	}
	if err := checkKeySet(d, "kernel service", k.kernelServices); err != nil {
		return err
	}
	s.syscalls, s.kernelServices = k.syscalls, k.kernelServices

	s.Costs = &CostSheet{}
	for _, v := range costsFields(s.Costs) {
		*v = d.NonNegF64("kernel cost")
	}
	s.ExtTimeLimit = d.NonNegF64("extension time limit")
	s.extDeadline = d.NonNegF64("extension deadline")
	if tickLen := d.U32(); d.Err() == nil && int64(tickLen) != int64(len(k.tickFns)) {
		d.Failf("image has %d timer subscribers, booted twin has %d", tickLen, len(k.tickFns))
	}
	s.ConsoleOut = slices.Clone(d.Bytes())
	if err := d.Err(); err != nil {
		return err
	}

	// cur must name a serialized process (or be absent).
	if curPID >= 0 {
		if s.cur = s.procs[curPID]; s.cur == nil {
			d.Failf("current process %d not in image", curPID)
			return d.Err()
		}
	}

	// The machine decodes next, adopting the staged processes' address
	// spaces for its current CR3.
	adopt := func(cr3 uint32) *mmu.AddressSpace { return k.spaceFor(s.procs, cr3) }
	if err := k.Machine.LoadFrom(d, adopt); err != nil {
		return err
	}

	// Allocator and frames: stage, then adopt. From here on nothing
	// fails; the machine application above was the first mutation.
	stagedAlloc := k.Alloc.Clone()
	if err := stagedAlloc.LoadFrom(d); err != nil {
		return err
	}
	physImg, err := mem.DecodePhysImage(d)
	if err != nil {
		return err
	}
	k.Phys.AdoptImage(physImg)
	*k.Alloc = *stagedAlloc

	live := k.procs
	k.kernelState = s
	k.restoreInPlace(live)
	return nil
}

// loadFreeKStacks checks the decoded kernel-stack cursor and decodes
// the free list, refusing a cursor off the slot grid, more slots than a
// kernel has, a slot that is not a slot base below the cursor, and a
// slot listed twice: each would let a process's kernel stack land on
// another's or outside the stack region.
func (s *kernelState) loadFreeKStacks(d *mem.Dec) error {
	if d.Err() == nil && (s.nextKStack < kStackBase || s.nextKStack > kHeapBase || (s.nextKStack-kStackBase)%kStackSlot != 0) {
		d.Failf("kernel stack cursor %#x is off the slot grid", s.nextKStack)
	}
	n := d.Len("free kernel stack", maxProcesses)
	seen := make(map[uint32]bool, n)
	for i := 0; i < n; i++ {
		slot := d.U32()
		if d.Err() != nil {
			return d.Err()
		}
		if slot < kStackBase || (slot-kStackBase)%kStackSlot != 0 || slot >= s.nextKStack || seen[slot] {
			d.Failf("free kernel stack %#x is misaligned, not yet allocated or listed twice", slot)
			return d.Err()
		}
		seen[slot] = true
		s.freeKStacks = append(s.freeKStacks, slot)
	}
	return d.Err()
}

// restoreInPlace moves each loaded process into the struct that held
// the same PID in live, so pointers to it stay valid, keeping that
// struct's signal handler, which a byte image cannot carry.
func (k *Kernel) restoreInPlace(live map[int]*Process) {
	for pid, p := range k.procs {
		orig := live[pid]
		if orig == nil {
			continue
		}
		p.SignalHandler = orig.SignalHandler
		*orig = *p
		k.procs[pid] = orig
		if k.cur == p {
			k.cur = orig
		}
	}
}

func checkKeySet(d *mem.Dec, what string, m map[uint32]SyscallFn) error {
	n := d.Len(what, 1<<20)
	if d.Err() == nil && n != len(m) {
		d.Failf("image has %d %s entries, booted twin has %d", n, what, len(m))
	}
	for i := 0; i < n; i++ {
		nr := d.U32()
		if d.Err() != nil {
			return d.Err()
		}
		if _, ok := m[nr]; !ok {
			d.Failf("%s %#x in image not registered in booted twin", what, nr)
			return d.Err()
		}
	}
	return d.Err()
}
