package kernel

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// VMRegion is one mmap'd range of a process's user address space.
// Pages are faulted in on demand; Writable regions of an SPL-2 process
// are marked PPL 0 at fault time, exactly as the modified mmap of
// Section 4.5.2 prescribes.
type VMRegion struct {
	Name     string
	Start    uint32 // inclusive, page aligned
	End      uint32 // exclusive, page aligned
	Writable bool
	// ForcePPL1 pins the region's pages at PPL 1 regardless of the
	// process SPL (extension segments, shared data areas).
	ForcePPL1 bool
}

func (r *VMRegion) contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// Signal numbers (the subset the kernel delivers).
const (
	SIGSEGV = 11
	SIGKILL = 9
	SIGXCPU = 24
)

// SignalInfo describes a delivered signal.
type SignalInfo struct {
	Sig   int
	Fault *mmu.Fault // non-nil for SIGSEGV
	// Reason is a human-readable cause ("extension time limit", ...).
	Reason string
}

// Process is the kernel's task structure. TaskSPL is the paper's new
// task_struct field: the process's logical segment privilege level —
// 3 for ordinary processes, 2 once init_PL promotes an extensible
// application.
type Process struct {
	PID     int
	Parent  int
	TaskSPL int
	AS      *mmu.AddressSpace

	Regions []*VMRegion
	Brk     uint32
	mmapPtr uint32

	// KStackTop is the linear top of the per-process kernel stack.
	KStackTop uint32
	// Ring2StackTop is the ring-2 stack offset kept in the TSS once
	// the process is at SPL 2.
	Ring2StackTop uint32

	// SignalHandler receives signals (the extensible application "is
	// supposed to have a signal handler to deal with such errors").
	SignalHandler func(SignalInfo)
	// LastSignal records the most recent delivery for inspection.
	LastSignal *SignalInfo

	// Exited reports process termination.
	Exited   bool
	ExitCode int
}

// copy duplicates the process and its regions. The address space is
// shared: it is a wrapper around a CR3 value in simulated memory.
func (p *Process) copy() *Process {
	c := *p
	c.Regions = copyRegions(p.Regions)
	return &c
}

// resetTo rewinds p in place to t, a process of the kernel this one
// was cloned from, reusing p's region structs when the count matches.
// p keeps its own address-space wrapper while it covers t's page
// directory; otherwise it adopts one over phys.
func (p *Process) resetTo(t *Process, phys *mem.Physical, alloc *mem.FrameAllocator) {
	regions, as := p.Regions, p.AS
	*p = *t
	if len(regions) == len(t.Regions) {
		for i, r := range t.Regions {
			*regions[i] = *r
		}
		p.Regions = regions
	} else {
		p.Regions = copyRegions(t.Regions)
	}
	if as == nil || as.CR3() != t.AS.CR3() {
		as = mmu.AdoptAddressSpace(phys, alloc, t.AS.CR3())
	}
	p.AS = as
}

func copyRegions(rs []*VMRegion) []*VMRegion {
	out := make([]*VMRegion, len(rs))
	for i, r := range rs {
		r2 := *r
		out[i] = &r2
	}
	return out
}

// CreateProcess builds a fresh SPL-3 process with an empty user
// address space sharing the kernel half, plus stack and heap regions.
// Its kernel stack is the slot an exited process gave back last, or
// else a new one, so at most maxProcesses processes are live at once;
// past that CreateProcess fails, with no side effects, rather than map
// a stack over the kernel heap.
func (k *Kernel) CreateProcess() (*Process, error) {
	if len(k.freeKStacks) == 0 && k.nextKStack >= kHeapBase {
		return nil, fmt.Errorf("kernel: out of kernel stacks with %d live processes", maxProcesses)
	}
	as, err := mmu.NewAddressSpace(k.Phys, k.Alloc)
	if err != nil {
		return nil, err
	}
	as.ShareRangeFrom(k.kernelTemplate, KernelBase, 0xFFFF_F000)

	p := &Process{
		PID:     k.nextPID,
		TaskSPL: 3,
		AS:      as,
		Brk:     UserTextBase,
		mmapPtr: MmapBase,
	}
	k.nextPID++
	k.procs[p.PID] = p

	// Kernel stack: one page in the shared kernel region. A recycled
	// slot keeps its page mapped; dropping its translation leaves the
	// TLB exactly as a freshly mapped slot would.
	kstack := k.nextKStack
	if n := len(k.freeKStacks); n > 0 {
		kstack = k.freeKStacks[n-1]
		k.freeKStacks = k.freeKStacks[:n-1]
		k.MMU.InvalidatePage(kstack)
	} else {
		k.nextKStack += kStackSlot
		if _, err := k.MapKernelPage(kstack, true); err != nil {
			return nil, err
		}
	}
	p.KStackTop = kstack + mem.PageSize

	// User stack region (grows down from StackTop).
	p.Regions = append(p.Regions, &VMRegion{
		Name: "stack", Start: StackTop - 64*mem.PageSize, End: StackTop, Writable: true,
	})
	if k.cur == nil {
		k.schedule(p)
	}
	return p, nil
}

// Fork duplicates the current process: memory map, regions, TaskSPL
// and page privilege levels are inherited (Section 4.5.2).
func (k *Kernel) Fork(parent *Process) (*Process, error) {
	k.Clock.Add(k.Costs.Fork)
	child, err := k.CreateProcess()
	if err != nil {
		return nil, err
	}
	child.Parent = parent.PID
	child.TaskSPL = parent.TaskSPL
	child.Brk = parent.Brk
	child.mmapPtr = parent.mmapPtr
	child.Ring2StackTop = parent.Ring2StackTop
	child.Regions = copyRegions(parent.Regions)
	// Deep-copy the user half (frames shared copy-on-nothing: this
	// simulator shares frames outright, which is sufficient since
	// Table 3's CGI model only prices the fork).
	if err := child.AS.CopyRangeFrom(parent.AS, 0, UserLimit); err != nil {
		return nil, err
	}
	return child, nil
}

// Exec replaces the process image: fresh user address space, and the
// privilege levels are *not* inherited — the process restarts at
// SPL 3 (Section 4.5.2).
func (k *Kernel) Exec(p *Process) error {
	k.Clock.Add(k.Costs.Exec)
	as, err := mmu.NewAddressSpace(k.Phys, k.Alloc)
	if err != nil {
		return err
	}
	as.ShareRangeFrom(k.kernelTemplate, KernelBase, 0xFFFF_F000)
	p.AS = as
	p.TaskSPL = 3
	p.Regions = []*VMRegion{{
		Name: "stack", Start: StackTop - 64*mem.PageSize, End: StackTop, Writable: true,
	}}
	p.Brk = UserTextBase
	p.mmapPtr = MmapBase
	p.Ring2StackTop = 0
	if k.cur == p {
		k.MMU.LoadCR3(p.AS)
	}
	return nil
}

// Exit terminates a process and gives its kernel-stack slot back for
// the next CreateProcess. Exiting an exited process frees nothing.
func (k *Kernel) Exit(p *Process, code int) {
	if !p.Exited {
		k.freeKStacks = append(k.freeKStacks, p.KStackTop-mem.PageSize)
	}
	p.Exited = true
	p.ExitCode = code
	delete(k.procs, p.PID)
}

// Mmap creates a demand-paged region of n bytes. With addr == 0 the
// kernel chooses the address (the mmap area of Figure 2). The region's
// pages materialize at page-fault time; their PPL follows the
// modified-mmap rule.
func (p *Process) Mmap(k *Kernel, addr, n uint32, writable bool, name string) (uint32, error) {
	k.chargeSyscallSoftware()
	return p.mmapInternal(k, addr, n, writable, false, name)
}

// MmapPPL1 is Mmap for regions pinned at PPL 1 (extension segments and
// shared data areas).
func (p *Process) MmapPPL1(k *Kernel, addr, n uint32, writable bool, name string) (uint32, error) {
	k.chargeSyscallSoftware()
	return p.mmapInternal(k, addr, n, writable, true, name)
}

func (p *Process) mmapInternal(k *Kernel, addr, n uint32, writable, forcePPL1 bool, name string) (uint32, error) {
	n = (n + mem.PageMask) &^ uint32(mem.PageMask)
	if n == 0 {
		return 0, fmt.Errorf("mmap: zero length")
	}
	if addr == 0 {
		addr = p.mmapPtr
		p.mmapPtr += n + mem.PageSize // guard gap
	}
	if addr&mem.PageMask != 0 {
		return 0, fmt.Errorf("mmap: unaligned address %#x", addr)
	}
	if addr+n-1 > UserLimit {
		return 0, fmt.Errorf("mmap: beyond user space")
	}
	for _, r := range p.Regions {
		if addr < r.End && r.Start < addr+n {
			return 0, fmt.Errorf("mmap: overlaps region %s", r.Name)
		}
	}
	p.Regions = append(p.Regions, &VMRegion{
		Name: name, Start: addr, End: addr + n, Writable: writable, ForcePPL1: forcePPL1,
	})
	return addr, nil
}

// Munmap removes a region and its mappings.
func (p *Process) Munmap(k *Kernel, addr uint32) error {
	for i, r := range p.Regions {
		if r.Start == addr {
			for lin := r.Start; lin < r.End; lin += mem.PageSize {
				if p.AS.Lookup(lin).Present() {
					p.AS.Unmap(lin)
					k.MMU.InvalidatePage(lin)
				}
			}
			p.Regions = append(p.Regions[:i], p.Regions[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("munmap: no region at %#x", addr)
}

// Region returns the region containing addr, or nil.
func (p *Process) Region(addr uint32) *VMRegion {
	for _, r := range p.Regions {
		if r.contains(addr) {
			return r
		}
	}
	return nil
}

// pagePPL1 decides the PPL of a freshly faulted-in page under the
// modified-mmap rule of Section 4.5.2: writable pages of an SPL-2
// process are PPL 0 (hidden from extensions) unless the region is
// explicitly pinned at PPL 1; everything else is PPL 1.
func (p *Process) pagePPL1(r *VMRegion) bool {
	if r.ForcePPL1 {
		return true
	}
	if p.TaskSPL == 2 && r.Writable {
		return false
	}
	return true
}

// FaultIn materializes the page containing addr (demand paging),
// charging the map cost. It reports whether a region covered the
// address.
func (p *Process) FaultIn(k *Kernel, addr uint32) (bool, error) {
	r := p.Region(addr)
	if r == nil {
		return false, nil
	}
	lin := addr &^ uint32(mem.PageMask)
	if p.AS.Lookup(lin).Present() {
		return true, nil // permission fault, not a missing page
	}
	frame, err := k.Alloc.Alloc()
	if err != nil {
		return false, err
	}
	k.Clock.Add(k.Costs.MapPage)
	if err := p.AS.Map(lin, frame, r.Writable, p.pagePPL1(r)); err != nil {
		return false, err
	}
	if k.cur == p {
		k.MMU.InvalidatePage(lin)
	}
	return true, nil
}

// Touch pre-faults every page of [addr, addr+n): the kernel's
// equivalent of the application touching its memory, used by loaders
// that need pages resident before copying into them.
func (p *Process) Touch(k *Kernel, addr, n uint32) error {
	for lin := addr &^ uint32(mem.PageMask); lin < addr+n; lin += mem.PageSize {
		ok, err := p.FaultIn(k, lin)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("touch: no region at %#x", lin)
		}
	}
	return nil
}

// Mprotect changes a region's writability, with the Palladium
// restriction of Section 4.5.2: an SPL-3 caller may not tamper with
// the memory of an SPL-2 process (enforced by the syscall layer; this
// method applies the change).
func (p *Process) Mprotect(k *Kernel, addr uint32, writable bool) error {
	k.chargeSyscallSoftware()
	r := p.Region(addr)
	if r == nil {
		return fmt.Errorf("mprotect: no region at %#x", addr)
	}
	r.Writable = writable
	for lin := r.Start; lin < r.End; lin += mem.PageSize {
		if p.AS.Lookup(lin).Present() {
			p.AS.SetWritable(lin, writable)
			k.MMU.InvalidatePage(lin)
		}
	}
	return nil
}

// CopyToUser writes b into the process's user memory at addr with
// kernel privilege, faulting pages in as needed and charging per-byte
// copy costs. The copy proceeds page-wise — one translation per page
// instead of one per byte — with the simulated charge unchanged.
func (k *Kernel) CopyToUser(p *Process, addr uint32, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	k.Clock.Add(k.Costs.CopyPerByte * float64(len(b)))
	if err := p.Touch(k, addr, uint32(len(b))); err != nil {
		return err
	}
	return mem.ForEachPageRun(addr, len(b), func(lin uint32, n int) error {
		e := p.AS.Lookup(lin)
		if !e.Present() {
			return fmt.Errorf("copy to user: page vanished at %#x", lin)
		}
		k.Phys.WriteBytes(e.Frame()|lin&mem.PageMask, b[:n])
		b = b[n:]
		return nil
	})
}

// CopyFromUser reads n bytes of user memory at addr.
func (k *Kernel) CopyFromUser(p *Process, addr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := k.CopyFromUserInto(p, addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// CopyFromUserInto reads len(buf) bytes of user memory at addr into
// buf, page-wise, without allocating; steady-state serving paths reuse
// one buffer across requests. The simulated charge is exactly
// CopyFromUser's.
func (k *Kernel) CopyFromUserInto(p *Process, addr uint32, buf []byte) error {
	k.Clock.Add(k.Costs.CopyPerByte * float64(len(buf)))
	if err := p.Touch(k, addr, uint32(len(buf))); err != nil {
		return err
	}
	return mem.ForEachPageRun(addr, len(buf), func(lin uint32, n int) error {
		e := p.AS.Lookup(lin)
		if !e.Present() {
			return fmt.Errorf("copy from user: page missing at %#x", lin)
		}
		copy(buf[:n], k.Phys.FrameView(e.Frame())[lin&mem.PageMask:])
		buf = buf[n:]
		return nil
	})
}

// DeliverSignal charges the delivery path and invokes the process's
// handler. FaultRaise + PFHandler + SignalDeliver reproduce the
// paper's 3,325-cycle SIGSEGV figure.
func (k *Kernel) DeliverSignal(p *Process, info SignalInfo) {
	k.Clock.Add(k.Costs.SignalDeliver)
	p.LastSignal = &info
	if p.SignalHandler != nil {
		p.SignalHandler(info)
	} else if info.Sig == SIGSEGV || info.Sig == SIGKILL {
		k.Exit(p, 128+info.Sig)
	}
}

// chargeSyscallSoftware prices one full system-call round trip as made
// by trusted (Go-level) application code: interrupt-gate entry,
// kernel software path, and the privilege-lowering iret back.
func (k *Kernel) chargeSyscallSoftware() {
	k.Clock.Add(k.Costs.SyscallEntry + k.Costs.SyscallExit)
	k.Clock.Charge(k.Model, cycles.IntGate)
	k.Clock.Charge(k.Model, cycles.IretInter)
}
