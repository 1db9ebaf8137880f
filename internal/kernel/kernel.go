// Package kernel implements the miniature Linux-like operating system
// that hosts Palladium: processes with the 3 GB user / 1 GB kernel
// virtual address space split of Figure 2, system calls through
// interrupt gate 0x80, demand-paged mmap regions, a page-fault handler
// carrying the Palladium check of Section 4.5.2, signal delivery,
// fork/exec privilege-level inheritance rules, and the timer-based
// CPU-time limits that police runaway extensions.
//
// The kernel itself is trusted and therefore runs as Go code, charging
// its software-path costs (CostSheet) to the same simulated clock the
// CPU uses; everything untrusted executes on the simulated CPU.
package kernel

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// ErrExtTimeBudget is returned out of the timer tick when the armed
// per-invocation extension deadline (ArmExtLimit) has passed. The core
// layer translates it into its public ErrTimeLimit.
var ErrExtTimeBudget = errors.New("kernel: extension time budget exceeded")

// Virtual address space layout (paper Figures 2 and 3).
const (
	// UserLimit is the last byte of the user segments (0 .. 3 GB-1).
	UserLimit = 0xBFFF_FFFF
	// KernelBase is the linear base of the kernel segments (3 GB).
	KernelBase = 0xC000_0000
	// KernelLimit is the kernel segments' limit (1 GB - 1, as an
	// offset within the segment).
	KernelLimit = 0x3FFF_FFFF

	// UserTextBase is where process text is loaded ("a little bit
	// greater than 0, leaving a hole at the bottom" for ld.so).
	UserTextBase = 0x0000_8000
	// MmapBase is where shared libraries and extension modules are
	// mapped ("the middle of the unused region between Heap and
	// Stack").
	MmapBase = 0x4000_0000
	// StackTop is the top of the user stack region.
	StackTop = 0xBFFF_F000
	// Ring2GateBase is the page holding the hardware-pushed gate
	// frames for SPL3 -> SPL2 transfers (allocated by init_PL).
	Ring2GateBase = 0xB7FF_0000

	// Kernel-internal linear layout.
	kServiceBase = 0xC000_0000 // service entry addresses (no backing pages)
	kStackBase   = 0xC010_0000 // per-process kernel stacks
	kHeapBase    = 0xC400_0000 // kernel heap (shared data areas etc.)

	// kStackSlot is one process's kernel stack: a page and a guard gap.
	kStackSlot = 2 * mem.PageSize
	// maxProcesses is how many processes one kernel can hold live at
	// once: the kernel-stack slots between kStackBase and kHeapBase.
	maxProcesses = (kHeapBase - kStackBase) / kStackSlot

	// ExtSegBase is where kernel extension segments are carved out.
	ExtSegBase = 0xC800_0000
)

// Fixed GDT selectors (indices), Linux-style with Palladium additions.
const (
	SelKCode = 1 // kernel code, DPL 0, 3-4 GB
	SelKData = 2 // kernel data, DPL 0
	SelUCode = 3 // user code, DPL 3, 0-3 GB
	SelUData = 4 // user data, DPL 3
	SelACode = 5 // extensible-application code, DPL 2 (init_PL)
	SelAData = 6 // extensible-application data, DPL 2
	// SelDynBase: first dynamically allocated GDT slot (extension
	// segments, call gates).
	SelDynBase = 8
)

// Interrupt vectors.
const (
	VecSyscall    = 0x80 // user system calls
	VecKernelSvc  = 0x81 // core kernel services exposed to kernel extensions
	gdtSize       = 512
	physBase      = 0x0100_0000 // first allocatable frame (16 MB)
	physSize      = 0x3000_0000 // 768 MB of simulated frames
	kernelPDFirst = KernelBase >> 22
)

// KCodeSel etc. are the ready-made selector values.
var (
	KCodeSel = mmu.MakeSelector(SelKCode, false, 0)
	KDataSel = mmu.MakeSelector(SelKData, false, 0)
	UCodeSel = mmu.MakeSelector(SelUCode, false, 3)
	UDataSel = mmu.MakeSelector(SelUData, false, 3)
	ACodeSel = mmu.MakeSelector(SelACode, false, 2)
	ADataSel = mmu.MakeSelector(SelAData, false, 2)
)

// kernelState is every simulated field of a Kernel, declared once:
// Clone, ResetTo and SaveTo walk it whole (DESIGN.md, "Snapshot
// layering"). The machine and allocator are their own layers.
type kernelState struct {
	nextPID int
	cur     *Process
	procs   map[int]*Process

	nextKStack uint32
	// freeKStacks holds the bases of the kernel-stack slots exited
	// processes gave back, still mapped; CreateProcess takes the last
	// one before it advances nextKStack.
	freeKStacks []uint32
	nextKHeap   uint32
	nextSvcAddr uint32
	nextGate    int

	// svcSyscallAddr / svcKSvcAddr are the service addresses of the two
	// kernel-owned trusted endpoints (syscallEndpoint and
	// kernelServiceEndpoint).
	svcSyscallAddr uint32
	svcKSvcAddr    uint32

	syscalls map[uint32]SyscallFn
	// kernelServices is the pre-defined interface exposed to kernel
	// extensions through int 0x81 (Section 4.3).
	kernelServices map[uint32]SyscallFn

	Costs *CostSheet
	// ExtTimeLimit is the per-invocation extension CPU budget in
	// cycles ("a system parameter set by the system administrator").
	ExtTimeLimit float64
	// extDeadline is the armed per-invocation extension CPU deadline in
	// absolute cycles (0 = disarmed). It replaces the per-call
	// OnTimerTick closure the invocation paths used to register, so the
	// steady-state serving path allocates nothing; nesting is handled
	// by saving the previous deadline across Arm/Disarm.
	extDeadline float64

	// ConsoleOut collects bytes written via SysWrite to fd 1/2.
	ConsoleOut []byte
}

// copy returns an independent copy of the state. Every process is
// duplicated (cur points at the duplicate of the current process);
// address spaces are shared, so Clone re-adopts them on its memory.
func (s *kernelState) copy() kernelState {
	c := *s
	c.procs = make(map[int]*Process, len(s.procs))
	for pid, p := range s.procs {
		p2 := p.copy()
		c.procs[pid] = p2
		if p == s.cur {
			c.cur = p2
		}
	}
	if c.cur != nil && c.cur == s.cur { // an exited current process
		c.cur = s.cur.copy()
	}
	c.syscalls = maps.Clone(s.syscalls)
	c.kernelServices = maps.Clone(s.kernelServices)
	costs := *s.Costs
	c.Costs = &costs
	c.ConsoleOut = slices.Clone(s.ConsoleOut)
	c.freeKStacks = slices.Clone(s.freeKStacks)
	return c
}

// Kernel is the simulated operating system.
type Kernel struct {
	Machine *cpu.Machine
	MMU     *mmu.MMU
	Phys    *mem.Physical
	Clock   *cycles.Clock
	Model   *cycles.Model
	Alloc   *mem.FrameAllocator

	kernelState

	// kernelTemplate holds the kernel half of every address space;
	// its page-table frames are shared by all processes, so kernel
	// mappings made after boot are globally visible.
	kernelTemplate *mmu.AddressSpace

	// tickFns receive timer ticks (extension budget policing).
	tickFns []func() error

	// origin is the kernel this one was cloned from, and originTicks
	// how many tick subscribers it had then: when origin resets onto
	// this kernel (a transaction's rollback), it keeps those.
	// clonedProcs pairs each process struct this kernel was cloned with
	// and the one origin held for the same PID. A reset onto origin
	// restores each process into this kernel's struct, and origin's
	// rollback onto this kernel into origin's, so pointers held outside
	// the kernel (core.App.P, a web server's CGI helper) stay valid even
	// after an exit dropped a process from the table.
	origin      *Kernel
	originTicks int
	clonedProcs []clonedProc
}

// clonedProc is one process of a clone: its PID, the clone's struct and
// the origin's.
type clonedProc struct {
	pid         int
	own, origin *Process
}

// New boots a kernel: physical memory, GDT, IDT, the kernel template
// address space, and the idle process.
func New(model *cycles.Model) (*Kernel, error) {
	phys := mem.NewPhysical()
	clock := cycles.NewClock(200)
	mu := mmu.New(phys, gdtSize, clock, model)
	machine := cpu.New(phys, mu, clock, model)
	k := &Kernel{
		Machine: machine,
		MMU:     mu,
		Phys:    phys,
		Clock:   clock,
		Model:   model,
		Alloc:   mem.NewFrameAllocator(physBase, physSize),
		kernelState: kernelState{
			nextPID:        1,
			procs:          make(map[int]*Process),
			nextKStack:     kStackBase,
			nextKHeap:      kHeapBase,
			nextSvcAddr:    kServiceBase + 0x100,
			nextGate:       SelDynBase,
			syscalls:       make(map[uint32]SyscallFn),
			kernelServices: make(map[uint32]SyscallFn),
			Costs:          DefaultCosts(),
			ExtTimeLimit:   2_000_000, // 10 ms at 200 MHz
		},
	}

	gdt := mu.GDT
	gdt.Set(SelKCode, mmu.Descriptor{Kind: mmu.SegCode, Base: KernelBase, Limit: KernelLimit, DPL: 0, Present: true, Readable: true})
	gdt.Set(SelKData, mmu.Descriptor{Kind: mmu.SegData, Base: KernelBase, Limit: KernelLimit, DPL: 0, Present: true, Writable: true})
	gdt.Set(SelUCode, mmu.Descriptor{Kind: mmu.SegCode, Base: 0, Limit: UserLimit, DPL: 3, Present: true, Readable: true})
	gdt.Set(SelUData, mmu.Descriptor{Kind: mmu.SegData, Base: 0, Limit: UserLimit, DPL: 3, Present: true, Writable: true})
	gdt.Set(SelACode, mmu.Descriptor{Kind: mmu.SegCode, Base: 0, Limit: UserLimit, DPL: 2, Present: true, Readable: true})
	gdt.Set(SelAData, mmu.Descriptor{Kind: mmu.SegData, Base: 0, Limit: UserLimit, DPL: 2, Present: true, Writable: true})

	tmpl, err := mmu.NewAddressSpace(phys, k.Alloc)
	if err != nil {
		return nil, fmt.Errorf("kernel: boot address space: %w", err)
	}
	k.kernelTemplate = tmpl
	// Kernel-range page tables are created lazily by mapKernelShared,
	// which shares each newly born table's directory entry into every
	// live process address space — the same global-visibility property
	// eager preallocation provided, without allocating 256 page-table
	// frames (1 MB of zeroed memory) on every boot.
	// Until the first process is scheduled, the CPU runs on the
	// kernel's own address space (the boot CR3).
	mu.LoadCR3(tmpl)

	// System call and kernel-service interrupt gates. The syscall
	// gate is DPL 3 (reachable by everyone); the kernel-service gate
	// is DPL 1: reachable by kernel extensions, not by user code.
	svcSyscall := k.allocServiceAddr()
	k.svcSyscallAddr = svcSyscall
	machine.IDT[VecSyscall] = mmu.Descriptor{
		Kind: mmu.SegIntGate, DPL: 3, Present: true,
		GateSel: KCodeSel, GateOff: svcSyscall - KernelBase,
	}
	svcKSvc := k.allocServiceAddr()
	k.svcKSvcAddr = svcKSvc
	machine.IDT[VecKernelSvc] = mmu.Descriptor{
		Kind: mmu.SegIntGate, DPL: 1, Present: true,
		GateSel: KCodeSel, GateOff: svcKSvc - KernelBase,
	}
	k.registerDefaultSyscalls()

	// Timer plumbing: one simulated tick per ~0.1 ms.
	machine.TickCycles = 20_000
	machine.RegisterService(svcSyscall, syscallEndpoint)
	machine.RegisterService(svcKSvc, kernelServiceEndpoint)
	k.own(machine)
	return k, nil
}

// The kernel-owned trusted endpoints (system call, kernel service) and
// the timer hook are shared by every kernel: each call finds its kernel
// as the machine's Owner, so a cloned or reset machine carries them
// unchanged and only needs an owner (own).
var (
	syscallEndpoint = &cpu.Service{Name: "syscall", Kind: cpu.ServiceInt,
		Handler: func(m *cpu.Machine) error { return m.Owner.(*Kernel).syscallEntry(m) }}
	kernelServiceEndpoint = &cpu.Service{Name: "kernel-service", Kind: cpu.ServiceInt,
		Handler: func(m *cpu.Machine) error { return m.Owner.(*Kernel).kernelServiceEntry(m) }}
)

func timerHook(m *cpu.Machine) error { return m.Owner.(*Kernel).timerTick() }

// own makes k the owner of machine m and installs the timer hook,
// which Clone leaves unset.
func (k *Kernel) own(m *cpu.Machine) { m.Owner, m.OnTick = k, timerHook }

// allocServiceAddr hands out a unique kernel-space linear address for
// a trusted service endpoint (no backing page needed).
func (k *Kernel) allocServiceAddr() uint32 {
	a := k.nextSvcAddr
	k.nextSvcAddr += 16
	return a
}

// AllocServiceAddr exposes service-address allocation to subsystems
// (Palladium registers application services and per-extension
// endpoints).
func (k *Kernel) AllocServiceAddr() uint32 { return k.allocServiceAddr() }

// AllocGateIndex reserves a GDT slot for a gate or segment descriptor.
func (k *Kernel) AllocGateIndex() (int, error) {
	if k.nextGate >= gdtSize {
		return 0, fmt.Errorf("kernel: GDT full")
	}
	i := k.nextGate
	k.nextGate++
	return i, nil
}

// KernelAlloc reserves n bytes of kernel heap (page-granular when
// align is 4096) and maps them supervisor/PPL 0, returning the linear
// address.
func (k *Kernel) KernelAlloc(n, align uint32) (uint32, error) {
	if align == 0 {
		align = 4
	}
	k.nextKHeap = (k.nextKHeap + align - 1) &^ (align - 1)
	addr := k.nextKHeap
	k.nextKHeap += n
	// Map the covered pages in the shared kernel template.
	start := addr &^ uint32(mem.PageMask)
	end := (addr + n + mem.PageMask) &^ uint32(mem.PageMask)
	for lin := start; lin < end; lin += mem.PageSize {
		if k.kernelTemplate.Lookup(lin).Present() {
			continue
		}
		frame, err := k.Alloc.Alloc()
		if err != nil {
			return 0, err
		}
		if err := k.mapKernelShared(lin, frame, true); err != nil {
			return 0, err
		}
	}
	return addr, nil
}

// mapKernelShared installs a kernel mapping in the shared template.
// When the mapping creates a new kernel page table, that table's
// directory entry is shared into every live process address space, so
// post-boot kernel mappings stay globally visible exactly as they were
// under eager page-table preallocation.
func (k *Kernel) mapKernelShared(linear, frame uint32, writable bool) error {
	fresh := !k.kernelTemplate.HasTable(linear)
	if err := k.kernelTemplate.Map(linear, frame, writable, false); err != nil {
		return err
	}
	if fresh {
		for _, p := range k.procs {
			p.AS.ShareRangeFrom(k.kernelTemplate, linear, linear)
		}
	}
	return nil
}

// MapKernelPage maps one kernel page with explicit permissions in the
// globally shared kernel region.
func (k *Kernel) MapKernelPage(linear uint32, writable bool) (uint32, error) {
	frame, err := k.Alloc.Alloc()
	if err != nil {
		return 0, err
	}
	if err := k.mapKernelShared(linear, frame, writable); err != nil {
		return 0, err
	}
	k.MMU.InvalidatePage(linear)
	return frame, nil
}

// KernelSpace exposes the shared kernel-half address space (module
// loading and extension-segment management need physical lookups).
func (k *Kernel) KernelSpace() *mmu.AddressSpace { return k.kernelTemplate }

// Current returns the currently scheduled process.
func (k *Kernel) Current() *Process { return k.cur }

// Process returns the process with the given pid, or nil.
func (k *Kernel) Process(pid int) *Process { return k.procs[pid] }

// Switch schedules process p: context-switch cost, CR3 load (TLB
// flush), kernel stack update in the TSS.
func (k *Kernel) Switch(p *Process) {
	if p == k.cur {
		return
	}
	k.Clock.Add(k.Costs.ContextSwitch)
	k.schedule(p)
}

// schedule installs p as the running process without charging the
// context-switch cost (initial scheduling of the first process).
func (k *Kernel) schedule(p *Process) {
	k.cur = p
	k.MMU.LoadCR3(p.AS)
	k.LoadTSS(p)
}

// LoadTSS programs the task-state-segment stack slots for p: the
// per-process kernel stack (ring 0) and — for Palladium processes at
// SPL 2 — the ring-2 stack.
func (k *Kernel) LoadTSS(p *Process) {
	k.Machine.TSS.SS[0] = KDataSel
	k.Machine.TSS.ESP[0] = p.KStackTop - KernelBase
	k.Machine.TSS.SS[2] = ADataSel
	k.Machine.TSS.ESP[2] = p.Ring2StackTop
}

// timerTick polices extension CPU budgets.
func (k *Kernel) timerTick() error {
	k.Clock.Add(k.Costs.TimerTick)
	for _, fn := range k.tickFns {
		if err := fn(); err != nil {
			return err
		}
	}
	// The armed invocation deadline runs after the subscribed fns,
	// matching the order of the per-call registration it replaced
	// (invocation limiters were appended last).
	if k.extDeadline > 0 && k.Clock.Cycles() > k.extDeadline {
		return ErrExtTimeBudget
	}
	return nil
}

// ArmExtLimit arms the built-in per-invocation extension CPU limiter:
// once the simulated clock passes deadline, the next timer tick stops
// the run with ErrExtTimeBudget. It returns the previously armed
// deadline, which the caller must hand back to DisarmExtLimit so
// nested invocations restore the outer limit. A nested invocation may
// not outlive the outer limit: the effective deadline is the earlier
// of the two, matching the stacked per-call tick subscribers this
// mechanism replaced (every registered subscriber kept checking its
// own deadline).
func (k *Kernel) ArmExtLimit(deadline float64) (prev float64) {
	prev = k.extDeadline
	if prev > 0 && prev < deadline {
		deadline = prev
	}
	k.extDeadline = deadline
	return prev
}

// DisarmExtLimit restores the deadline ArmExtLimit replaced.
func (k *Kernel) DisarmExtLimit(prev float64) { k.extDeadline = prev }

// OnTimerTick registers a tick subscriber and returns a removal func.
// Removal is bounds-checked: ResetTo onto a frozen clone (a
// transaction's rollback) drops the subscribers registered after the
// freeze, possibly under a still-pending removal (the rolled-back
// timeline's registration no longer exists).
func (k *Kernel) OnTimerTick(fn func() error) func() {
	k.tickFns = append(k.tickFns, fn)
	i := len(k.tickFns) - 1
	return func() {
		if i < len(k.tickFns) {
			k.tickFns[i] = func() error { return nil }
		}
	}
}
