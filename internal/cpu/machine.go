// Package cpu implements the simulated processor: an IA-32-style core
// that fetches and executes isa.Instr values through the MMU's
// segmentation and paging checks, with the 4-level privilege ring,
// TSS-based stack switching, call gates and interrupt gates of
// Section 3 of the paper.
//
// Trusted code (the kernel, extensible-application cores) runs as Go
// and interacts with the machine through registered service endpoints;
// untrusted code (extensions, control-transfer stubs, shared library
// routines) executes instruction-by-instruction on this CPU, so every
// one of its memory references is subject to the hardware checks.
package cpu

import (
	"fmt"
	"maps"
	"math"
	"sync/atomic"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// TSS is the task state segment: per-privilege-level stack pointers for
// rings 0-2. Ring 3 needs no slot (the x86 never switches *to* a less
// privileged stack through a gate), which is exactly the asymmetry
// Palladium's Prepare/AppCallGate stubs work around (Section 4.5.1).
type TSS struct {
	SS  [3]mmu.Selector
	ESP [3]uint32
}

// ServiceKind tells the machine how a Go service endpoint was entered,
// so it can synthesize the matching return transfer.
type ServiceKind int

const (
	// ServiceCallGate endpoints are entered via lcall through a call
	// gate and exited with a far return.
	ServiceCallGate ServiceKind = iota
	// ServiceInt endpoints are entered via int N and exited with iret.
	ServiceInt
)

// Service is a trusted (Go-level) endpoint reachable from simulated
// code: a system call, a core kernel service exposed to kernel
// extensions, or an application service exposed to user extensions.
// The handler runs logically at the privilege level of the gate target
// and must charge its own costs to the machine clock.
type Service struct {
	Name    string
	Kind    ServiceKind
	Handler func(m *Machine) error
}

// StopReason says why Run returned.
type StopReason int

const (
	// StopHalt: the CPU executed HLT at CPL 0.
	StopHalt StopReason = iota
	// StopFault: an unhandled protection fault was raised.
	StopFault
	// StopBreak: execution reached a breakpoint address.
	StopBreak
	// StopBudget: the cycle budget for this run was exhausted.
	StopBudget
	// StopError: a service handler or tick hook returned an error.
	StopError
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopFault:
		return "fault"
	case StopBreak:
		return "breakpoint"
	case StopBudget:
		return "budget"
	case StopError:
		return "error"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// RunResult summarizes a Run.
type RunResult struct {
	Reason StopReason
	Fault  *mmu.Fault
	Err    error
	// Instructions executed during this run.
	Instructions uint64
}

// machineState is every simulated field of a Machine, declared once:
// ResetTo (which Clone runs) and SaveTo walk it whole (DESIGN.md, "Snapshot
// layering"). The clock, memory and MMU are their own layers.
type machineState struct {
	// Architectural state.
	Regs  [8]uint32
	EIP   uint32
	CS    mmu.Selector
	DS    mmu.Selector
	SS    mmu.Selector
	ES    mmu.Selector
	Flags Flags
	TSS   TSS

	// IDT maps interrupt vectors to gate descriptors.
	IDT map[uint8]mmu.Descriptor

	code map[uint32]*isa.Instr // physical address -> instruction

	// Breakpoints are linear addresses at which Run stops *before*
	// executing; used to return control to trusted callers.
	breaks map[uint32]bool

	// services maps linear addresses to trusted endpoints. The byte
	// image carries only each endpoint's address, name and kind: the
	// handlers are closures bound to their owners.
	services map[uint32]*Service

	instret    uint64 // lifetime instruction counter
	haltFlag   bool
	TickCycles float64 // OnTick period
	nextTick   float64
}

// Machine is one simulated processor plus its physical memory and MMU.
type Machine struct {
	Phys  *mem.Physical
	MMU   *mmu.MMU
	Clock *cycles.Clock
	Model *cycles.Model

	machineState

	// codeShared marks the code map as referenced by a clone: the next
	// InstallCode/RemoveCode copies it first. The map is by far the
	// largest machine table (one entry per installed instruction), and
	// it changes only on code install/remove, so sharing it keeps Clone
	// and ResetTo O(small) on the common path, the frozen clone of a
	// transaction (core.System.Tx) included.
	// It is atomic because clones of one template, forked and reset on
	// different goroutines, all mark the template's map shared.
	codeShared atomic.Bool

	// OnTick, if set, runs every TickCycles simulated cycles; the
	// kernel uses it for timer interrupts (extension CPU limits). A
	// non-nil error stops the run.
	OnTick func(m *Machine) error

	// Owner is the trusted code driving the machine (the kernel):
	// service and OnTick handlers shared by many machines find their
	// owner here instead of closing over it. Clone leaves it nil.
	Owner any

	// Decoded-block cache (see blockcache.go): direct-mapped by
	// linear start address, tagged with the code segment and the
	// MMU's translation generation. It starts as the shared empty
	// noBlocks table; the first block built gives the machine its own.
	blocks             *[blockCacheSize]*codeBlock
	liveBlocks         int
	blockMin, blockMax uint32 // linear envelope over live blocks and their traces
	blocksBloom        uint64 // aggregate page bloom over cached blocks and their traces
	bcHits             uint64
	bcBuilds           uint64
	bcInvalidations    uint64
	bcFastFetches      uint64 // trace fetches counted as guaranteed TLB hits

	// Trace tier (see trace.go). TraceThreshold is the dispatch count
	// that promotes a block into a trace entry; until then the block
	// runs through Step. Traces live on their entry blocks in the block
	// cache.
	TraceThreshold uint32
	trStats        TraceStats

	// Conservative linear envelopes over the armed breakpoints and
	// registered services, so Run and Step (breakAt, serviceAt) can
	// reject both maps with two compares instead of map probes. They
	// grow on arm and re-anchor when their map empties.
	brkLo, brkHi uint32 // inclusive envelope; valid while len(breaks) > 0
	svcLo, svcHi uint32 // inclusive envelope; valid while len(services) > 0

	// Segment probes for the stack primitives (one per access kind;
	// see mmu.SegProbe). Probe hits skip only uncharged, uncounted
	// segment checks, so Push/Pop/Peek accounting is unchanged.
	pushProbe mmu.SegProbe
	popProbe  mmu.SegProbe
}

// Flags holds the condition codes.
type Flags struct {
	ZF, SF, CF, OF bool
}

// Context is a snapshot of the architectural state, used by trusted
// code to save and restore the machine around extension invocations.
type Context struct {
	Regs           [8]uint32
	EIP            uint32
	CS, DS, SS, ES mmu.Selector
	Flags          Flags
}

// SaveContext snapshots the architectural state.
func (m *Machine) SaveContext() Context {
	return Context{Regs: m.Regs, EIP: m.EIP, CS: m.CS, DS: m.DS, SS: m.SS, ES: m.ES, Flags: m.Flags}
}

// RestoreContext reinstates a snapshot.
func (m *Machine) RestoreContext(c Context) {
	m.Regs, m.EIP, m.CS, m.DS, m.SS, m.ES, m.Flags = c.Regs, c.EIP, c.CS, c.DS, c.SS, c.ES, c.Flags
}

// pack encodes the flags for pushing in interrupt frames.
func (f Flags) pack() uint32 {
	var v uint32
	if f.CF {
		v |= 1 << 0
	}
	if f.ZF {
		v |= 1 << 6
	}
	if f.SF {
		v |= 1 << 7
	}
	if f.OF {
		v |= 1 << 11
	}
	return v
}

func unpackFlags(v uint32) Flags {
	return Flags{
		CF: v&(1<<0) != 0,
		ZF: v&(1<<6) != 0,
		SF: v&(1<<7) != 0,
		OF: v&(1<<11) != 0,
	}
}

// New creates a machine over shared physical memory, MMU and clock.
func New(phys *mem.Physical, m *mmu.MMU, clock *cycles.Clock, model *cycles.Model) *Machine {
	return &Machine{
		Phys:  phys,
		MMU:   m,
		Clock: clock,
		Model: model,
		machineState: machineState{
			IDT:      make(map[uint8]mmu.Descriptor),
			code:     make(map[uint32]*isa.Instr),
			breaks:   make(map[uint32]bool),
			services: make(map[uint32]*Service),
		},
		blocks:         &noBlocks,
		TraceThreshold: defaultTraceThreshold,
	}
}

// CPL returns the current privilege level (the RPL bits of CS).
func (m *Machine) CPL() int { return m.CS.RPL() }

// Reg returns register r.
func (m *Machine) Reg(r isa.Reg) uint32 { return m.Regs[r] }

// SetReg sets register r.
func (m *Machine) SetReg(r isa.Reg, v uint32) { m.Regs[r] = v }

// mutableCode returns the code map safe to mutate, splitting it off
// first when a clone still references it (copy-on-write at map
// granularity, mirroring the frame store's discipline).
func (m *Machine) mutableCode() map[uint32]*isa.Instr {
	if m.codeShared.Load() {
		m.code = maps.Clone(m.code)
		m.codeShared.Store(false)
	}
	return m.code
}

// shareCode marks the code map shared with a clone. It writes only
// when the flag is clear, so forking and resetting clones of a
// quiescent template never write to it.
func (m *Machine) shareCode() {
	if !m.codeShared.Load() {
		m.codeShared.Store(true)
	}
}

// InstallCode writes a sequence of instructions at the given physical
// address (one per 4-byte slot) and stamps a recognizable marker byte
// into physical memory so data reads of code see something.
func (m *Machine) InstallCode(pa uint32, text []isa.Instr) {
	code := m.mutableCode()
	var pages uint64
	for i := range text {
		addr := pa + uint32(i)*isa.InstrSlot
		code[addr] = &text[i]
		m.Phys.Write8(addr, byte(text[i].Op))
		pages |= pageBloomBit(addr)
	}
	m.invalidateBlocksByPages(pages)
}

// RemoveCode drops n instruction slots starting at pa.
func (m *Machine) RemoveCode(pa uint32, n int) {
	code := m.mutableCode()
	var pages uint64
	for i := 0; i < n; i++ {
		addr := pa + uint32(i)*isa.InstrSlot
		delete(code, addr)
		pages |= pageBloomBit(addr)
	}
	m.invalidateBlocksByPages(pages)
}

// CodeAt returns the instruction installed at physical address pa.
func (m *Machine) CodeAt(pa uint32) *isa.Instr { return m.code[pa] }

// RegisterService installs a trusted endpoint at a linear address.
// Replacing the endpoint at an address that already holds one only
// swaps the handler: cached blocks depend on which addresses are
// endpoints, never on their handlers, so none is invalidated.
func (m *Machine) RegisterService(linear uint32, s *Service) {
	if _, ok := m.services[linear]; ok {
		m.services[linear] = s
		return
	}
	if len(m.services) == 0 {
		m.svcLo, m.svcHi = linear, linear
	} else {
		m.svcLo = min(m.svcLo, linear)
		m.svcHi = max(m.svcHi, linear)
	}
	m.services[linear] = s
	m.invalidateBlocksAt(linear)
}

// SetBreak arms a breakpoint at a linear address.
func (m *Machine) SetBreak(linear uint32) {
	if len(m.breaks) == 0 {
		m.brkLo, m.brkHi = linear, linear
	} else {
		m.brkLo = min(m.brkLo, linear)
		m.brkHi = max(m.brkHi, linear)
	}
	m.breaks[linear] = true
	m.invalidateBlocksAt(linear)
}

// ClearBreak removes a breakpoint.
func (m *Machine) ClearBreak(linear uint32) {
	delete(m.breaks, linear)
	m.invalidateBlocksAt(linear)
}

// recomputeDispatchHints rebuilds the break/service envelopes from the
// live maps; Clone, ResetTo and LoadFrom install maps wholesale.
func (m *Machine) recomputeDispatchHints() {
	m.brkLo, m.brkHi = keyRange(m.breaks)
	m.svcLo, m.svcHi = keyRange(m.services)
}

// keyRange returns the inclusive envelope of a map's keys (lo > hi for
// an empty map).
func keyRange[V any](m map[uint32]V) (lo, hi uint32) {
	lo = math.MaxUint32
	for k := range m {
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
}

// Instructions returns the lifetime retired-instruction count.
func (m *Machine) Instructions() uint64 { return m.instret }

// LoadSegReg models an explicit data-segment register load (the
// cross-segment reference overhead of Section 5.1: 12 cycles measured,
// 2-3 per the manual). It validates the selector as a data-segment
// load at the current CPL.
func (m *Machine) LoadSegReg(dst *mmu.Selector, sel mmu.Selector) *mmu.Fault {
	m.Clock.Charge(m.Model, cycles.SegRegLoad)
	if sel.IsNull() {
		*dst = sel // loading null into DS/ES is legal; use faults later
		return nil
	}
	d := m.MMU.Descriptor(sel)
	if d == nil || !d.Present {
		return &mmu.Fault{Kind: mmu.GP, Sel: sel, CPL: m.CPL(), Reason: "segment register load: bad selector"}
	}
	if d.Kind != mmu.SegData && !(d.Kind == mmu.SegCode && d.Readable) {
		return &mmu.Fault{Kind: mmu.GP, Sel: sel, CPL: m.CPL(), Reason: "segment register load: not a data segment"}
	}
	if d.Kind == mmu.SegData && max(m.CPL(), sel.RPL()) > d.DPL {
		return &mmu.Fault{Kind: mmu.GP, Sel: sel, CPL: m.CPL(), Reason: "segment register load: privilege"}
	}
	*dst = sel
	return nil
}

// linearEIP returns the linear address of CS:EIP without charging.
func (m *Machine) linearEIP() uint32 {
	d := m.MMU.Descriptor(m.CS)
	if d == nil {
		return m.EIP
	}
	return d.Base + m.EIP
}

// dataSeg selects the segment register for a memory operand: stack-
// relative addressing (EBP or ESP base) uses SS, everything else DS,
// as on the x86.
func (m *Machine) dataSeg(op *isa.Operand) mmu.Selector {
	if op.Base == isa.EBP || op.Base == isa.ESP {
		return m.SS
	}
	return m.DS
}

// effAddr computes the effective (segment-relative) address of a
// memory operand.
func (m *Machine) effAddr(op *isa.Operand) uint32 {
	addr := uint32(op.Disp)
	if op.Base != isa.NoReg {
		addr += m.Regs[op.Base]
	}
	if op.Index != isa.NoReg {
		addr += m.Regs[op.Index] * uint32(op.Scale)
	}
	return addr
}

// readMem reads size bytes (1 or 4, zero-extended) at the operand's
// effective address.
func (m *Machine) readMem(op *isa.Operand, size uint8) (uint32, *mmu.Fault) {
	sel := m.dataSeg(op)
	off := m.effAddr(op)
	pa, f := m.MMU.Translate(sel, off, uint32(size), mmu.Read, m.CPL())
	if f != nil {
		return 0, f
	}
	if size == 1 {
		return uint32(m.Phys.Read8(pa)), nil
	}
	return m.Phys.Read32(pa), nil
}

// writeMem writes size bytes at the operand's effective address.
func (m *Machine) writeMem(op *isa.Operand, size uint8, v uint32) *mmu.Fault {
	sel := m.dataSeg(op)
	off := m.effAddr(op)
	pa, f := m.MMU.Translate(sel, off, uint32(size), mmu.Write, m.CPL())
	if f != nil {
		return f
	}
	if size == 1 {
		m.Phys.Write8(pa, byte(v))
	} else {
		m.Phys.Write32(pa, v)
	}
	return nil
}

// Push pushes a 32-bit value on the current stack.
func (m *Machine) Push(v uint32) *mmu.Fault {
	esp := m.Regs[isa.ESP] - 4
	pa, f := m.MMU.TranslateProbed(&m.pushProbe, m.SS, esp, 4, mmu.Write, m.CPL())
	if f != nil {
		f.Kind = mmu.SS
		return f
	}
	m.Phys.Write32(pa, v)
	m.Regs[isa.ESP] = esp
	return nil
}

// Pop pops a 32-bit value off the current stack.
func (m *Machine) Pop() (uint32, *mmu.Fault) {
	esp := m.Regs[isa.ESP]
	pa, f := m.MMU.TranslateProbed(&m.popProbe, m.SS, esp, 4, mmu.Read, m.CPL())
	if f != nil {
		f.Kind = mmu.SS
		return 0, f
	}
	m.Regs[isa.ESP] = esp + 4
	return m.Phys.Read32(pa), nil
}

// Peek reads the stack word at ESP+off without popping.
func (m *Machine) Peek(off uint32) (uint32, *mmu.Fault) {
	pa, f := m.MMU.TranslateProbed(&m.popProbe, m.SS, m.Regs[isa.ESP]+off, 4, mmu.Read, m.CPL())
	if f != nil {
		return 0, f
	}
	return m.Phys.Read32(pa), nil
}
