package core

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// ErrKernelExtensionAborted reports that a kernel extension was killed
// for violating its segment or exceeding its time limit; per Section
// 4.5.2 the prototype performs no cleanup beyond resource reclamation.
var ErrKernelExtensionAborted = errors.New("palladium: kernel extension aborted")

// ErrKernelExtensionRolledBack reports that a transactional invocation
// (InvokeTx) hit a protection fault or time-limit overrun and the
// whole machine was restored to its pre-call state: memory, clock,
// page tables, descriptor tables and kernel bookkeeping are exactly as
// before the call, and the extension segment stays alive.
var ErrKernelExtensionRolledBack = errors.New("palladium: kernel extension rolled back")

// ErrAsyncBackpressure reports that an asynchronous invocation was
// refused because the extension segment's request queue is at its
// bound. Like the fleet's bounded submission queue, the bound converts
// unbounded memory growth under overload into an explicit, typed
// backpressure signal the caller can react to (drop, retry, or drain
// with RunPending).
var ErrAsyncBackpressure = errors.New("palladium: extension async queue full")

// DefaultAsyncQueueBound is the per-segment asynchronous request queue
// bound used when ExtSegment.QueueBound is zero.
const DefaultAsyncQueueBound = 64

// errKernelReturn is the sentinel produced by the kernel-side return
// gate: the extension finished and control is back in the kernel.
var errKernelReturn = errors.New("palladium: kernel extension returned")

// Layout of a kernel extension segment (segment-relative offsets).
const (
	// segScratchOff: 16 bytes reserved for the stack/base-pointer
	// saves of the kernel Prepare stub. They live inside the
	// extension segment only to keep the Figure-6 instruction
	// sequence intact; the trusted kernel restores its state from its
	// own context snapshot, so a corrupted save slot cannot hurt it.
	segScratchOff = 0x0000
	// segStackOff .. segStackTop: the single per-segment extension
	// stack ("one stack for each extension segment", Section 4.3).
	segStackOff = 0x1000
	segStackTop = 0x5000
	// segModuleOff: first module placement address.
	segModuleOff = 0x10000
)

// ExtSegment is one kernel extension segment (Figure 3): a subrange of
// the kernel's 3-4 GB space with its own code/data descriptors at
// SPL 1. One or more modules can be loaded into it; they share its
// stack and can share data freely among themselves. Palladium does not
// protect modules within one segment from each other — load modules
// into separate segments for that.
type ExtSegment struct {
	S *System
	segState
}

// segState is every simulated field of an ExtSegment, declared once.
type segState struct {
	Name  string
	Base  uint32 // linear base
	Limit uint32 // inclusive limit (size-1)
	Code  mmu.Selector
	Data  mmu.Selector

	modules []*loader.Image
	next    uint32 // module placement cursor (segment-relative)
	ranges  *rangeList
	mapped  map[uint32]bool
	stubs   *stubArena // per-segment Transfer stubs (run at SPL 1)
	aborted bool

	// Async request queue (Section 4.3). QueueBound caps its length
	// (0 means DefaultAsyncQueueBound); InvokeAsync refuses further
	// requests with ErrAsyncBackpressure once the bound is reached.
	busy       bool
	QueueBound int
	queue      []asyncReq
}

type asyncReq struct {
	fn  *KernelExtensionFunc
	arg uint32
}

// KernelExtensionFunc is one Extension Function Table entry: a
// registered extension service entry point plus its generated kernel-
// side Prepare/Transfer stubs.
type KernelExtensionFunc struct {
	Seg    *ExtSegment
	Name   string
	FnOff  uint32 // segment-relative entry point
	stub   stubSyms
	module *loader.Image
}

// initKernelMechanism sets up the kernel-side stub arena and the
// return call gate shared by all kernel extensions.
func (s *System) initKernelMechanism() error {
	arena, err := newStubArena(&kernelTextSpace{s: s}, "palladium.kstubs", 16*mem.PageSize)
	if err != nil {
		return err
	}
	s.kernPrep = arena

	retAddr := s.K.AllocServiceAddr()
	s.K.Machine.RegisterService(retAddr, &cpu.Service{
		Name: "palladium-kernel-return", Kind: cpu.ServiceCallGate,
		Handler: func(m *cpu.Machine) error { return errKernelReturn },
	})
	gate, err := s.K.InstallCallGate(1, kernel.KCodeSel, retAddr-kernel.KernelBase)
	if err != nil {
		return err
	}
	s.kernRetGate = uint16(gate)
	return nil
}

// NewExtSegment creates an extension segment of the given size
// (rounded to pages) at SPL 1 and allocates its stack.
func (s *System) NewExtSegment(name string, size uint32) (*ExtSegment, error) {
	size = (size + mem.PageMask) &^ uint32(mem.PageMask)
	if size < segModuleOff+mem.PageSize {
		size = segModuleOff + 16*mem.PageSize
	}
	base, err := s.allocSegRange(size)
	if err != nil {
		return nil, err
	}
	code, data, err := s.K.InstallSegmentPair(base, size-1, 1)
	if err != nil {
		return nil, err
	}
	seg := &ExtSegment{S: s, segState: segState{
		Name: name, Base: base, Limit: size - 1,
		Code: code, Data: data,
		next:   segModuleOff,
		ranges: newRangeList(),
		mapped: make(map[uint32]bool),
	}}
	// Scratch + stack pages ("that stack is allocated when the first
	// module is loaded"; we allocate with the segment for simplicity).
	for off := uint32(0); off < segStackTop; off += mem.PageSize {
		if err := seg.mapPage(off); err != nil {
			return nil, err
		}
	}
	s.segs = append(s.segs, seg)
	return seg, nil
}

func (seg *ExtSegment) mapPage(off uint32) error {
	page := off &^ uint32(mem.PageMask)
	if seg.mapped[page] {
		return nil
	}
	if _, err := seg.S.K.MapKernelPage(seg.Base+page, true); err != nil {
		return err
	}
	seg.mapped[page] = true
	return nil
}

func (seg *ExtSegment) physAt(off uint32) (uint32, error) {
	e := seg.S.K.KernelSpace().Lookup(seg.Base + off)
	if !e.Present() {
		return 0, fmt.Errorf("palladium: segment %s offset %#x not mapped", seg.Name, off)
	}
	return e.Frame() | (seg.Base+off)&mem.PageMask, nil
}

// --- loader.Space implementation (segment-relative addresses) ---

// AllocRange implements loader.Space inside the extension segment:
// freed ranges are reused first (first fit), then the bump cursor
// extends the live area.
func (seg *ExtSegment) AllocRange(size uint32, name string, writable, ppl1 bool) (uint32, error) {
	size = (size + mem.PageMask) &^ uint32(mem.PageMask)
	if size == 0 {
		size = mem.PageSize
	}
	off, reused := seg.ranges.takeFree(size)
	if !reused {
		off = seg.next
		if off+size-1 > seg.Limit {
			return 0, fmt.Errorf("palladium: segment %s full (need %#x at %#x)", seg.Name, size, off)
		}
		seg.next += size
	}
	seg.ranges.noteAlloc(off, size)
	for o := off; o < off+size; o += mem.PageSize {
		if err := seg.mapPage(o); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// FreeRange implements loader.Space: the range becomes reusable by
// later AllocRange calls. (The paper's prototype reclaimed segment
// memory only with the whole segment; a production loader cannot
// afford that leak across repeated module load/unload cycles.) The
// backing pages stay mapped — the segment's pages are a stable
// resource; only placement within the segment is recycled.
func (seg *ExtSegment) FreeRange(addr uint32) error { return seg.ranges.release(addr) }

// Write implements loader.Space. The copy proceeds page-wise: one
// segment-offset translation per page instead of one per byte, with
// the simulated charge unchanged.
func (seg *ExtSegment) Write(addr uint32, b []byte) error {
	total := len(b)
	err := mem.ForEachPageRun(addr, total, func(off uint32, n int) error {
		pa, err := seg.physAt(off)
		if err != nil {
			return err
		}
		seg.S.K.Phys.WriteBytes(pa, b[:n])
		b = b[n:]
		return nil
	})
	if err != nil {
		return err
	}
	seg.S.K.Clock.Add(seg.S.K.Costs.CopyPerByte * float64(total))
	return nil
}

// InstallText implements loader.Space, one page-contiguous run at a
// time (one translation and one block-cache invalidation per page).
func (seg *ExtSegment) InstallText(addr uint32, text []isa.Instr) error {
	for i := 0; i < len(text); {
		off := addr + uint32(i)*isa.InstrSlot
		pa, err := seg.physAt(off)
		if err != nil {
			return err
		}
		n := int((mem.PageSize - pa&mem.PageMask) / isa.InstrSlot)
		if n > len(text)-i {
			n = len(text) - i
		}
		seg.S.K.Machine.InstallCode(pa, text[i:i+n])
		i += n
	}
	return nil
}

// RemoveText implements loader.Space.
func (seg *ExtSegment) RemoveText(addr uint32, n int) error {
	for i := 0; i < n; {
		off := addr + uint32(i)*isa.InstrSlot
		c := 1
		if pa, err := seg.physAt(off); err == nil {
			c = int((mem.PageSize - pa&mem.PageMask) / isa.InstrSlot)
			if c > n-i {
				c = n - i
			}
			seg.S.K.Machine.RemoveCode(pa, c)
		}
		i += c
	}
	return nil
}

// SetWritable implements loader.Space.
func (seg *ExtSegment) SetWritable(addr, size uint32, writable bool) error {
	for o := addr &^ uint32(mem.PageMask); o < addr+size; o += mem.PageSize {
		seg.S.K.KernelSpace().SetWritable(seg.Base+o, writable)
		seg.S.K.MMU.InvalidatePage(seg.Base + o)
	}
	return nil
}

// kernelTextSpace places kernel-side stubs in kernel text; addresses
// are KCodeSel offsets (linear minus the kernel base).
type kernelTextSpace struct{ s *System }

func (ks *kernelTextSpace) AllocRange(size uint32, name string, writable, ppl1 bool) (uint32, error) {
	size = (size + mem.PageMask) &^ uint32(mem.PageMask)
	if off, ok := ks.s.ktRanges.takeFree(size); ok {
		ks.s.ktRanges.noteAlloc(off, size)
		return off, nil
	}
	lin, err := ks.s.K.KernelAlloc(size, mem.PageSize)
	if err != nil {
		return 0, err
	}
	off := lin - kernel.KernelBase
	ks.s.ktRanges.noteAlloc(off, size)
	return off, nil
}

// FreeRange recycles a kernel-text range for later AllocRange calls
// (the kernel heap itself only grows; this list is the reuse layer on
// top of it).
func (ks *kernelTextSpace) FreeRange(addr uint32) error { return ks.s.ktRanges.release(addr) }

func (ks *kernelTextSpace) phys(off uint32) (uint32, error) {
	lin := kernel.KernelBase + off
	e := ks.s.K.KernelSpace().Lookup(lin)
	if !e.Present() {
		return 0, fmt.Errorf("palladium: kernel text at %#x not mapped", lin)
	}
	return e.Frame() | lin&mem.PageMask, nil
}

func (ks *kernelTextSpace) Write(addr uint32, b []byte) error {
	for i, v := range b {
		pa, err := ks.phys(addr + uint32(i))
		if err != nil {
			return err
		}
		ks.s.K.Phys.Write8(pa, v)
	}
	return nil
}

func (ks *kernelTextSpace) InstallText(addr uint32, text []isa.Instr) error {
	for i := 0; i < len(text); {
		pa, err := ks.phys(addr + uint32(i)*isa.InstrSlot)
		if err != nil {
			return err
		}
		n := int((mem.PageSize - pa&mem.PageMask) / isa.InstrSlot)
		if n > len(text)-i {
			n = len(text) - i
		}
		ks.s.K.Machine.InstallCode(pa, text[i:i+n])
		i += n
	}
	return nil
}

func (ks *kernelTextSpace) RemoveText(addr uint32, n int) error {
	for i := 0; i < n; {
		c := 1
		if pa, err := ks.phys(addr + uint32(i)*isa.InstrSlot); err == nil {
			c = int((mem.PageSize - pa&mem.PageMask) / isa.InstrSlot)
			if c > n-i {
				c = n - i
			}
			ks.s.K.Machine.RemoveCode(pa, c)
		}
		i += c
	}
	return nil
}

func (ks *kernelTextSpace) SetWritable(addr, size uint32, writable bool) error { return nil }

// Insmod loads a kernel module into the extension segment (the
// modified insmod of Section 4.3) and registers every exported
// function symbol in the Extension Function Table. The resolver only
// exposes what the kernel chooses: symbols of modules already in the
// same segment (modules sharing a segment share data freely).
func (s *System) Insmod(seg *ExtSegment, obj *isa.Object) (*loader.Image, error) {
	if seg.aborted {
		return nil, ErrKernelExtensionAborted
	}
	resolve := func(name string) (uint32, bool) {
		for _, m := range seg.modules {
			if a, ok := m.Lookup(name); ok {
				return a, true
			}
		}
		return 0, false
	}
	im, err := loader.Load(obj, seg, resolve, loader.Options{GOT: true, SealGOT: false, TextPPL1: false, DataPPL1: false, GOTPPL1: false})
	if err != nil {
		return nil, err
	}
	seg.modules = append(seg.modules, im)

	// Per-segment Transfer stub arena: Transfer runs at SPL 1 inside
	// the extension segment, so its code must live there.
	if seg.stubs == nil {
		seg.stubs, err = newStubArena(seg, "palladium.segstubs", 4*mem.PageSize)
		if err != nil {
			return nil, err
		}
	}

	// Register exported functions as extension service entry points
	// ("whenever a new extension is loaded into the kernel, it
	// registers with the kernel one or multiple function pointers").
	for _, g := range im.Globals {
		sym := obj.Symbol(g)
		if sym == nil || sym.Section != isa.SecText {
			continue
		}
		fnOff := im.Syms[g]
		tsyms, err := seg.stubs.add("transfer:"+g, transferSrc(fnOff, s.kernRetGate))
		if err != nil {
			return nil, err
		}
		src := kernelPrepareSrc(
			segStackTop-4,     // argument slot (segment-relative; DS = segment data)
			segScratchOff,     // SP save (see segScratchOff comment)
			segScratchOff+4,   // BP save
			uint32(seg.Data),  // extension SS
			segStackTop-4,     // extension ESP
			uint32(seg.Code),  // extension CS
			tsyms["transfer"], // Transfer's segment-relative offset
		)
		psyms, err := s.kernPrep.add("prepare:"+g, src)
		if err != nil {
			return nil, err
		}
		s.eft[g] = &KernelExtensionFunc{
			Seg: seg, Name: g, FnOff: fnOff,
			stub:   stubSyms{Prepare: psyms["prepare"], Transfer: tsyms["transfer"]},
			module: im,
		}
	}
	return im, nil
}

// WriteShared is the kernel's cross-segment write into an extension's
// shared data area; each access sequence pays the segment-register
// reload the paper measures at 12 cycles.
func (s *System) WriteShared(seg *ExtSegment, off uint32, b []byte) error {
	var es mmu.Selector
	if f := s.K.Machine.LoadSegReg(&es, seg.Data); f != nil {
		return f
	}
	s.K.Clock.Add(s.K.Costs.CopyPerByte * float64(len(b)))
	return seg.Write(off, b)
}

// Invoke runs a kernel extension function synchronously: the kernel-
// side Prepare stub lrets into the SPL-1 segment, the function runs to
// completion on the segment's stack, and the Transfer stub lcalls back
// through the return gate. A segment violation or time-limit overrun
// aborts the extension.
func (f *KernelExtensionFunc) Invoke(arg uint32) (uint32, error) {
	return f.invoke(arg, false)
}

// InvokeTx runs the extension as a transaction (System.Tx): the whole
// machine (memory image, CPU, MMU, clock, kernel bookkeeping) is frozen
// in a clone before the call, and a protection fault or time-limit
// overrun resets everything onto that clone instead of aborting the
// segment. The error wraps ErrKernelExtensionRolledBack; the segment
// remains alive and the next invocation starts from known-good state.
// A successful call is bit-identical in every simulated metric to a
// plain Invoke.
func (f *KernelExtensionFunc) InvokeTx(arg uint32) (uint32, error) {
	return f.invoke(arg, true)
}

func (f *KernelExtensionFunc) invoke(arg uint32, tx bool) (uint32, error) {
	s := f.Seg.S
	if f.Seg.aborted {
		return 0, ErrKernelExtensionAborted
	}
	p := s.K.Current()
	if p == nil {
		return 0, fmt.Errorf("palladium: no current process (kernel extensions run on the caller's kernel stack)")
	}
	if !tx {
		return f.run(p, arg, false)
	}
	var v uint32
	var err error
	s.Tx(func() bool {
		v, err = f.run(p, arg, true)
		return errors.Is(err, ErrKernelExtensionRolledBack)
	})
	return v, err
}

// run executes the extension on p's kernel stack. A segment violation
// or time-limit overrun aborts the segment, or under tx leaves it alive
// and returns an error wrapping ErrKernelExtensionRolledBack, for the
// transaction to roll back.
func (f *KernelExtensionFunc) run(p *kernel.Process, arg uint32, tx bool) (uint32, error) {
	s := f.Seg.S
	k := s.K
	// fail routes an abort-worthy outcome through the active policy:
	// transactional calls are rolled back by their transaction and keep
	// the segment alive; plain calls abort the segment (Section 4.5.2).
	fail := func(cause error) error {
		// Both the policy sentinel and the cause are wrapped (the
		// message is unchanged) so callers — notably the sandbox fault
		// taxonomy — can errors.As the *mmu.Fault or errors.Is the
		// time limit out of the chain.
		if tx {
			return fmt.Errorf("%w: %w", ErrKernelExtensionRolledBack, cause)
		}
		f.Seg.abort(s)
		return fmt.Errorf("%w: %w", ErrKernelExtensionAborted, cause)
	}
	m := k.Machine
	saved := m.SaveContext()
	defer m.RestoreContext(saved)

	// Kernel context: ring 0 code, the extension's data segment (so
	// the stub's absolute operands hit the segment), the invoking
	// process's kernel stack (Section 4.3).
	m.CS = kernel.KCodeSel
	m.DS = f.Seg.Data
	m.ES = f.Seg.Data
	m.SS = kernel.KDataSel
	m.Regs[isa.ESP] = p.KStackTop - kernel.KernelBase
	m.EIP = f.stub.Prepare
	if fault := m.Push(arg); fault != nil {
		return 0, fault
	}
	if fault := m.Push(0); fault != nil { // dummy return address
		return 0, fault
	}

	prevLimit := k.ArmExtLimit(k.Clock.Cycles() + k.ExtTimeLimit)
	defer k.DisarmExtLimit(prevLimit)

	for {
		res := m.Run(cpu.RunLimits{MaxInstructions: 10_000_000})
		switch res.Reason {
		case cpu.StopError:
			if errors.Is(res.Err, errKernelReturn) {
				// The trusted kernel restores its own state; charge
				// the same two loads + ret that the user-level
				// AppCallGate performs (Table 1, "Restoring state").
				k.Clock.Charge(k.Model, cycles.Load)
				k.Clock.Charge(k.Model, cycles.Load)
				k.Clock.Charge(k.Model, cycles.RetNear)
				return m.Reg(isa.EAX), nil
			}
			if errors.Is(res.Err, kernel.ErrExtTimeBudget) || errors.Is(res.Err, ErrTimeLimit) {
				return 0, fail(ErrTimeLimit)
			}
			return 0, res.Err
		case cpu.StopFault:
			switch k.HandleFault(p, res.Fault) {
			case kernel.Retry:
				continue
			case kernel.KernelExtensionFault:
				return 0, fail(res.Fault)
			default:
				return 0, res.Fault
			}
		default:
			return 0, fmt.Errorf("palladium: kernel extension stopped: %v", res.Reason)
		}
	}
}

// abort marks the segment dead and unregisters its entry points ("the
// current Palladium prototype does not perform any clean-up for
// aborted kernel extensions, beyond reclaiming the system resources").
func (seg *ExtSegment) abort(s *System) {
	seg.aborted = true
	for n, f := range s.eft {
		if f.Seg == seg {
			delete(s.eft, n)
		}
	}
}

// InvokeAsync queues a request for the extension (Section 4.3's
// asynchronous extensions): if the module is busy the request waits;
// otherwise it runs when RunPending drains the queue. Results are
// discarded, as with the paper's queued packet-filter work. The queue
// is bounded (QueueBound, default DefaultAsyncQueueBound): once full,
// further requests are refused with ErrAsyncBackpressure instead of
// growing the queue without limit.
func (f *KernelExtensionFunc) InvokeAsync(arg uint32) error {
	seg := f.Seg
	if seg.aborted {
		return ErrKernelExtensionAborted
	}
	bound := seg.QueueBound
	if bound <= 0 {
		bound = DefaultAsyncQueueBound
	}
	if len(seg.queue) >= bound {
		return fmt.Errorf("%w: segment %s holds %d pending requests",
			ErrAsyncBackpressure, seg.Name, len(seg.queue))
	}
	seg.queue = append(seg.queue, asyncReq{fn: f, arg: arg})
	return nil
}

// RunPending drains the segment's asynchronous request queue, running
// each request to completion before the next (extensions are not
// re-entrant; the queue serializes them).
func (seg *ExtSegment) RunPending() (completed int, err error) {
	if seg.busy {
		return 0, nil
	}
	seg.busy = true
	defer func() { seg.busy = false }()
	for len(seg.queue) > 0 {
		req := seg.queue[0]
		seg.queue = seg.queue[1:]
		if _, err := req.fn.Invoke(req.arg); err != nil {
			return completed, err
		}
		completed++
	}
	return completed, nil
}

// Pending reports the queued request count.
func (seg *ExtSegment) Pending() int { return len(seg.queue) }

// Release retires the segment gracefully: every queued asynchronous
// request is drained (run to completion — accepted work is never
// dropped) and the segment's entry points are then unregistered, as
// for an abort's resource reclamation. Releasing an already-aborted or
// already-released segment is a no-op.
func (seg *ExtSegment) Release() error {
	if seg.aborted {
		return nil
	}
	if _, err := seg.RunPending(); err != nil {
		return err
	}
	seg.abort(seg.S)
	return nil
}
