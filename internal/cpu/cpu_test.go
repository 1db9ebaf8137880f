package cpu

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// Selector layout used throughout the CPU tests, mirroring Palladium's
// user-level arrangement (Figure 5): extension segments at SPL 3, the
// extensible application at SPL 2, the kernel at SPL 0.
const (
	selKCode = 1 // DPL 0, base 3G
	selKData = 2
	selXCode = 3 // DPL 3, base 0 (extension)
	selXData = 4
	selACode = 5 // DPL 2, base 0 (application)
	selAData = 6
	selGate  = 7 // call gate DPL 3 -> app code
)

type harness struct {
	t      testing.TB
	m      *Machine
	as     *mmu.AddressSpace
	alloc  *mem.FrameAllocator
	resets int // resetTo calls
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	return newHarnessModel(t, cycles.Measured())
}

// newHarnessModel is newHarness under the given cost model, shared by
// the CPU and the MMU.
func newHarnessModel(t testing.TB, model *cycles.Model) *harness {
	t.Helper()
	phys := mem.NewPhysical()
	clock := cycles.NewClock(200)
	mu := mmu.New(phys, 32, clock, model)
	const uLim = 0xBFFF_FFFF
	mu.GDT.Set(selKCode, mmu.Descriptor{Kind: mmu.SegCode, Base: 0xC000_0000, Limit: 0x3FFF_FFFF, DPL: 0, Present: true, Readable: true})
	mu.GDT.Set(selKData, mmu.Descriptor{Kind: mmu.SegData, Base: 0xC000_0000, Limit: 0x3FFF_FFFF, DPL: 0, Present: true, Writable: true})
	mu.GDT.Set(selXCode, mmu.Descriptor{Kind: mmu.SegCode, Base: 0, Limit: uLim, DPL: 3, Present: true, Readable: true})
	mu.GDT.Set(selXData, mmu.Descriptor{Kind: mmu.SegData, Base: 0, Limit: uLim, DPL: 3, Present: true, Writable: true})
	mu.GDT.Set(selACode, mmu.Descriptor{Kind: mmu.SegCode, Base: 0, Limit: uLim, DPL: 2, Present: true, Readable: true})
	mu.GDT.Set(selAData, mmu.Descriptor{Kind: mmu.SegData, Base: 0, Limit: uLim, DPL: 2, Present: true, Writable: true})

	alloc := mem.NewFrameAllocator(0x0010_0000, 1024*mem.PageSize)
	as, err := mmu.NewAddressSpace(phys, alloc)
	if err != nil {
		t.Fatal(err)
	}
	mu.LoadCR3(as)
	m := New(phys, mu, clock, model)
	return &harness{t: t, m: m, as: as, alloc: alloc}
}

func gsel(idx, rpl int) mmu.Selector { return mmu.MakeSelector(idx, false, rpl) }

// mapAt maps a fresh frame at the given linear page and returns its
// physical base.
func (h *harness) mapAt(linear uint32, writable, user bool) uint32 {
	h.t.Helper()
	f, err := h.alloc.Alloc()
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.as.Map(linear, f, writable, user); err != nil {
		h.t.Fatal(err)
	}
	return f
}

// install assembles src and loads text at linear address textBase and
// data right after it, resolving all symbols to linear addresses
// (base-0 segments). It returns the symbol table.
func (h *harness) install(textBase uint32, src string) map[string]uint32 {
	h.t.Helper()
	obj, err := isa.Assemble("test", src)
	if err != nil {
		h.t.Fatal(err)
	}
	obj = obj.Clone()
	dataBase := textBase + ((obj.TextBytes() + 0xFFF) &^ 0xFFF)
	syms := make(map[string]uint32)
	addrOf := func(name string) uint32 {
		s := obj.Symbol(name)
		if s == nil || s.Section == isa.SecUndef {
			h.t.Fatalf("undefined symbol %q", name)
		}
		switch s.Section {
		case isa.SecText:
			return textBase + s.Off
		default:
			return dataBase + s.Off
		}
	}
	for _, r := range obj.Relocs {
		v := int32(addrOf(r.Sym)) + r.Addend
		switch r.Slot {
		case isa.RelDstDisp:
			obj.Text[r.Index].Dst.Disp += v
		case isa.RelSrcDisp:
			obj.Text[r.Index].Src.Disp += v
		case isa.RelDstImm:
			obj.Text[r.Index].Dst.Imm += v
		case isa.RelSrcImm:
			obj.Text[r.Index].Src.Imm += v
		case isa.RelData:
			old := uint32(obj.Data[r.Index]) | uint32(obj.Data[r.Index+1])<<8 |
				uint32(obj.Data[r.Index+2])<<16 | uint32(obj.Data[r.Index+3])<<24
			nv := old + uint32(v)
			obj.Data[r.Index] = byte(nv)
			obj.Data[r.Index+1] = byte(nv >> 8)
			obj.Data[r.Index+2] = byte(nv >> 16)
			obj.Data[r.Index+3] = byte(nv >> 24)
		}
	}
	for name := range obj.Symbols {
		if obj.Symbols[name].Section != isa.SecUndef {
			syms[name] = addrOf(name)
		}
	}
	// Map code pages (PPL 1 so both CPL 2 and 3 can fetch) and copy in,
	// page by page: the pages' frames need not be contiguous.
	for off := uint32(0); off < obj.TextBytes(); off += mem.PageSize {
		h.mapAt(textBase+off, false, true)
	}
	const perPage = mem.PageSize / isa.InstrSlot
	for i := 0; i < len(obj.Text); i += perPage {
		pa, f := h.m.MMU.Translate(gsel(selXCode, 3), textBase+uint32(i)*isa.InstrSlot, 4, mmu.Execute, 3)
		if f != nil {
			h.t.Fatalf("code address not executable: %v", f)
		}
		h.m.InstallCode(pa, obj.Text[i:min(i+perPage, len(obj.Text))])
	}
	// Map data pages (PPL 1, writable) and copy.
	dataLen := uint32(len(obj.Data)) + obj.BSSSize
	for off := uint32(0); off < dataLen || off == 0; off += mem.PageSize {
		h.mapAt(dataBase+off, true, true)
		if dataLen == 0 {
			break
		}
	}
	for i, b := range obj.Data {
		pa, f := h.m.MMU.Translate(gsel(selXData, 3), dataBase+uint32(i), 1, mmu.Write, 3)
		if f != nil {
			h.t.Fatalf("data write: %v", f)
		}
		h.m.Phys.Write8(pa, b)
	}
	return syms
}

// clone derives a harness over a clone of h's machine, rebound to its
// own address-space wrapper.
func (h *harness) clone() *harness {
	phys := h.m.Phys.Clone()
	clock := h.m.Clock.Clone()
	mu := h.m.MMU.Clone(phys, clock)
	alloc := h.alloc.Clone()
	as := mmu.AdoptAddressSpace(phys, alloc, h.as.CR3())
	mu.AdoptSpace(as)
	return &harness{t: h.t, m: h.m.Clone(phys, mu, clock), as: as, alloc: alloc}
}

// resetTo rewinds a harness in place to t, the harness it was cloned
// from or a frozen clone of it, layer by layer as kernel.Kernel.ResetTo
// does.
func (h *harness) resetTo(t *harness) {
	h.m.Phys.ResetTo(t.m.Phys)
	h.alloc.ResetTo(t.alloc)
	h.m.MMU.ResetTo(t.m.MMU)
	h.m.ResetTo(t.m)
	h.m.MMU.AdoptSpace(h.as)
	h.resets++
}

// startUser prepares CPL 3 execution at entry with a fresh stack.
func (h *harness) startUser(entry uint32) {
	h.mapAt(0x0008_0000, true, true)
	h.m.CS = gsel(selXCode, 3)
	h.m.DS = gsel(selXData, 3)
	h.m.SS = gsel(selXData, 3)
	h.m.EIP = entry
	h.m.Regs[isa.ESP] = 0x0008_1000
}

func TestALUAndLoop(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		; sum 1..10 into eax
		entry:
			mov eax, 0
			mov ecx, 10
		loop:
			add eax, ecx
			dec ecx
			jne loop
			hlt
	`)
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 1000})
	// HLT at CPL 3 faults with #GP -- use that as the stop signal.
	if res.Reason != StopFault || res.Fault.Kind != mmu.GP {
		t.Fatalf("stop = %+v", res)
	}
	if got := h.m.Reg(isa.EAX); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestMemoryOpsAndFlags(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, [val]
			add eax, 2
			mov [val], eax
			cmp eax, 9
			je good
			mov ebx, 0
			jmp done
		good:
			mov ebx, 1
		done:
			nop
		.data
		val: .word 7
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["done"] + isa.InstrSlot)
	res := h.m.Run(RunLimits{MaxInstructions: 100})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	if h.m.Reg(isa.EBX) != 1 {
		t.Errorf("ebx = %d, want 1 (add+cmp flags)", h.m.Reg(isa.EBX))
	}
}

func TestStackAndNearCall(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			push 41
			call inc
			mov ebx, eax
		stop:
			nop
		inc:
			mov eax, [esp+4]
			inc eax
			ret
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	res := h.m.Run(RunLimits{MaxInstructions: 100})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v", res)
	}
	if h.m.Reg(isa.EBX) != 42 {
		t.Errorf("result = %d, want 42", h.m.Reg(isa.EBX))
	}
	// push 41 remains on the stack (caller cleanup not done).
	if esp := h.m.Reg(isa.ESP); esp != 0x0008_1000-4 {
		t.Errorf("esp = %#x", esp)
	}
}

func TestByteOps(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			movb eax, [msg+1]
			movb [msg], eax
		stop: nop
		.data
		msg: .byte 0x11, 0xAB
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	if res := h.m.Run(RunLimits{MaxInstructions: 10}); res.Reason != StopBreak {
		t.Fatalf("stop = %+v", res)
	}
	pa, _ := h.m.MMU.Translate(gsel(selXData, 3), syms["msg"], 1, mmu.Read, 3)
	if got := h.m.Phys.Read8(pa); got != 0xAB {
		t.Errorf("msg[0] = %#x, want 0xAB", got)
	}
}

func TestShiftAndMul(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 3
			shl eax, 4      ; 48
			mov ebx, 5
			imul ebx, eax   ; 240
			shr eax, 2      ; 12
			sar eax, 1      ; 6
		stop: nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	if res := h.m.Run(RunLimits{MaxInstructions: 10}); res.Reason != StopBreak {
		t.Fatalf("stop = %+v", res)
	}
	if h.m.Reg(isa.EBX) != 240 || h.m.Reg(isa.EAX) != 6 {
		t.Errorf("ebx=%d eax=%d", h.m.Reg(isa.EBX), h.m.Reg(isa.EAX))
	}
}

func TestUnsignedAndSignedBranches(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, -1       ; 0xFFFFFFFF
			cmp eax, 1
			jb below          ; unsigned: 0xFFFFFFFF > 1, not taken
			mov ebx, 1
			cmp eax, 1
			jl less           ; signed: -1 < 1, taken
			mov ecx, 0
			jmp stop
		below:
			mov ebx, 0
			jmp stop
		less:
			mov ecx, 1
		stop: nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	if res := h.m.Run(RunLimits{MaxInstructions: 20}); res.Reason != StopBreak {
		t.Fatalf("stop = %+v", res)
	}
	if h.m.Reg(isa.EBX) != 1 || h.m.Reg(isa.ECX) != 1 {
		t.Errorf("ebx=%d ecx=%d, want 1/1", h.m.Reg(isa.EBX), h.m.Reg(isa.ECX))
	}
}

func TestFaultOnSupervisorPageAccess(t *testing.T) {
	h := newHarness(t)
	// A PPL 0 page at 0x6000 that CPL 3 code tries to read: the exact
	// violation Palladium detects for misbehaving user extensions.
	h.mapAt(0x0000_6000, true, false)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, [0x6000]
			nop
	`)
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || res.Fault.Kind != mmu.PF {
		t.Fatalf("stop = %+v, want #PF", res)
	}
	if res.Fault.Linear != 0x6000 {
		t.Errorf("fault linear = %#x", res.Fault.Linear)
	}
}

func TestFetchBeyondSegmentLimitFaults(t *testing.T) {
	h := newHarness(t)
	// Shrink the extension code segment to 64 KB and jump past it.
	d := *h.m.MMU.GDT.Get(selXCode)
	d.Limit = 0xFFFF
	h.m.MMU.GDT.Set(selXCode, d)
	syms := h.install(0x0000_1000, `
		entry:
			jmp 0x20000
	`)
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || res.Fault.Kind != mmu.GP {
		t.Fatalf("stop = %+v, want #GP (limit)", res)
	}
}

func TestUndefinedInstructionFaults(t *testing.T) {
	h := newHarness(t)
	h.mapAt(0x0001_0000, false, true)
	h.startUser(0x0001_0000)
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || res.Fault.Kind != mmu.UD {
		t.Fatalf("stop = %+v, want #UD", res)
	}
}

// setupRings installs TSS stacks and gates for privilege-transition
// tests: app code at CPL 2 (selACode), extension at CPL 3 (selXCode),
// call gate selGate (DPL 3) into app code.
func (h *harness) setupRings(appEntry uint32) {
	h.mapAt(0x0009_0000, true, false) // app ring-2 stack page (PPL 0)
	h.m.TSS.SS[2] = gsel(selAData, 2)
	h.m.TSS.ESP[2] = 0x0009_1000
	h.m.MMU.GDT.Set(selGate, mmu.Descriptor{
		Kind: mmu.SegCallGate, DPL: 3, Present: true,
		GateSel: gsel(selACode, 2), GateOff: appEntry,
	})
}

func TestInterPrivilegeLretAndLcall(t *testing.T) {
	h := newHarness(t)
	// App code (CPL 2) far-returns into extension code (CPL 3); the
	// extension lcalls back through the gate. This is the skeleton of
	// Palladium's Prepare/Transfer/AppCallGate cycle.
	syms := h.install(0x0001_0000, `
		; runs at CPL 2 (app)
		appentry:
			push 0x0000001F   ; extension SS: selXData idx4 rpl3 -> (4<<3)|3 = 0x23
			push 0x00070FF0   ; extension ESP
			push 0x0000001B   ; extension CS: selXCode idx3 rpl3 -> (3<<3)|3
			push extcode
			lret              ; "call" downhill into the extension
		appback:
			mov ebx, eax      ; result from extension
			nop
		; runs at CPL 3 (extension)
		extcode:
			mov eax, 1234
			lcall 0x3B        ; gate: idx7 rpl3 -> (7<<3)|3
	`)
	// Fix the pushed selectors to the computed ones.
	h.setupRings(syms["appback"])
	h.mapAt(0x0007_0000, true, true) // extension stack page (PPL 1)

	h.m.CS = gsel(selACode, 2)
	h.m.DS = gsel(selXData, 3) // survives the CPL 3 transition
	h.m.SS = gsel(selAData, 2)
	h.m.EIP = syms["appentry"]
	h.m.Regs[isa.ESP] = 0x0009_1000
	// The gate returns into appback, but the TSS ESP (0x91000) is not
	// where the app stack was -- exactly the x86 behaviour Palladium's
	// AppCallGate compensates for. Here the app has no frame to
	// restore, so execution continues fine.
	h.m.SetBreak(syms["appback"] + isa.InstrSlot)
	res := h.m.Run(RunLimits{MaxInstructions: 100})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	if h.m.Reg(isa.EBX) != 1234 {
		t.Errorf("result = %d, want 1234", h.m.Reg(isa.EBX))
	}
	if h.m.CPL() != 2 {
		t.Errorf("final CPL = %d, want 2", h.m.CPL())
	}
}

func TestLretToMorePrivilegedFaults(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			push 0x00000010   ; selKData rpl0... irrelevant, lret pops CS second
			push 0
			push 0x00000008   ; selKCode rpl0: try to "return" to ring 0
			push 0
			lret
	`)
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || res.Fault.Kind != mmu.GP {
		t.Fatalf("stop = %+v, want #GP", res)
	}
	if !strings.Contains(res.Fault.Reason, "more privileged") {
		t.Errorf("reason = %q", res.Fault.Reason)
	}
}

func TestCallGateDPLEnforced(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			lcall 0x3B
	`)
	// Gate with DPL 1: CPL 3 may not call through it.
	h.m.MMU.GDT.Set(selGate, mmu.Descriptor{
		Kind: mmu.SegCallGate, DPL: 1, Present: true,
		GateSel: gsel(selACode, 2), GateOff: 0,
	})
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || res.Fault.Kind != mmu.GP {
		t.Fatalf("stop = %+v, want #GP", res)
	}
	if !strings.Contains(res.Fault.Reason, "gate DPL") {
		t.Errorf("reason = %q", res.Fault.Reason)
	}
}

func TestLcallToNonGateFaults(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			lcall 0x1B   ; selXCode: a code segment, not a gate
	`)
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || !strings.Contains(res.Fault.Reason, "not a call gate") {
		t.Fatalf("stop = %+v", res)
	}
}

func TestTSSStackSwitchOnGateCall(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		appentry:
			nop
		extcode:
			lcall 0x3B
	`)
	h.setupRings(syms["appentry"])
	h.mapAt(0x0007_0000, true, true)
	h.startUser(syms["extcode"])
	h.m.Regs[isa.ESP] = 0x0007_0FF0
	h.m.SetBreak(syms["appentry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v", res)
	}
	// After the inter-privilege call: SS:ESP from TSS minus the
	// 4-word frame (old SS, old ESP, old CS, return EIP).
	if h.m.SS != gsel(selAData, 2) {
		t.Errorf("SS = %v", h.m.SS)
	}
	if esp := h.m.Reg(isa.ESP); esp != 0x0009_1000-16 {
		t.Errorf("esp = %#x, want %#x", esp, 0x0009_1000-16)
	}
	// Verify the frame contents.
	words := make([]uint32, 4)
	for i := range words {
		v, f := h.m.Peek(uint32(i) * 4)
		if f != nil {
			t.Fatal(f)
		}
		words[i] = v
	}
	if words[0] != syms["extcode"]+isa.InstrSlot {
		t.Errorf("return EIP = %#x", words[0])
	}
	if mmu.Selector(words[1]) != gsel(selXCode, 3) {
		t.Errorf("saved CS = %#x", words[1])
	}
	if words[2] != 0x0007_0FF0 {
		t.Errorf("saved ESP = %#x", words[2])
	}
	if mmu.Selector(words[3]) != gsel(selXData, 3) {
		t.Errorf("saved SS = %#x", words[3])
	}
}

func TestIntGateToRing0Service(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 20     ; syscall number
			int 0x80
			mov ebx, eax    ; result
		stop: nop
	`)
	// IDT gate for 0x80 targeting a kernel-space service address.
	h.m.IDT[0x80] = mmu.Descriptor{
		Kind: mmu.SegIntGate, DPL: 3, Present: true,
		GateSel: gsel(selKCode, 0), GateOff: 0x0000_0100,
	}
	h.m.TSS.SS[0] = gsel(selKData, 0)
	h.m.TSS.ESP[0] = 0x0000_3000 // kernel stack offset (linear 0xC0003000)
	h.mapAt(0xC000_2000, true, false)
	var gotNr uint32
	h.m.RegisterService(0xC000_0100, &Service{
		Name: "getpid", Kind: ServiceInt,
		Handler: func(m *Machine) error {
			gotNr = m.Reg(isa.EAX)
			m.SetReg(isa.EAX, 777)
			return nil
		},
	})
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	res := h.m.Run(RunLimits{MaxInstructions: 100})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	if gotNr != 20 {
		t.Errorf("syscall nr = %d", gotNr)
	}
	if h.m.Reg(isa.EBX) != 777 {
		t.Errorf("result = %d, want 777", h.m.Reg(isa.EBX))
	}
	if h.m.CPL() != 3 {
		t.Errorf("CPL after iret = %d, want 3", h.m.CPL())
	}
}

func TestIntGateDPLBlocksUser(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry: int 0x81
	`)
	h.m.IDT[0x81] = mmu.Descriptor{
		Kind: mmu.SegIntGate, DPL: 0, Present: true,
		GateSel: gsel(selKCode, 0), GateOff: 0x200,
	}
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || res.Fault.Kind != mmu.GP {
		t.Fatalf("stop = %+v, want #GP (gate DPL)", res)
	}
}

func TestServiceErrorStopsRun(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry: int 0x80
	`)
	h.m.IDT[0x80] = mmu.Descriptor{
		Kind: mmu.SegIntGate, DPL: 3, Present: true,
		GateSel: gsel(selKCode, 0), GateOff: 0x100,
	}
	h.m.TSS.SS[0] = gsel(selKData, 0)
	h.m.TSS.ESP[0] = 0x3000
	h.mapAt(0xC000_2000, true, false)
	wantErr := errors.New("kill")
	h.m.RegisterService(0xC000_0100, &Service{
		Name: "bad", Kind: ServiceInt,
		Handler: func(m *Machine) error { return wantErr },
	})
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopError || !errors.Is(res.Err, wantErr) {
		t.Fatalf("stop = %+v", res)
	}
}

func TestTickHookFires(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
		spin:
			jmp spin
	`)
	h.startUser(syms["entry"])
	ticks := 0
	h.m.TickCycles = 50
	h.m.OnTick = func(m *Machine) error {
		ticks++
		if ticks >= 3 {
			return errors.New("time limit exceeded")
		}
		return nil
	}
	res := h.m.Run(RunLimits{MaxInstructions: 100000})
	if res.Reason != StopError {
		t.Fatalf("stop = %+v", res)
	}
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3", ticks)
	}
}

func TestRunBudget(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
		spin: jmp spin
	`)
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 7})
	if res.Reason != StopBudget || res.Instructions != 7 {
		t.Fatalf("stop = %+v", res)
	}
}

func TestCyclesAccumulate(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
			mov ebx, 2
			add eax, ebx
		stop: nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	h.m.MMU.LoadCR3(h.as) // flush translations warmed during install
	start := h.m.Clock.Cycles()
	h.m.Run(RunLimits{MaxInstructions: 10})
	got := h.m.Clock.Cycles() - start
	// 2x MovImm(1) + ALU(1) = 3 plus one TLB miss for the code page.
	want := 3 + 1*h.m.Model.Cost(cycles.TLBMiss)
	if got != want {
		t.Errorf("cycles = %v, want %v", got, want)
	}
}

func TestHltAtRing0(t *testing.T) {
	h := newHarness(t)
	// Install code reachable via kernel code segment (base 3G): put
	// it at linear 0xC0010000, i.e. offset 0x10000.
	f := h.mapAt(0xC001_0000, false, false)
	obj := isa.MustAssemble("k", "hlt")
	h.m.InstallCode(f, obj.Text)
	h.m.CS = gsel(selKCode, 0)
	h.m.DS = gsel(selKData, 0)
	h.m.SS = gsel(selKData, 0)
	h.m.EIP = 0x0001_0000
	h.mapAt(0xC000_2000, true, false)
	h.m.Regs[isa.ESP] = 0x3000
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopHalt {
		t.Fatalf("stop = %+v", res)
	}
	if res.Instructions != 1 {
		t.Errorf("halt retired %d instructions, want 1", res.Instructions)
	}
}

func TestLoadSegRegChargesAndChecks(t *testing.T) {
	h := newHarness(t)
	var ds mmu.Selector
	before := h.m.Clock.Cycles()
	if f := h.m.LoadSegReg(&ds, gsel(selXData, 3)); f != nil {
		t.Fatalf("valid load faulted: %v", f)
	}
	if got := h.m.Clock.Cycles() - before; got != 12 {
		t.Errorf("segment register load cost = %v, want 12 (paper 5.1)", got)
	}
	if ds != gsel(selXData, 3) {
		t.Error("selector not loaded")
	}
	// CPL 3 loading a DPL 0 selector faults.
	h.m.CS = gsel(selXCode, 3)
	if f := h.m.LoadSegReg(&ds, gsel(selKData, 0)); f == nil {
		t.Error("privileged selector load at CPL 3 must fault")
	}
}

func TestXchg(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
			mov ebx, 2
			xchg eax, ebx
		stop: nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	h.m.Run(RunLimits{MaxInstructions: 10})
	if h.m.Reg(isa.EAX) != 2 || h.m.Reg(isa.EBX) != 1 {
		t.Errorf("eax=%d ebx=%d", h.m.Reg(isa.EAX), h.m.Reg(isa.EBX))
	}
}

func TestIndirectCallAndJmp(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, fn
			call eax
			mov ebx, eax
			jmp [next]
		fn:
			mov eax, 5
			ret
		land:
			mov ecx, 9
		stop: nop
		.data
		next: .word land
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	res := h.m.Run(RunLimits{MaxInstructions: 100})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v", res)
	}
	if h.m.Reg(isa.EBX) != 5 || h.m.Reg(isa.ECX) != 9 {
		t.Errorf("ebx=%d ecx=%d", h.m.Reg(isa.EBX), h.m.Reg(isa.ECX))
	}
}

func TestNegNotIncDec(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 5
			neg eax        ; -5
			not eax        ; 4
			inc eax        ; 5
			dec eax        ; 4
			dec eax        ; 3
		stop: nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	h.m.Run(RunLimits{MaxInstructions: 10})
	if h.m.Reg(isa.EAX) != 3 {
		t.Errorf("eax = %d, want 3", h.m.Reg(isa.EAX))
	}
}

func TestWriteToReadOnlyCodePageFaults(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov [entry], eax   ; write to own (read-only) code page
	`)
	h.startUser(syms["entry"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || res.Fault.Kind != mmu.PF {
		t.Fatalf("stop = %+v, want #PF (read-only code page)", res)
	}
}
