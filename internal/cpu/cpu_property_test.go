package cpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mmu"
)

// runBinop executes `op eax, ebx` on the simulated CPU and returns
// EAX plus the resulting flags.
func runBinop(t *testing.T, op string, a, b uint32) (uint32, Flags) {
	t.Helper()
	h := newHarness(t)
	syms := h.install(0x0001_0000, fmt.Sprintf(`
		entry:
			%s eax, ebx
		stop: nop
	`, op))
	h.startUser(syms["entry"])
	h.m.Regs[isa.EAX] = a
	h.m.Regs[isa.EBX] = b
	h.m.SetBreak(syms["stop"])
	res := h.m.Run(RunLimits{MaxInstructions: 5})
	if res.Reason != StopBreak {
		t.Fatalf("%s: %+v", op, res)
	}
	return h.m.Reg(isa.EAX), h.m.Flags
}

func TestALUMatchesGoSemanticsProperty(t *testing.T) {
	type alu struct {
		name string
		gold func(a, b uint32) uint32
	}
	ops := []alu{
		{"add", func(a, b uint32) uint32 { return a + b }},
		{"sub", func(a, b uint32) uint32 { return a - b }},
		{"and", func(a, b uint32) uint32 { return a & b }},
		{"or", func(a, b uint32) uint32 { return a | b }},
		{"xor", func(a, b uint32) uint32 { return a ^ b }},
	}
	rng := testRand(t)
	for _, op := range ops {
		op := op
		f := func(a, b uint32) bool {
			got, flags := runBinop(t, op.name, a, b)
			want := op.gold(a, b)
			if got != want {
				return false
			}
			if flags.ZF != (want == 0) {
				return false
			}
			return flags.SF == (want&0x8000_0000 != 0)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
			t.Errorf("%s: %v", op.name, err)
		}
	}
}

func TestCmpFlagsMatchComparisonsProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		_, flags := runBinop(t, "cmp", a, b)
		if flags.ZF != (a == b) {
			return false
		}
		if flags.CF != (a < b) { // unsigned below
			return false
		}
		signedLess := int32(a) < int32(b)
		return (flags.SF != flags.OF) == signedLess
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: testRand(t)}); err != nil {
		t.Error(err)
	}
}

// TestAddFlagsMatchArithmeticProperty pins ADD's CF and OF, which
// execute and the trace tier compute with one shared formula, to
// unsigned carry and signed overflow computed in wider integers.
func TestAddFlagsMatchArithmeticProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		_, flags := runBinop(t, "add", a, b)
		sum := int64(int32(a)) + int64(int32(b))
		return flags.CF == (uint64(a)+uint64(b) > 0xFFFF_FFFF) &&
			flags.OF == (sum != int64(int32(sum)))
	}
	cfg := &quick.Config{MaxCount: 40, Rand: testRand(t)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	for _, p := range [][2]uint32{{0x7FFF_FFFF, 1}, {0x8000_0000, 0x8000_0000}, {0xFFFF_FFFF, 1}, {0x8000_0000, 0xFFFF_FFFF}} {
		if !f(p[0], p[1]) {
			t.Errorf("add %#x, %#x: CF/OF wrong", p[0], p[1])
		}
	}
}

func TestPushPopRoundTripProperty(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			push eax
			push ebx
			pop ecx
			pop edx
		stop: nop
	`)
	f := func(a, b uint32) bool {
		h.startUser(syms["entry"])
		h.m.Regs[isa.EAX] = a
		h.m.Regs[isa.EBX] = b
		h.m.SetBreak(syms["stop"])
		res := h.m.Run(RunLimits{MaxInstructions: 10})
		if res.Reason != StopBreak {
			return false
		}
		return h.m.Reg(isa.ECX) == b && h.m.Reg(isa.EDX) == a &&
			h.m.Reg(isa.ESP) == 0x0008_1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: testRand(t)}); err != nil {
		t.Error(err)
	}
}

func TestLretWithImmediateReleasesStack(t *testing.T) {
	h := newHarness(t)
	// Same-privilege far return with an 8-byte release.
	syms := h.install(0x0001_0000, `
		entry:
			push 1            ; two dummy args the lret 8 releases
			push 2
			push 0x1B         ; CS: selXCode rpl3
			push target
			lret 8
		target:
			nop
		stop: nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	if esp := h.m.Reg(isa.ESP); esp != 0x0008_1000 {
		t.Errorf("esp = %#x, want stack fully released", esp)
	}
}

func TestSamePrivilegeFarCallThroughGate(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			lcall 0x3B       ; gate (idx 7, rpl 3)
			mov ebx, eax
		stop: nop
		far:
			mov eax, 55
			lret
	`)
	// Gate targets code at the SAME privilege (DPL 3): no stack
	// switch, plain far call/return.
	h.m.MMU.GDT.Set(selGate, mmu.Descriptor{
		Kind: mmu.SegCallGate, DPL: 3, Present: true,
		GateSel: gsel(selXCode, 3), GateOff: syms["far"],
	})
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	res := h.m.Run(RunLimits{MaxInstructions: 20})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	if h.m.Reg(isa.EBX) != 55 || h.m.CPL() != 3 {
		t.Errorf("ebx=%d cpl=%d", h.m.Reg(isa.EBX), h.m.CPL())
	}
}

func TestConformingCodeExecutesAtCallerCPL(t *testing.T) {
	h := newHarness(t)
	// A conforming DPL-0 code segment is fetchable from CPL 3
	// without a gate (x86 conforming semantics).
	d := *h.m.MMU.GDT.Get(selXCode)
	d.Conforming = true
	d.DPL = 0
	h.m.MMU.GDT.Set(selXCode, d)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 7
		stop: nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	res := h.m.Run(RunLimits{MaxInstructions: 5})
	if res.Reason != StopBreak {
		t.Fatalf("conforming fetch failed: %+v", res)
	}
}

func TestStackFaultOnUnmappedStack(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry: push eax
	`)
	h.startUser(syms["entry"])
	h.m.Regs[isa.ESP] = 0x0050_0000 // unmapped
	res := h.m.Run(RunLimits{MaxInstructions: 5})
	if res.Reason != StopFault || res.Fault.Kind != mmu.SS {
		t.Fatalf("stop = %+v, want #SS", res)
	}
}

func TestIretRestoresFlags(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			cmp eax, eax      ; sets ZF
			int 0x80
			je zf_set         ; ZF must survive the interrupt
			mov ebx, 0
			jmp stop
		zf_set:
			mov ebx, 1
		stop: nop
	`)
	h.m.IDT[0x80] = mmu.Descriptor{
		Kind: mmu.SegIntGate, DPL: 3, Present: true,
		GateSel: gsel(selKCode, 0), GateOff: 0x100,
	}
	h.m.TSS.SS[0] = gsel(selKData, 0)
	h.m.TSS.ESP[0] = 0x3000
	h.mapAt(0xC000_2000, true, false)
	h.m.RegisterService(0xC000_0100, &Service{
		Name: "clobber", Kind: ServiceInt,
		Handler: func(m *Machine) error {
			// The handler's own flag changes must not leak back.
			m.Flags = Flags{}
			return nil
		},
	})
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	res := h.m.Run(RunLimits{MaxInstructions: 50})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	if h.m.Reg(isa.EBX) != 1 {
		t.Error("ZF was not restored by iret")
	}
}

func TestContextSaveRestoreRoundTrip(t *testing.T) {
	h := newHarness(t)
	h.m.Regs = [8]uint32{1, 2, 3, 4, 5, 6, 7, 8}
	h.m.EIP = 0x1234
	h.m.CS = gsel(selACode, 2)
	h.m.Flags = Flags{ZF: true, CF: true}
	saved := h.m.SaveContext()
	h.m.Regs = [8]uint32{}
	h.m.EIP = 0
	h.m.Flags = Flags{}
	h.m.RestoreContext(saved)
	if h.m.Regs[isa.EDI] != 8 || h.m.EIP != 0x1234 || !h.m.Flags.ZF || h.m.CS != gsel(selACode, 2) {
		t.Error("context round trip lost state")
	}
}

func TestFlagsPackUnpackProperty(t *testing.T) {
	f := func(zf, sf, cf, of bool) bool {
		fl := Flags{ZF: zf, SF: sf, CF: cf, OF: of}
		return unpackFlags(fl.pack()) == fl
	}
	if err := quick.Check(f, &quick.Config{Rand: testRand(t)}); err != nil {
		t.Error(err)
	}
}

func TestStopReasonStrings(t *testing.T) {
	for r, want := range map[StopReason]string{
		StopHalt: "halt", StopFault: "fault", StopBreak: "breakpoint",
		StopBudget: "budget", StopError: "error",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
}
