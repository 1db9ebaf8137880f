package cpu

import (
	"fmt"
	"testing"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mmu"
)

// chargeForm is one opcode × operand-kind form for
// TestWorstChargeBoundsStep. src runs from entry; every instruction
// before the label at is stepped unmeasured, and the instruction at
// at is the one measured.
type chargeForm struct {
	name  string
	src   string
	setup func(h *harness, syms map[string]uint32)
	flags Flags // EFLAGS loaded just before the measured step
	fault bool  // the measured step is expected to fault
}

// chargeTail follows every form: a landing pad for transfers, a data
// word on its own page (install places .data on the page after the
// text) and a pointer for the indirect forms.
const chargeTail = `
back: nop
.data
buf: .space 16
ptr: .word back
`

// chargeForms enumerates every form execute implements: each ALU,
// unary and shift opcode against register, immediate and memory
// operands (dword and byte), every Jcc under all sixteen flag
// combinations (so both taken and not taken), near and indirect
// transfers, ret with and without a release count, and the far
// transfers same-privilege and across rings.
func chargeForms() []chargeForm {
	forms := []chargeForm{
		{name: "nop", src: "at: nop"},
		{name: "hlt at CPL 3", src: "at: hlt", fault: true},
		{name: "lea", src: "at: lea eax, [buf+4]"},
		{name: "mov r,imm", src: "at: mov eax, 7"},
		{name: "mov r,r", src: "at: mov eax, ebx"},
		{name: "mov r,m", src: "at: mov eax, [buf]"},
		{name: "mov m,r", src: "at: mov [buf], eax"},
		{name: "mov m,imm", src: "at: mov [buf], 7"},
		{name: "movb r,r", src: "at: movb eax, ebx"},
		{name: "movb r,m", src: "at: movb eax, [buf+1]"},
		{name: "movb m,r", src: "at: movb [buf+1], eax"},
		{name: "push r", src: "at: push eax"},
		{name: "push imm", src: "at: push 7"},
		{name: "push m", src: "at: push [buf]"},
		{name: "pop r", src: "push 7\nat: pop eax"},
		{name: "pop m", src: "push 7\nat: pop [buf]"},
		{name: "imul r,r", src: "at: imul eax, ebx"},
		{name: "imul r,imm", src: "at: imul eax, 7"},
		{name: "imul r,m", src: "at: imul eax, [buf]"},
		{name: "xchg r,r", src: "at: xchg eax, ebx"},
		{name: "xchgb r,r", src: "at: xchgb eax, ebx"},
		{name: "xchg r,m", src: "at: xchg eax, [buf]"},
		{name: "xchg m,r", src: "at: xchg [buf], eax"},
		{name: "jmp imm", src: "at: jmp back"},
		{name: "jmp r", src: "mov eax, back\nat: jmp eax"},
		{name: "jmp m", src: "at: jmp [ptr]"},
		{name: "call imm", src: "at: call back"},
		{name: "call r", src: "mov eax, back\nat: call eax"},
		{name: "call m", src: "at: call [ptr]"},
		{name: "ret", src: "push back\nat: ret"},
		{name: "ret imm", src: "push 0\npush back\nat: ret 4"},
		{name: "lcall same-privilege", src: "at: lcall 0x3B", setup: func(h *harness, syms map[string]uint32) {
			h.m.MMU.GDT.Set(selGate, mmu.Descriptor{Kind: mmu.SegCallGate, DPL: 3, Present: true,
				GateSel: gsel(selXCode, 3), GateOff: syms["back"]})
		}},
		{name: "lcall inter-privilege", src: "at: lcall 0x3B", setup: func(h *harness, syms map[string]uint32) {
			h.setupRings(syms["back"])
		}},
		{name: "lret same-privilege", src: "push 0x1B\npush back\nat: lret"},
		{name: "lret imm same-privilege", src: "push 0\npush 0x1B\npush back\nat: lret 4"},
		{name: "lret inter-privilege", src: "push 0x23\npush 0x81000\npush 0x1B\npush back\nat: lret",
			setup: func(h *harness, syms map[string]uint32) {
				h.setupRings(syms["back"])
				h.m.CS, h.m.SS = gsel(selACode, 2), gsel(selAData, 2)
				h.m.Regs[isa.ESP] = 0x0009_1000
			}},
		{name: "int same-privilege", src: "at: int 0x81", setup: func(h *harness, syms map[string]uint32) {
			h.m.IDT[0x81] = mmu.Descriptor{Kind: mmu.SegIntGate, DPL: 3, Present: true,
				GateSel: gsel(selXCode, 3), GateOff: syms["back"]}
		}},
		{name: "int inter-privilege", src: "at: int 0x80", setup: ringIntGate},
		{name: "iret same-privilege", src: "push 0\npush 0x1B\npush back\nat: iret"},
		{name: "iret inter-privilege", src: "int 0x80\nat: iret", setup: ringIntGate},
	}
	for _, op := range []string{"add", "sub", "and", "or", "xor", "cmp", "test"} {
		for _, f := range []string{"%s eax, ebx", "%s eax, 7", "%s eax, [buf]", "%s [buf], eax",
			"%s [buf], 7", "%sb eax, [buf+1]", "%sb [buf+1], eax"} {
			forms = append(forms, chargeForm{name: fmt.Sprintf(f, op), src: "at: " + fmt.Sprintf(f, op)})
		}
	}
	for _, op := range []string{"inc", "dec", "neg", "not"} {
		for _, f := range []string{"%s eax", "%s [buf]"} {
			forms = append(forms, chargeForm{name: fmt.Sprintf(f, op), src: "at: " + fmt.Sprintf(f, op)})
		}
	}
	for _, f := range []string{"incb [buf+1]", "decb [buf+1]"} {
		forms = append(forms, chargeForm{name: f, src: "at: " + f})
	}
	for _, op := range []string{"shl", "shr", "sar"} {
		for _, f := range []string{"%s eax, 3", "%s [buf], 3"} {
			forms = append(forms, chargeForm{name: fmt.Sprintf(f, op), src: "at: " + fmt.Sprintf(f, op)})
		}
	}
	for _, op := range []string{"je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae", "js", "jns"} {
		for bits := 0; bits < 16; bits++ {
			fl := Flags{CF: bits&1 != 0, ZF: bits&2 != 0, SF: bits&4 != 0, OF: bits&8 != 0}
			forms = append(forms, chargeForm{name: fmt.Sprintf("%s flags=%04b", op, bits),
				src: "at: " + op + " back\nnop", flags: fl})
		}
	}
	return forms
}

// ringIntGate points vector 0x80 at the ring-2 application code, so
// int crosses from CPL 3 to 2 on the TSS stack, and iret back.
func ringIntGate(h *harness, syms map[string]uint32) {
	h.setupRings(syms["back"])
	h.m.IDT[0x80] = mmu.Descriptor{Kind: mmu.SegIntGate, DPL: 3, Present: true,
		GateSel: gsel(selACode, 2), GateOff: syms["at"]}
}

// TestWorstChargeBoundsStep pins worstCharge, the per-instruction bound
// the trace tier sums into its deadline horizon: for every form, Step
// from a flushed TLB (every translation walks) charges no more than
// worstCharge plus the one fetch-side walk a trace adds at a page-run
// head. An under-estimate would let the batched deadline check
// skip a timer tick that Step fires.
func TestWorstChargeBoundsStep(t *testing.T) {
	taken := map[isa.Op][2]bool{} // [not taken, taken] seen per Jcc
	for _, c := range chargeForms() {
		h := newHarness(t)
		syms := h.install(0x0001_0000, "entry:\n"+c.src+chargeTail)
		h.startUser(syms["entry"])
		if c.setup != nil {
			c.setup(h, syms)
		}
		for n := 0; h.m.EIP != syms["at"]; n++ {
			if stop, _ := h.m.Step(); stop != nil || n > 8 {
				t.Fatalf("%s: preamble stopped: %+v", c.name, stop)
			}
		}
		pa, f := h.m.MMU.Translate(h.m.CS, h.m.EIP, isa.InstrSlot, mmu.Execute, h.m.CPL())
		if f != nil {
			t.Fatalf("%s: fetch: %v", c.name, f)
		}
		ins := h.m.code[pa]
		bound := worstCharge(ins, h.m.Model) + h.m.Model.Cost(cycles.TLBMiss)

		h.m.Flags = c.flags
		h.m.MMU.TLB().Flush()
		before := h.m.Clock.Cycles()
		stop, _ := h.m.Step()
		charged := h.m.Clock.Cycles() - before
		if (stop != nil) != c.fault {
			t.Fatalf("%s: stop = %+v, want fault %v", c.name, stop, c.fault)
		}
		if charged > bound {
			t.Errorf("%s: Step charged %v cycles, worstCharge bound (with fetch walk) %v", c.name, charged, bound)
		}
		if ins.Op.IsBranch() {
			seen := taken[ins.Op]
			if h.m.EIP == syms["back"] {
				seen[1] = true
			} else {
				seen[0] = true
			}
			taken[ins.Op] = seen
		}
	}
	for op, seen := range taken {
		if !seen[0] || !seen[1] {
			t.Errorf("%s: taken/not-taken coverage %v, want both", op, seen)
		}
	}
	if len(taken) != 12 {
		t.Errorf("Jcc opcodes covered = %d, want 12", len(taken))
	}
}
