package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func assemble(t *testing.T, src string) *Object {
	t.Helper()
	o, err := Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return o
}

func TestBasicInstructions(t *testing.T) {
	o := assemble(t, `
		.text
		mov eax, 42
		mov ebx, eax
		mov ecx, [ebp+8]
		mov [esp-4], edx
		add eax, 1
		cmp eax, ebx
		nop
		hlt
	`)
	if len(o.Text) != 8 {
		t.Fatalf("instruction count = %d, want 8", len(o.Text))
	}
	i0 := o.Text[0]
	if i0.Op != MOV || i0.Dst.Reg != EAX || i0.Src.Kind != KindImm || i0.Src.Imm != 42 {
		t.Errorf("instr 0 = %v", i0)
	}
	i2 := o.Text[2]
	if i2.Src.Kind != KindMem || i2.Src.Base != EBP || i2.Src.Disp != 8 {
		t.Errorf("instr 2 = %v", i2)
	}
	i3 := o.Text[3]
	if i3.Dst.Kind != KindMem || i3.Dst.Base != ESP || i3.Dst.Disp != -4 {
		t.Errorf("instr 3 = %v", i3)
	}
}

func TestScaledIndexOperand(t *testing.T) {
	o := assemble(t, `mov eax, [ebx+ecx*4+12]`)
	op := o.Text[0].Src
	if op.Base != EBX || op.Index != ECX || op.Scale != 4 || op.Disp != 12 {
		t.Errorf("operand = %+v", op)
	}
	o = assemble(t, `mov eax, [ebx+ecx]`)
	op = o.Text[0].Src
	if op.Base != EBX || op.Index != ECX || op.Scale != 1 {
		t.Errorf("two-register operand = %+v", op)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	o := assemble(t, `
		.text
		start:
			dec eax
			jne start
			ret
	`)
	sym := o.Symbol("start")
	if sym == nil || sym.Section != SecText || sym.Off != 0 {
		t.Fatalf("start symbol = %+v", sym)
	}
	// The branch target is a relocation against the label.
	var found bool
	for _, r := range o.Relocs {
		if r.Sym == "start" && r.Index == 1 && r.Slot == RelDstImm {
			found = true
		}
	}
	if !found {
		t.Errorf("missing branch reloc; relocs = %+v", o.Relocs)
	}
}

func TestLabelOnSameLine(t *testing.T) {
	o := assemble(t, `loop: dec eax
		jne loop`)
	if o.Symbol("loop") == nil {
		t.Fatal("label on same line as instruction not recorded")
	}
	if len(o.Text) != 2 {
		t.Fatalf("text = %d instrs, want 2", len(o.Text))
	}
}

func TestDataDirectives(t *testing.T) {
	o := assemble(t, `
		.data
		buf: .space 8
		msg: .asciz "hi"
		val: .word 0x11223344
		tab: .byte 1, 2, 3
	`)
	if got := o.Symbol("buf"); got.Off != 0 {
		t.Errorf("buf at %d", got.Off)
	}
	if got := o.Symbol("msg"); got.Off != 8 {
		t.Errorf("msg at %d", got.Off)
	}
	if string(o.Data[8:10]) != "hi" || o.Data[10] != 0 {
		t.Errorf("asciz bytes = %v", o.Data[8:11])
	}
	if o.Data[11] != 0x44 || o.Data[14] != 0x11 {
		t.Errorf("word bytes = %v", o.Data[11:15])
	}
	if o.Data[15] != 1 || o.Data[17] != 3 {
		t.Errorf("byte list = %v", o.Data[15:18])
	}
}

func TestBSSAndAlign(t *testing.T) {
	o := assemble(t, `
		.data
		a: .byte 1
		.align 4
		b: .word 2
		.bss
		stack: .space 4096
	`)
	if o.Symbol("b").Off != 4 {
		t.Errorf("aligned symbol at %d, want 4", o.Symbol("b").Off)
	}
	if o.BSSSize != 4096 || o.Symbol("stack").Section != SecBSS {
		t.Errorf("bss size = %d, stack = %+v", o.BSSSize, o.Symbol("stack"))
	}
}

func TestSymbolicReferences(t *testing.T) {
	o := assemble(t, `
		.text
		mov eax, [counter]
		mov [counter+4], eax
		push handler
		call strcpy
		.data
		counter: .word 0, 0
	`)
	wantRelocs := map[string]RelocSlot{
		"counter": RelSrcDisp,
		"handler": RelDstImm,
		"strcpy":  RelDstImm,
	}
	got := map[string]bool{}
	for _, r := range o.Relocs {
		got[r.Sym] = true
		if want, ok := wantRelocs[r.Sym]; ok && r.Index == 0 && r.Slot != want {
			t.Errorf("reloc %s slot = %v, want %v", r.Sym, r.Slot, want)
		}
	}
	for s := range wantRelocs {
		if !got[s] {
			t.Errorf("missing reloc for %s", s)
		}
	}
	// counter is defined locally; strcpy/handler are extern.
	if o.Symbol("counter").Section != SecData {
		t.Errorf("counter = %+v, want a data symbol", o.Symbol("counter"))
	}
	for _, name := range []string{"handler", "strcpy"} {
		if s := o.Symbol(name); s == nil || s.Section != SecUndef {
			t.Errorf("%s = %+v, want an undefined extern", name, s)
		}
	}
	// Addend form.
	o = assemble(t, `mov eax, [counter+4]
		.data
		counter: .word 0, 0`)
	if o.Relocs[0].Addend != 4 {
		t.Errorf("addend = %d, want 4", o.Relocs[0].Addend)
	}
}

func TestByteSizedOps(t *testing.T) {
	o := assemble(t, `
		movb ecx, [esi]
		movb [edi], ecx
		cmpb ecx, 0
	`)
	for i, ins := range o.Text {
		if ins.Size != 1 {
			t.Errorf("instr %d size = %d, want 1", i, ins.Size)
		}
	}
}

func TestFarAndTrapOps(t *testing.T) {
	o := assemble(t, `
		lcall 0x43
		lret
		lret 8
		int 0x80
		iret
		ret 12
	`)
	if o.Text[0].Op != LCALL || o.Text[0].Dst.Imm != 0x43 {
		t.Errorf("lcall = %v", o.Text[0])
	}
	if o.Text[2].Dst.Imm != 8 {
		t.Errorf("lret imm = %v", o.Text[2])
	}
	if o.Text[3].Dst.Imm != 0x80 {
		t.Errorf("int = %v", o.Text[3])
	}
	if o.Text[5].Dst.Imm != 12 {
		t.Errorf("ret imm = %v", o.Text[5])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	o := assemble(t, `
		; full-line comment
		# hash comment
		nop  ; trailing
		nop  # trailing hash
	`)
	if len(o.Text) != 2 {
		t.Errorf("instrs = %d, want 2", len(o.Text))
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"unknown mnemonic", "bogus eax", "unknown mnemonic"},
		{"imm dest", "mov 4, eax", "immediate destination"},
		{"mem-mem", "mov [eax], [ebx]", "memory-to-memory"},
		{"pop imm", "pop 4", "pop immediate"},
		{"dup label", "x: nop\nx: nop", "duplicate label"},
		{"bad scale", "mov eax, [ebx+ecx*3]", "bad scale"},
		{"instr in data", ".data\nnop", "outside .text"},
		{"word in text", ".word 4", "outside .data"},
		{"bad align", ".data\n.align 3", "power of two"},
		{"unterminated mem", "mov eax, [ebx", "unterminated"},
		{"iret operand", "iret 4", "no operands"},
		{"branch to reg", "je eax", "must be a label"},
		{"too many regs", "mov eax, [ebx+ecx+edx]", "too many registers"},
	}
	for _, c := range cases {
		if _, err := Assemble("t", c.src); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestGlobalDirective(t *testing.T) {
	o := assemble(t, `
		.global fn, other
		.text
		fn: ret
	`)
	if !o.Symbol("fn").Global {
		t.Error("fn should be global")
	}
	if o.Symbol("other").Section != SecUndef {
		t.Error("other should be undefined")
	}
}

func TestClone(t *testing.T) {
	o := assemble(t, `
		.text
		fn: mov eax, [x]
		.data
		x: .word 7
	`)
	c := o.Clone()
	c.Text[0].Src.Disp = 99
	c.Symbols["fn"].Off = 12
	c.Data[0] = 0
	if o.Text[0].Src.Disp == 99 || o.Symbols["fn"].Off == 12 || o.Data[0] == 0 {
		t.Error("Clone must be deep")
	}
}

func TestOperandStringRoundTripProperty(t *testing.T) {
	// Formatting then re-parsing a random register/mem operand
	// preserves it.
	a := &assembler{obj: &Object{Name: "p", Symbols: map[string]*Symbol{}}}
	f := func(baseI, idxI uint8, scaleSel uint8, disp int16) bool {
		base := Reg(baseI % 8)
		idx := Reg(idxI % 8)
		if idx == base {
			return true // ambiguous formatting; skip
		}
		scale := []uint8{1, 2, 4, 8}[scaleSel%4]
		op := Operand{Kind: KindMem, Base: base, Index: idx, Scale: scale, Disp: int32(disp)}
		parsed, sym, _, err := a.parseOperand(op.String())
		if err != nil || sym != "" {
			return false
		}
		return parsed == op
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInstrStringFormat(t *testing.T) {
	o := assemble(t, "mov eax, [ebx+8]")
	if got := o.Text[0].String(); got != "mov eax, [ebx+8]" {
		t.Errorf("String() = %q", got)
	}
	o = assemble(t, "movb ecx, [esi]")
	if got := o.Text[0].String(); !strings.HasPrefix(got, "movb") {
		t.Errorf("byte-op String() = %q", got)
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble must panic on bad source")
		}
	}()
	MustAssemble("bad", "bogus")
}

func TestTextBytes(t *testing.T) {
	o := assemble(t, "nop\nnop\nnop")
	if o.TextBytes() != 3*InstrSlot {
		t.Errorf("TextBytes = %d", o.TextBytes())
	}
}

func TestCharLiteralAndHex(t *testing.T) {
	o := assemble(t, `cmp eax, 'A'
		mov ebx, 0xff`)
	if o.Text[0].Src.Imm != 65 {
		t.Errorf("char literal = %d", o.Text[0].Src.Imm)
	}
	if o.Text[1].Src.Imm != 255 {
		t.Errorf("hex literal = %d", o.Text[1].Src.Imm)
	}
}
