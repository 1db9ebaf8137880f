// Package isa defines the IA-32-style instruction set executed by the
// simulated CPU, together with a two-pass assembler and a relocatable
// object format. Untrusted code — Palladium extensions, the
// control-transfer stubs of Figure 6, shared-library routines — is
// written in this assembly, so every instruction fetch and data access
// it performs goes through the simulated segmentation and paging
// checks.
//
// Instructions are structured values rather than encoded bytes; each
// occupies a fixed 4-byte slot of the address space so that EIP
// arithmetic, segment limit checks on fetches, and return addresses
// behave as on real hardware.
package isa

import (
	"fmt"
	"strings"
)

// InstrSlot is the number of address-space bytes occupied by one
// instruction.
const InstrSlot = 4

// Reg names a general-purpose 32-bit register, in x86 encoding order.
type Reg uint8

const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	// NoReg marks an absent base/index register in a memory operand.
	NoReg Reg = 0xFF
)

var regNames = map[Reg]string{
	EAX: "eax", ECX: "ecx", EDX: "edx", EBX: "ebx",
	ESP: "esp", EBP: "ebp", ESI: "esi", EDI: "edi",
}

// String returns the register mnemonic.
func (r Reg) String() string {
	if n, ok := regNames[r]; ok {
		return n
	}
	if r == NoReg {
		return "<none>"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is an opcode.
type Op uint8

const (
	NOP Op = iota
	MOV
	LEA
	PUSH
	POP
	ADD
	SUB
	AND
	OR
	XOR
	CMP
	TEST
	INC
	DEC
	SHL
	SHR
	SAR
	IMUL
	NEG
	NOT
	XCHG
	JMP
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB
	JBE
	JA
	JAE
	JS
	JNS
	CALL
	RET
	LCALL
	LRET
	INT
	IRET
	HLT
	numOps
)

var opNames = [...]string{
	NOP: "nop", MOV: "mov", LEA: "lea", PUSH: "push", POP: "pop",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	CMP: "cmp", TEST: "test", INC: "inc", DEC: "dec",
	SHL: "shl", SHR: "shr", SAR: "sar", IMUL: "imul",
	NEG: "neg", NOT: "not", XCHG: "xchg",
	JMP: "jmp", JE: "je", JNE: "jne", JL: "jl", JLE: "jle",
	JG: "jg", JGE: "jge", JB: "jb", JBE: "jbe", JA: "ja", JAE: "jae",
	JS: "js", JNS: "jns",
	CALL: "call", RET: "ret", LCALL: "lcall", LRET: "lret",
	INT: "int", IRET: "iret", HLT: "hlt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the opcode is a conditional branch.
func (o Op) IsBranch() bool { return o >= JE && o <= JNS }

// TransfersControl reports whether executing the opcode can set EIP to
// anything other than the next instruction slot (or stop the machine):
// jumps, conditional branches, calls, returns, gate transfers and HLT.
// Such an instruction ends a straight-line run in the CPU's
// decoded-block cache.
func (o Op) TransfersControl() bool {
	switch o {
	case JMP, CALL, RET, LCALL, LRET, INT, IRET, HLT:
		return true
	}
	return o.IsBranch()
}

// HasMemOperand reports whether either operand is a memory reference.
func (i *Instr) HasMemOperand() bool {
	return i.Dst.Kind == KindMem || i.Src.Kind == KindMem
}

// OperandKind distinguishes operand classes.
type OperandKind uint8

const (
	// KindNone marks an absent operand.
	KindNone OperandKind = iota
	// KindReg is a general-purpose register.
	KindReg
	// KindImm is an immediate value (also used for resolved branch
	// targets and absolute symbol addresses).
	KindImm
	// KindMem is a memory reference base+index*scale+disp.
	KindMem
)

// Operand is one instruction operand.
type Operand struct {
	Kind  OperandKind
	Reg   Reg
	Imm   int32
	Base  Reg
	Index Reg
	Scale uint8
	Disp  int32
}

// R builds a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// I builds an immediate operand.
func I(v int32) Operand { return Operand{Kind: KindImm, Imm: v} }

// M builds a memory operand base+disp.
func M(base Reg, disp int32) Operand {
	return Operand{Kind: KindMem, Base: base, Index: NoReg, Disp: disp}
}

// MAbs builds an absolute memory operand.
func MAbs(addr int32) Operand {
	return Operand{Kind: KindMem, Base: NoReg, Index: NoReg, Disp: addr}
}

// String formats the operand in the assembler's syntax.
func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return ""
	case KindReg:
		return o.Reg.String()
	case KindImm:
		return fmt.Sprintf("%d", o.Imm)
	case KindMem:
		var b strings.Builder
		b.WriteByte('[')
		sep := ""
		if o.Base != NoReg {
			b.WriteString(o.Base.String())
			sep = "+"
		}
		if o.Index != NoReg {
			fmt.Fprintf(&b, "%s%s*%d", sep, o.Index, o.Scale)
			sep = "+"
		}
		if o.Disp != 0 || sep == "" {
			if o.Disp < 0 {
				fmt.Fprintf(&b, "%d", o.Disp)
			} else {
				fmt.Fprintf(&b, "%s%d", sep, o.Disp)
			}
		}
		b.WriteByte(']')
		return b.String()
	}
	return "?"
}

// Instr is one decoded instruction. Size is the data width of the
// operation (4 for dword, 1 for byte variants such as movb/cmpb).
type Instr struct {
	Op   Op
	Dst  Operand
	Src  Operand
	Size uint8
}

// String disassembles the instruction.
func (i Instr) String() string {
	suffix := ""
	if i.Size == 1 {
		suffix = "b"
	}
	switch {
	case i.Dst.Kind == KindNone && i.Src.Kind == KindNone:
		return i.Op.String() + suffix
	case i.Src.Kind == KindNone:
		return fmt.Sprintf("%s%s %s", i.Op, suffix, i.Dst)
	default:
		return fmt.Sprintf("%s%s %s, %s", i.Op, suffix, i.Dst, i.Src)
	}
}

// Section identifies an object-file section.
type Section uint8

const (
	// SecText holds instructions.
	SecText Section = iota
	// SecData holds initialized data.
	SecData
	// SecBSS is zero-initialized data (size only).
	SecBSS
	// SecUndef marks an unresolved external symbol.
	SecUndef
)

func (s Section) String() string {
	switch s {
	case SecText:
		return ".text"
	case SecData:
		return ".data"
	case SecBSS:
		return ".bss"
	case SecUndef:
		return "undef"
	}
	return "?"
}

// Symbol is an object-file symbol.
type Symbol struct {
	Name    string
	Section Section
	Off     uint32 // offset within section (byte offset; text symbols are instruction-slot aligned)
	Global  bool
}

// RelocSlot names the patched field of an instruction or data word.
type RelocSlot uint8

const (
	// RelDstDisp patches Dst.Disp (memory operand displacement).
	RelDstDisp RelocSlot = iota
	// RelSrcDisp patches Src.Disp.
	RelSrcDisp
	// RelDstImm patches Dst.Imm.
	RelDstImm
	// RelSrcImm patches Src.Imm.
	RelSrcImm
	// RelData patches a 32-bit word in the data section.
	RelData
)

// Reloc records that a field must be patched with the absolute virtual
// address of Sym (+Addend) at load time. Index is the instruction
// index for text relocations and the byte offset for data relocations.
type Reloc struct {
	Slot   RelocSlot
	Index  int
	Sym    string
	Addend int32
}

// Object is a relocatable unit produced by the assembler and consumed
// by the loader.
type Object struct {
	Name    string
	Text    []Instr
	Data    []byte
	BSSSize uint32
	Symbols map[string]*Symbol
	Relocs  []Reloc
}

// TextBytes returns the address-space size of the text section.
func (o *Object) TextBytes() uint32 { return uint32(len(o.Text)) * InstrSlot }

// Symbol returns the named symbol or nil.
func (o *Object) Symbol(name string) *Symbol { return o.Symbols[name] }

// Clone deep-copies the object, so the copy can be changed (renamed,
// rewritten) without touching the original. The loader needs no copy:
// it relocates private copies of the text and data.
func (o *Object) Clone() *Object {
	c := &Object{
		Name:    o.Name,
		Text:    append([]Instr(nil), o.Text...),
		Data:    append([]byte(nil), o.Data...),
		BSSSize: o.BSSSize,
		Symbols: make(map[string]*Symbol, len(o.Symbols)),
		Relocs:  append([]Reloc(nil), o.Relocs...),
	}
	for n, s := range o.Symbols {
		cp := *s
		c.Symbols[n] = &cp
	}
	return c
}

// RenameSymbol renames a symbol and every relocation referencing it,
// reporting whether the symbol existed. Consumers that load many
// instances of one cached template object but need unique global
// names per load (the compiled packet filters' entry points) rename
// after cloning instead of re-assembling.
func (o *Object) RenameSymbol(old, new string) bool {
	s, ok := o.Symbols[old]
	if !ok {
		return false
	}
	s.Name = new
	delete(o.Symbols, old)
	o.Symbols[new] = s
	for i := range o.Relocs {
		if o.Relocs[i].Sym == old {
			o.Relocs[i].Sym = new
		}
	}
	return true
}
