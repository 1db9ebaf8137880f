package cpu

import (
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mmu"
)

// The block compiler turns each decoded instruction into a pre-bound
// closure (threaded code): operands are resolved to register indices,
// immediates and effective-address recipes at block-build time, the
// cycle charge is pre-read from the model's cost table, and the
// per-instruction opcode/operand switches of the uncached interpreter
// disappear from the hot loop. Every closure replicates execute()'s
// behavior bit for bit — same charge values in the same order, same
// fault identities, same flag semantics — which the Run-vs-Step
// differential fuzz pins continuously.
//
// compile also returns the instruction's worst-case cycle charge
// (static cost plus one potential TLB-miss walk per address
// translation it can perform). runChain sums these into per-block
// prefix bounds so the per-instruction timer-deadline check can be
// skipped wholesale while the clock provably cannot reach the next
// tick (see cycles.Prefix.Horizon).

// execFn executes one pre-bound instruction. The machine's EIP is the
// instruction's own address on entry and is advanced (or redirected)
// exactly as execute() would.
type execFn func(*Machine) *mmu.Fault

// readFn reads an operand value; writeFn stores one.
type readFn func(*Machine) (uint32, *mmu.Fault)
type writeFn func(*Machine, uint32) *mmu.Fault

// addrFn computes a memory operand's effective (segment-relative)
// address from the live registers.
type addrFn func(*Machine) uint32

// compileAddr specializes effAddr for the operand's present components.
func compileAddr(op *isa.Operand) addrFn {
	disp := uint32(op.Disp)
	base, index, scale := op.Base, op.Index, uint32(op.Scale)
	switch {
	case base == isa.NoReg && index == isa.NoReg:
		return func(*Machine) uint32 { return disp }
	case index == isa.NoReg:
		return func(m *Machine) uint32 { return m.Regs[base] + disp }
	case base == isa.NoReg:
		return func(m *Machine) uint32 { return m.Regs[index]*scale + disp }
	default:
		return func(m *Machine) uint32 { return m.Regs[base] + m.Regs[index]*scale + disp }
	}
}

// memSeg reports whether the operand addresses through SS (stack-
// relative bases), mirroring Machine.dataSeg — the choice depends only
// on the static base register, so it is a compile-time constant.
func memSeg(op *isa.Operand) bool {
	return op.Base == isa.EBP || op.Base == isa.ESP
}

// xlateFn is a memory operand's bound translation path.
type xlateFn func(m *Machine, sel mmu.Selector, off, size uint32, acc mmu.Access) (uint32, *mmu.Fault)

// memXlate binds the operand's SegProbe, selecting the verified
// check-elision path when the load-time verifier proved a bound for
// every runtime address of this operand (isa.Operand.Proved). Both
// paths are observationally identical on the simulated machine —
// segment checks charge no cycles — and the differential soundness
// fuzz holds them to it.
func memXlate(op *isa.Operand) xlateFn {
	probe := new(mmu.SegProbe)
	if op.Proved {
		bound := op.ProvedEnd
		return func(m *Machine, sel mmu.Selector, off, size uint32, acc mmu.Access) (uint32, *mmu.Fault) {
			return m.MMU.TranslateVerified(probe, bound, sel, off, size, acc, m.CPL())
		}
	}
	return func(m *Machine, sel mmu.Selector, off, size uint32, acc mmu.Access) (uint32, *mmu.Fault) {
		return m.MMU.TranslateProbed(probe, sel, off, size, acc, m.CPL())
	}
}

// compileRead specializes readOperand.
func compileRead(op *isa.Operand, size uint8) readFn {
	switch op.Kind {
	case isa.KindReg:
		r := op.Reg
		return func(m *Machine) (uint32, *mmu.Fault) { return m.Regs[r], nil }
	case isa.KindImm:
		v := uint32(op.Imm)
		return func(*Machine) (uint32, *mmu.Fault) { return v, nil }
	case isa.KindMem:
		addr := compileAddr(op)
		useSS := memSeg(op)
		xl := memXlate(op)
		if size == 1 {
			return func(m *Machine) (uint32, *mmu.Fault) {
				sel := m.DS
				if useSS {
					sel = m.SS
				}
				pa, f := xl(m, sel, addr(m), 1, mmu.Read)
				if f != nil {
					return 0, f
				}
				return uint32(m.Phys.Read8(pa)), nil
			}
		}
		return func(m *Machine) (uint32, *mmu.Fault) {
			sel := m.DS
			if useSS {
				sel = m.SS
			}
			pa, f := xl(m, sel, addr(m), 4, mmu.Read)
			if f != nil {
				return 0, f
			}
			return m.Phys.Read32(pa), nil
		}
	}
	return func(*Machine) (uint32, *mmu.Fault) { return 0, nil }
}

// compileWrite specializes writeOperand.
func compileWrite(op *isa.Operand, size uint8) writeFn {
	switch op.Kind {
	case isa.KindReg:
		r := op.Reg
		if size == 1 {
			// Byte ops targeting a register zero-extend, as in
			// writeOperand.
			return func(m *Machine, v uint32) *mmu.Fault { m.Regs[r] = v & 0xFF; return nil }
		}
		return func(m *Machine, v uint32) *mmu.Fault { m.Regs[r] = v; return nil }
	case isa.KindMem:
		addr := compileAddr(op)
		useSS := memSeg(op)
		xl := memXlate(op)
		if size == 1 {
			return func(m *Machine, v uint32) *mmu.Fault {
				sel := m.DS
				if useSS {
					sel = m.SS
				}
				pa, f := xl(m, sel, addr(m), 1, mmu.Write)
				if f != nil {
					return f
				}
				m.Phys.Write8(pa, byte(v))
				return nil
			}
		}
		return func(m *Machine, v uint32) *mmu.Fault {
			sel := m.DS
			if useSS {
				sel = m.SS
			}
			pa, f := xl(m, sel, addr(m), 4, mmu.Write)
			if f != nil {
				return f
			}
			m.Phys.Write32(pa, v)
			return nil
		}
	}
	return func(m *Machine, v uint32) *mmu.Fault { return m.gpf("bad destination operand") }
}

// condFn evaluates one Jcc predicate on the flags.
type condFn func(Flags) bool

var condFns = map[isa.Op]condFn{
	isa.JE:  func(f Flags) bool { return f.ZF },
	isa.JNE: func(f Flags) bool { return !f.ZF },
	isa.JL:  func(f Flags) bool { return f.SF != f.OF },
	isa.JLE: func(f Flags) bool { return f.ZF || f.SF != f.OF },
	isa.JG:  func(f Flags) bool { return !f.ZF && f.SF == f.OF },
	isa.JGE: func(f Flags) bool { return f.SF == f.OF },
	isa.JB:  func(f Flags) bool { return f.CF },
	isa.JBE: func(f Flags) bool { return f.CF || f.ZF },
	isa.JA:  func(f Flags) bool { return !f.CF && !f.ZF },
	isa.JAE: func(f Flags) bool { return !f.CF },
	isa.JS:  func(f Flags) bool { return f.SF },
	isa.JNS: func(f Flags) bool { return !f.SF },
}

// binCompute performs one ALU operation and sets CF/OF exactly as
// Machine.binop does; SF/ZF and the byte mask are applied by the
// caller, which sees the raw result.
type binCompute func(a, b uint32, f *Flags) uint32

var binComputes = map[isa.Op]binCompute{
	isa.ADD: func(a, b uint32, f *Flags) uint32 {
		r := a + b
		f.CF = r < a
		f.OF = (a>>31 == b>>31) && (r>>31 != a>>31)
		return r
	},
	isa.SUB: subCompute, isa.CMP: subCompute,
	isa.AND: andCompute, isa.TEST: andCompute,
	isa.OR: func(a, b uint32, f *Flags) uint32 {
		f.CF, f.OF = false, false
		return a | b
	},
	isa.XOR: func(a, b uint32, f *Flags) uint32 {
		f.CF, f.OF = false, false
		return a ^ b
	},
}

func subCompute(a, b uint32, f *Flags) uint32 {
	r := a - b
	f.CF = a < b
	f.OF = (a>>31 != b>>31) && (r>>31 != a>>31)
	return r
}

func andCompute(a, b uint32, f *Flags) uint32 {
	f.CF, f.OF = false, false
	return a & b
}

// compile translates one instruction at eip into a threaded-code
// closure and returns it together with the instruction's worst-case
// cycle charge under model (used for timer-deadline batching).
func compile(ins *isa.Instr, eip uint32, model *cycles.Model) (execFn, float64) {
	next := eip + isa.InstrSlot
	tlb := model.Cost(cycles.TLBMiss)

	switch ins.Op {
	case isa.NOP:
		c := model.Cost(cycles.Nop)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			m.EIP = next
			return nil
		}, c

	case isa.HLT:
		c := model.Cost(cycles.Hlt)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			if m.CPL() != 0 {
				return m.gpf("hlt at CPL > 0")
			}
			m.haltFlag = true
			m.EIP = next
			return nil
		}, c

	case isa.MOV:
		c := model.Cost(costKind(ins))
		maxc := c
		if ins.Dst.Kind == isa.KindMem {
			maxc += tlb
		}
		if ins.Src.Kind == isa.KindMem {
			maxc += tlb
		}
		// Fully inlined fast paths for the register destinations.
		if ins.Dst.Kind == isa.KindReg && ins.Size != 1 {
			dst := ins.Dst.Reg
			switch ins.Src.Kind {
			case isa.KindImm:
				v := uint32(ins.Src.Imm)
				return func(m *Machine) *mmu.Fault {
					m.Clock.Add(c)
					m.Regs[dst] = v
					m.EIP = next
					return nil
				}, maxc
			case isa.KindReg:
				src := ins.Src.Reg
				return func(m *Machine) *mmu.Fault {
					m.Clock.Add(c)
					m.Regs[dst] = m.Regs[src]
					m.EIP = next
					return nil
				}, maxc
			}
		}
		rs := compileRead(&ins.Src, ins.Size)
		wd := compileWrite(&ins.Dst, ins.Size)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			v, f := rs(m)
			if f != nil {
				return f
			}
			if f := wd(m, v); f != nil {
				return f
			}
			m.EIP = next
			return nil
		}, maxc

	case isa.LEA:
		c := model.Cost(cycles.Lea)
		dst := ins.Dst.Reg
		addr := compileAddr(&ins.Src)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			m.Regs[dst] = addr(m)
			m.EIP = next
			return nil
		}, c

	case isa.PUSH:
		c := model.Cost(costKind(ins))
		maxc := c + tlb // the stack store
		if ins.Dst.Kind == isa.KindMem {
			maxc += tlb
		}
		rd := compileRead(&ins.Dst, 4)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			v, f := rd(m)
			if f != nil {
				return f
			}
			if f := m.Push(v); f != nil {
				return f
			}
			m.EIP = next
			return nil
		}, maxc

	case isa.POP:
		c := model.Cost(costKind(ins))
		maxc := c + tlb
		if ins.Dst.Kind == isa.KindMem {
			maxc += tlb
		}
		wd := compileWrite(&ins.Dst, 4)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			v, f := m.Pop()
			if f != nil {
				return f
			}
			if f := wd(m, v); f != nil {
				// x86 restores ESP if the store faults.
				m.Regs[isa.ESP] -= 4
				return f
			}
			m.EIP = next
			return nil
		}, maxc

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST:
		c := model.Cost(costKind(ins))
		maxc := c
		if ins.Dst.Kind == isa.KindMem {
			maxc += 2 * tlb // read + write translate
		}
		if ins.Src.Kind == isa.KindMem {
			maxc += tlb
		}
		compute := binComputes[ins.Op]
		noWrite := ins.Op == isa.CMP || ins.Op == isa.TEST
		// Inlined fast path: dword, register destination, register or
		// immediate source — the bulk of generated ALU traffic.
		if ins.Size != 1 && ins.Dst.Kind == isa.KindReg && ins.Src.Kind != isa.KindMem {
			dst := ins.Dst.Reg
			rb := compileRead(&ins.Src, 4)
			return func(m *Machine) *mmu.Fault {
				m.Clock.Add(c)
				b, _ := rb(m)
				r := compute(m.Regs[dst], b, &m.Flags)
				m.Flags.SF = r&0x8000_0000 != 0
				m.Flags.ZF = r == 0
				if !noWrite {
					m.Regs[dst] = r
				}
				m.EIP = next
				return nil
			}, maxc
		}
		ra := compileRead(&ins.Dst, ins.Size)
		rb := compileRead(&ins.Src, ins.Size)
		var wd writeFn
		if !noWrite {
			wd = compileWrite(&ins.Dst, ins.Size)
		}
		byteOp := ins.Size == 1
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			a, f := ra(m)
			if f != nil {
				return f
			}
			b, f := rb(m)
			if f != nil {
				return f
			}
			r := compute(a, b, &m.Flags)
			if byteOp {
				r &= 0xFF
				m.Flags.SF = r&0x80 != 0
			} else {
				m.Flags.SF = r&0x8000_0000 != 0
			}
			m.Flags.ZF = r == 0
			if wd != nil {
				if f := wd(m, r); f != nil {
					return f
				}
			}
			m.EIP = next
			return nil
		}, maxc

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		c := model.Cost(costKind(ins))
		maxc := c
		if ins.Dst.Kind == isa.KindMem {
			maxc += 2 * tlb
		}
		return compileUnop(ins, c, next), maxc

	case isa.SHL, isa.SHR, isa.SAR:
		c := model.Cost(costKind(ins))
		maxc := c
		if ins.Dst.Kind == isa.KindMem {
			maxc += 2 * tlb
		}
		return compileShift(ins, c, next), maxc

	case isa.IMUL:
		c := model.Cost(cycles.Mul)
		maxc := c
		if ins.Src.Kind == isa.KindMem {
			maxc += tlb
		}
		dst := ins.Dst.Reg
		rs := compileRead(&ins.Src, 4)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			a := int32(m.Regs[dst])
			bv, f := rs(m)
			if f != nil {
				return f
			}
			m.Regs[dst] = uint32(a * int32(bv))
			m.EIP = next
			return nil
		}, maxc

	case isa.XCHG:
		c := model.Cost(cycles.Xchg)
		maxc := c
		if ins.Dst.Kind == isa.KindMem {
			maxc += 2 * tlb
		}
		if ins.Src.Kind == isa.KindMem {
			maxc += 2 * tlb
		}
		ra := compileRead(&ins.Dst, ins.Size)
		rb := compileRead(&ins.Src, ins.Size)
		wa := compileWrite(&ins.Dst, ins.Size)
		wb := compileWrite(&ins.Src, ins.Size)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			a, f := ra(m)
			if f != nil {
				return f
			}
			b, f := rb(m)
			if f != nil {
				return f
			}
			if f := wa(m, b); f != nil {
				return f
			}
			if f := wb(m, a); f != nil {
				return f
			}
			m.EIP = next
			return nil
		}, maxc

	case isa.JMP:
		c := model.Cost(cycles.JmpNear)
		switch ins.Dst.Kind {
		case isa.KindImm:
			tgt := uint32(ins.Dst.Imm)
			return func(m *Machine) *mmu.Fault {
				m.Clock.Add(c)
				m.EIP = tgt
				return nil
			}, c
		case isa.KindReg:
			r := ins.Dst.Reg
			return func(m *Machine) *mmu.Fault {
				m.Clock.Add(c)
				m.EIP = m.Regs[r]
				return nil
			}, c
		}
		cl := model.Cost(cycles.Load)
		rd := compileRead(&ins.Dst, 4)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			m.Clock.Add(cl)
			t, f := rd(m)
			if f != nil {
				return f
			}
			m.EIP = t
			return nil
		}, c + cl + tlb

	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS:
		cond := condFns[ins.Op]
		cT := model.Cost(cycles.JccTaken)
		cN := model.Cost(cycles.JccNotTaken)
		tgt := uint32(ins.Dst.Imm)
		return func(m *Machine) *mmu.Fault {
			if cond(m.Flags) {
				m.Clock.Add(cT)
				m.EIP = tgt
			} else {
				m.Clock.Add(cN)
				m.EIP = next
			}
			return nil
		}, model.MaxCost(cycles.JccTaken, cycles.JccNotTaken)

	case isa.CALL:
		c := model.Cost(cycles.CallNear)
		maxc := c + tlb // the return-address push
		if ins.Dst.Kind == isa.KindImm {
			tgt := uint32(ins.Dst.Imm)
			return func(m *Machine) *mmu.Fault {
				m.Clock.Add(c)
				if f := m.Push(next); f != nil {
					return f
				}
				m.EIP = tgt
				return nil
			}, maxc
		}
		cl := model.Cost(cycles.Load)
		isMem := ins.Dst.Kind == isa.KindMem
		if isMem {
			maxc += cl + tlb
		}
		rd := compileRead(&ins.Dst, 4)
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			if isMem {
				m.Clock.Add(cl)
			}
			t, f := rd(m)
			if f != nil {
				return f
			}
			if f := m.Push(next); f != nil {
				return f
			}
			m.EIP = t
			return nil
		}, maxc

	case isa.RET:
		c := model.Cost(cycles.RetNear)
		var rel uint32
		if ins.Dst.Kind == isa.KindImm {
			rel = uint32(ins.Dst.Imm)
		}
		return func(m *Machine) *mmu.Fault {
			m.Clock.Add(c)
			t, f := m.Pop()
			if f != nil {
				return f
			}
			m.Regs[isa.ESP] += rel
			m.EIP = t
			return nil
		}, c + tlb

	case isa.LCALL:
		sel := mmu.Selector(uint16(ins.Dst.Imm))
		return func(m *Machine) *mmu.Fault {
			return m.lcallGate(sel, next)
		}, model.MaxCost(cycles.CallFarSame, cycles.LcallGateInter) + 4*tlb

	case isa.LRET:
		var n uint32
		if ins.Dst.Kind == isa.KindImm {
			n = uint32(ins.Dst.Imm)
		}
		return func(m *Machine) *mmu.Fault {
			return m.lretTransfer(n)
		}, model.MaxCost(cycles.LretSame, cycles.LretInter) + 4*tlb

	case isa.INT:
		vec := uint8(ins.Dst.Imm)
		return func(m *Machine) *mmu.Fault {
			return m.intTransfer(vec, true)
		}, model.Cost(cycles.IntGate) + 5*tlb

	case isa.IRET:
		return func(m *Machine) *mmu.Fault {
			return m.iretTransfer()
		}, model.MaxCost(cycles.Iret, cycles.IretInter) + 5*tlb
	}

	// Unimplemented opcode: route through execute, whose default arm
	// raises the canonical #UD (keeping the fault text in one place).
	return func(m *Machine) *mmu.Fault {
		return m.execute(ins)
	}, 0
}

// compileUnop builds INC/DEC/NEG/NOT closures mirroring Machine.unop.
func compileUnop(ins *isa.Instr, c float64, next uint32) execFn {
	byteOp := ins.Size == 1
	// Register fast path, dword.
	if ins.Dst.Kind == isa.KindReg && !byteOp {
		r := ins.Dst.Reg
		switch ins.Op {
		case isa.INC:
			return func(m *Machine) *mmu.Fault {
				m.Clock.Add(c)
				v := m.Regs[r] + 1
				m.Flags.OF = v == 0x8000_0000
				m.Flags.SF = v&0x8000_0000 != 0
				m.Flags.ZF = v == 0
				m.Regs[r] = v
				m.EIP = next
				return nil
			}
		case isa.DEC:
			return func(m *Machine) *mmu.Fault {
				m.Clock.Add(c)
				a := m.Regs[r]
				v := a - 1
				m.Flags.OF = a == 0x8000_0000
				m.Flags.SF = v&0x8000_0000 != 0
				m.Flags.ZF = v == 0
				m.Regs[r] = v
				m.EIP = next
				return nil
			}
		case isa.NEG:
			return func(m *Machine) *mmu.Fault {
				m.Clock.Add(c)
				a := m.Regs[r]
				v := -a
				m.Flags.CF = a != 0
				m.Flags.SF = v&0x8000_0000 != 0
				m.Flags.ZF = v == 0
				m.Regs[r] = v
				m.EIP = next
				return nil
			}
		case isa.NOT:
			return func(m *Machine) *mmu.Fault {
				m.Clock.Add(c)
				m.Regs[r] = ^m.Regs[r] // NOT does not affect flags
				m.EIP = next
				return nil
			}
		}
	}
	op := ins.Op
	ra := compileRead(&ins.Dst, ins.Size)
	wd := compileWrite(&ins.Dst, ins.Size)
	return func(m *Machine) *mmu.Fault {
		m.Clock.Add(c)
		a, f := ra(m)
		if f != nil {
			return f
		}
		var r uint32
		switch op {
		case isa.INC:
			r = a + 1
			m.Flags.OF = r == 0x8000_0000
		case isa.DEC:
			r = a - 1
			m.Flags.OF = a == 0x8000_0000
		case isa.NEG:
			r = -a
			m.Flags.CF = a != 0
		case isa.NOT:
			if f := wd(m, ^a); f != nil {
				return f
			}
			m.EIP = next
			return nil // NOT does not affect flags
		}
		if byteOp {
			r &= 0xFF
			m.Flags.SF = r&0x80 != 0
		} else {
			m.Flags.SF = r&0x8000_0000 != 0
		}
		m.Flags.ZF = r == 0
		if f := wd(m, r); f != nil {
			return f
		}
		m.EIP = next
		return nil
	}
}

// compileShift builds SHL/SHR/SAR closures mirroring Machine.shift.
func compileShift(ins *isa.Instr, c float64, next uint32) execFn {
	n := uint32(ins.Src.Imm) & 31
	op := ins.Op
	ra := compileRead(&ins.Dst, 4)
	wd := compileWrite(&ins.Dst, 4)
	return func(m *Machine) *mmu.Fault {
		m.Clock.Add(c)
		a, f := ra(m)
		if f != nil {
			return f
		}
		var r uint32
		switch op {
		case isa.SHL:
			r = a << n
			if n > 0 {
				m.Flags.CF = a&(1<<(32-n)) != 0
			}
		case isa.SHR:
			r = a >> n
			if n > 0 {
				m.Flags.CF = a&(1<<(n-1)) != 0
			}
		case isa.SAR:
			r = uint32(int32(a) >> n)
			if n > 0 {
				m.Flags.CF = a&(1<<(n-1)) != 0
			}
		}
		m.Flags.ZF = r == 0
		m.Flags.SF = r&0x8000_0000 != 0
		if f := wd(m, r); f != nil {
			return f
		}
		m.EIP = next
		return nil
	}
}
