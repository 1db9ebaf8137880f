package cpu

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mmu"
)

// RunLimits bounds a Run invocation.
type RunLimits struct {
	// MaxInstructions stops the run after this many instructions
	// (0 = unlimited). This is a simulator safety net, not the
	// kernel's extension time limit (which uses the tick hook).
	MaxInstructions uint64
}

// Run executes instructions until a stop condition occurs. Its loop
// dispatches one cached block at a time: breakpoints and service
// endpoints are resolved once per straight-line run (the break/service
// maps consulted only when armed and overlapping, via the machine's
// linear envelopes), and every dispatch of a block without a trace
// counts toward its promotion into one, however the block was entered.
// A block with a trace runs as that trace (tracerun.go), the one
// compiled executor. Any other block runs its slots through Step, the
// reference interpreter, until control leaves the straight-line run,
// so code that is not yet hot (or where no trace can start) behaves
// exactly as stepping does.
func (m *Machine) Run(lim RunLimits) RunResult {
	var res RunResult
	for {
		if lim.MaxInstructions > 0 && res.Instructions >= lim.MaxInstructions {
			res.Reason = StopBudget
			return res
		}
		lin := m.linearEIP()
		if m.breakAt(lin) {
			res.Reason = StopBreak
			return res
		}
		if svc := m.serviceAt(lin); svc != nil {
			if stop := serviceStop(m.runService(svc)); stop != nil {
				stop.Instructions = res.Instructions
				return *stop
			}
			continue
		}
		gen := m.MMU.SegGen()
		b := m.lookupBlock(lin, gen)
		if b == nil {
			b = m.buildBlock(lin, gen)
		}
		var slots []blockSlot
		if b != nil {
			// Count this dispatch toward the block's heat, promote it at
			// the threshold, and dispatch through its trace. A live b
			// implies a live trace: the trace is stored on b and shares
			// its tag, and everything that invalidates b or the trace
			// drops or detaches it.
			if b.trace == nil && !b.traceFailed {
				if b.hot++; b.hot >= m.TraceThreshold {
					m.buildTrace(b)
				}
			}
			var remaining uint64
			if lim.MaxInstructions > 0 {
				remaining = lim.MaxInstructions - res.Instructions
			}
			if tr := b.trace; tr != nil {
				stop, n := m.runTrace(tr, remaining)
				res.Instructions += n
				if stop != nil {
					stop.Instructions = res.Instructions
					return *stop
				}
				continue
			}
			slots = b.slots
			if remaining > 0 && uint64(len(slots)) > remaining {
				slots = slots[:remaining]
			}
		}
		// No trace: step the block's slots while control follows them.
		// With no block (nothing fetchable or decodable here), one step
		// raises the right fault with the right charges.
		for i := 0; ; i++ {
			stop, done := m.Step()
			if done {
				res.Instructions++
			}
			if stop != nil {
				stop.Instructions = res.Instructions
				return *stop
			}
			if i+1 >= len(slots) || m.EIP != slots[i].eip+isa.InstrSlot || m.CS != b.cs {
				break
			}
		}
	}
}

// Step executes at most one instruction (or one trusted service call)
// without consulting the block cache. It returns a non-nil stop result
// when the run must end, and reports whether an instruction was
// retired.
func (m *Machine) Step() (*RunResult, bool) {
	lin := m.linearEIP()
	if m.breakAt(lin) {
		return &RunResult{Reason: StopBreak}, false
	}
	if svc := m.serviceAt(lin); svc != nil {
		return serviceStop(m.runService(svc)), false
	}

	// Timer tick (the kernel's extension CPU-time limit).
	if stop, _ := m.tickCheck(); stop != nil {
		return stop, false
	}
	return m.fetchExec()
}

// breakAt reports whether a breakpoint is armed at lin. It consults
// the map only inside the breakpoints' linear envelope.
func (m *Machine) breakAt(lin uint32) bool {
	return len(m.breaks) != 0 && lin >= m.brkLo && lin <= m.brkHi && m.breaks[lin]
}

// serviceAt returns the service endpoint registered at lin, or nil. It
// consults the map only inside the services' linear envelope.
func (m *Machine) serviceAt(lin uint32) *Service {
	if len(m.services) != 0 && lin >= m.svcLo && lin <= m.svcHi {
		return m.services[lin]
	}
	return nil
}

// serviceStop classifies a service-handler outcome into a stop result
// (nil when the service completed normally); shared by Run and Step so
// their dispatch cannot diverge.
func serviceStop(err error) *RunResult {
	if err == nil {
		return nil
	}
	if f, ok := err.(*mmu.Fault); ok {
		return &RunResult{Reason: StopFault, Fault: f, Err: f}
	}
	return &RunResult{Reason: StopError, Err: err}
}

// fetchExec is the uncached fetch-and-execute tail shared by Step and
// a trace whose entry tick changed live state: full segment+page
// translation, then execAt.
func (m *Machine) fetchExec() (*RunResult, bool) {
	pa, f := m.MMU.Translate(m.CS, m.EIP, isa.InstrSlot, mmu.Execute, m.CPL())
	if f != nil {
		return &RunResult{Reason: StopFault, Fault: f, Err: f}, false
	}
	return m.execAt(pa)
}

// execAt executes the instruction whose fetch at CS:EIP translated to
// physical address pa: decoded-code lookup, execution, and instruction
// retirement. A trace whose fetch frame moved under it runs the live
// decode through it too.
func (m *Machine) execAt(pa uint32) (*RunResult, bool) {
	ins := m.code[pa]
	if ins == nil {
		f := &mmu.Fault{Kind: mmu.UD, Sel: m.CS, Off: m.EIP, Linear: m.linearEIP(), Access: mmu.Execute,
			CPL: m.CPL(), Reason: "no instruction at address"}
		return &RunResult{Reason: StopFault, Fault: f, Err: f}, false
	}
	if f := m.execute(ins); f != nil {
		return &RunResult{Reason: StopFault, Fault: f, Err: f}, false
	}
	m.instret++
	if m.haltFlag {
		return &RunResult{Reason: StopHalt, Instructions: 1}, true
	}
	return nil, true
}

// tickCheck fires the timer hook when the clock has reached the next
// tick deadline, reporting whether the hook ran. The first deadline is
// armed lazily, one full TickCycles period after ticking is first
// observed enabled, so the hook does not fire before any simulated
// time has elapsed.
func (m *Machine) tickCheck() (*RunResult, bool) {
	if m.OnTick == nil || m.TickCycles <= 0 {
		return nil, false
	}
	if m.nextTick == 0 {
		m.nextTick = m.Clock.Cycles() + m.TickCycles
		return nil, false
	}
	if m.Clock.Cycles() < m.nextTick {
		return nil, false
	}
	m.nextTick = m.Clock.Cycles() + m.TickCycles
	if err := m.OnTick(m); err != nil {
		return &RunResult{Reason: StopError, Err: err}, true
	}
	return nil, true
}

// runService invokes a trusted Go endpoint and synthesizes the return
// transfer that real code would perform.
func (m *Machine) runService(svc *Service) error {
	if err := svc.Handler(m); err != nil {
		return err
	}
	switch svc.Kind {
	case ServiceCallGate:
		if f := m.lretTransfer(0); f != nil {
			return f
		}
	case ServiceInt:
		if f := m.iretTransfer(); f != nil {
			return f
		}
	}
	return nil
}

// costKind classifies an instruction for the cycle model.
func costKind(i *isa.Instr) cycles.Kind {
	switch i.Op {
	case isa.NOP:
		return cycles.Nop
	case isa.MOV:
		switch {
		case i.Dst.Kind == isa.KindMem:
			return cycles.Store
		case i.Src.Kind == isa.KindMem:
			return cycles.Load
		case i.Src.Kind == isa.KindImm:
			return cycles.MovImm
		default:
			return cycles.MovRR
		}
	case isa.LEA:
		return cycles.Lea
	case isa.PUSH:
		switch i.Dst.Kind {
		case isa.KindReg:
			return cycles.PushReg
		case isa.KindMem:
			return cycles.PushMem
		default:
			return cycles.PushImm
		}
	case isa.POP:
		if i.Dst.Kind == isa.KindMem {
			return cycles.PopMem
		}
		return cycles.PopReg
	case isa.IMUL:
		return cycles.Mul
	case isa.XCHG:
		return cycles.Xchg
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST,
		isa.INC, isa.DEC, isa.SHL, isa.SHR, isa.SAR, isa.NEG, isa.NOT:
		if i.HasMemOperand() {
			return cycles.ALUMem
		}
		return cycles.ALU
	case isa.JMP:
		return cycles.JmpNear
	case isa.CALL:
		return cycles.CallNear
	case isa.RET:
		return cycles.RetNear
	case isa.HLT:
		return cycles.Hlt
	}
	// Branches and far transfers are charged inside execute, where
	// the outcome (taken, privilege change) is known.
	return cycles.Nop
}

// worstCharge is the most execute can charge for ins under model: its
// static cost, the costlier outcome of a branch or far transfer, and
// one TLB-miss walk per data translation it can perform. The fetch-side
// walk is the caller's to add at page-run heads. Traces sum it into
// prefix bounds (cycles.Prefix) so the per-instruction
// timer-deadline check can be skipped while the clock provably cannot
// reach the next tick; the batching is sound only while this bounds
// what Step charges (TestWorstChargeBoundsStep).
func worstCharge(ins *isa.Instr, model *cycles.Model) float64 {
	tlb := model.Cost(cycles.TLBMiss)
	c := model.Cost(costKind(ins))
	// walks adds dst walks for a memory destination and src walks for
	// a memory source.
	walks := func(dst, src int) float64 {
		w := c
		if ins.Dst.Kind == isa.KindMem {
			w += float64(dst) * tlb
		}
		if ins.Src.Kind == isa.KindMem {
			w += float64(src) * tlb
		}
		return w
	}
	switch ins.Op {
	case isa.NOP, isa.HLT, isa.LEA:
		return c
	case isa.MOV, isa.IMUL:
		return walks(1, 1)
	case isa.PUSH, isa.POP:
		return walks(1, 0) + tlb // plus the stack access
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST:
		return walks(2, 1) // a memory destination is read and written
	case isa.INC, isa.DEC, isa.NEG, isa.NOT, isa.SHL, isa.SHR, isa.SAR:
		return walks(2, 0)
	case isa.XCHG:
		return walks(2, 2)
	case isa.JMP, isa.CALL:
		if ins.Op == isa.CALL {
			c += tlb // the return-address push
		}
		if ins.Dst.Kind == isa.KindMem {
			c += model.Cost(cycles.Load) + tlb // the indirect target load
		}
		return c
	case isa.RET:
		return c + tlb
	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS:
		return model.MaxCost(cycles.JccTaken, cycles.JccNotTaken)
	case isa.LCALL:
		return model.MaxCost(cycles.CallFarSame, cycles.LcallGateInter) + 4*tlb
	case isa.LRET:
		return model.MaxCost(cycles.LretSame, cycles.LretInter) + 4*tlb
	case isa.INT:
		return model.Cost(cycles.IntGate) + 5*tlb
	case isa.IRET:
		return model.MaxCost(cycles.Iret, cycles.IretInter) + 5*tlb
	}
	return 0 // unimplemented: execute raises #UD without charging
}

// execute runs one instruction. EIP advances unless the instruction
// itself transferred control.
func (m *Machine) execute(ins *isa.Instr) *mmu.Fault {
	next := m.EIP + isa.InstrSlot
	switch ins.Op {
	case isa.NOP:
		m.Clock.Charge(m.Model, cycles.Nop)

	case isa.HLT:
		m.Clock.Charge(m.Model, cycles.Hlt)
		if m.CPL() != 0 {
			return m.gpf("hlt at CPL > 0")
		}
		m.haltFlag = true

	case isa.MOV:
		m.Clock.Charge(m.Model, costKind(ins))
		v, f := m.readOperand(&ins.Src, ins.Size)
		if f != nil {
			return f
		}
		if f := m.writeOperand(&ins.Dst, ins.Size, v); f != nil {
			return f
		}

	case isa.LEA:
		m.Clock.Charge(m.Model, cycles.Lea)
		m.Regs[ins.Dst.Reg] = m.effAddr(&ins.Src)

	case isa.PUSH:
		m.Clock.Charge(m.Model, costKind(ins))
		v, f := m.readOperand(&ins.Dst, 4)
		if f != nil {
			return f
		}
		if f := m.Push(v); f != nil {
			return f
		}

	case isa.POP:
		m.Clock.Charge(m.Model, costKind(ins))
		v, f := m.Pop()
		if f != nil {
			return f
		}
		if f := m.writeOperand(&ins.Dst, 4, v); f != nil {
			// x86 restores ESP if the store faults.
			m.Regs[isa.ESP] -= 4
			return f
		}

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST:
		m.Clock.Charge(m.Model, costKind(ins))
		if f := m.binop(ins); f != nil {
			return f
		}

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		m.Clock.Charge(m.Model, costKind(ins))
		if f := m.unop(ins); f != nil {
			return f
		}

	case isa.SHL, isa.SHR, isa.SAR:
		m.Clock.Charge(m.Model, costKind(ins))
		if f := m.shift(ins); f != nil {
			return f
		}

	case isa.IMUL:
		m.Clock.Charge(m.Model, cycles.Mul)
		a := int32(m.Regs[ins.Dst.Reg])
		bv, f := m.readOperand(&ins.Src, 4)
		if f != nil {
			return f
		}
		m.Regs[ins.Dst.Reg] = uint32(a * int32(bv))

	case isa.XCHG:
		m.Clock.Charge(m.Model, cycles.Xchg)
		a, f := m.readOperand(&ins.Dst, ins.Size)
		if f != nil {
			return f
		}
		b, f := m.readOperand(&ins.Src, ins.Size)
		if f != nil {
			return f
		}
		if f := m.writeOperand(&ins.Dst, ins.Size, b); f != nil {
			return f
		}
		if f := m.writeOperand(&ins.Src, ins.Size, a); f != nil {
			return f
		}

	case isa.JMP:
		m.Clock.Charge(m.Model, cycles.JmpNear)
		t, f := m.branchTarget(&ins.Dst)
		if f != nil {
			return f
		}
		m.EIP = t
		return nil

	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS:
		if f := m.Flags; cond(ins.Op, f.ZF, f.SF, f.CF, f.OF) {
			m.Clock.Charge(m.Model, cycles.JccTaken)
			m.EIP = uint32(ins.Dst.Imm)
			return nil
		}
		m.Clock.Charge(m.Model, cycles.JccNotTaken)

	case isa.CALL:
		m.Clock.Charge(m.Model, cycles.CallNear)
		t, f := m.branchTarget(&ins.Dst)
		if f != nil {
			return f
		}
		if f := m.Push(next); f != nil {
			return f
		}
		m.EIP = t
		return nil

	case isa.RET:
		m.Clock.Charge(m.Model, cycles.RetNear)
		t, f := m.Pop()
		if f != nil {
			return f
		}
		if ins.Dst.Kind == isa.KindImm {
			m.Regs[isa.ESP] += uint32(ins.Dst.Imm)
		}
		m.EIP = t
		return nil

	case isa.LCALL:
		// Cost charged inside the transfer, which knows whether the
		// privilege level changes.
		if f := m.lcallGate(mmu.Selector(uint16(ins.Dst.Imm)), next); f != nil {
			return f
		}
		return nil

	case isa.LRET:
		var n uint32
		if ins.Dst.Kind == isa.KindImm {
			n = uint32(ins.Dst.Imm)
		}
		if f := m.lretTransfer(n); f != nil {
			return f
		}
		return nil

	case isa.INT:
		if f := m.intTransfer(uint8(ins.Dst.Imm), true); f != nil {
			return f
		}
		return nil

	case isa.IRET:
		if f := m.iretTransfer(); f != nil {
			return f
		}
		return nil

	default:
		return &mmu.Fault{Kind: mmu.UD, Sel: m.CS, Off: m.EIP, CPL: m.CPL(),
			Reason: fmt.Sprintf("unimplemented opcode %s", ins.Op)}
	}
	m.EIP = next
	return nil
}

// branchTarget resolves a jmp/call operand: immediate (direct),
// register, or memory (indirect, e.g. a PLT entry jumping through its
// GOT slot — the extra memory read is charged as a Load).
func (m *Machine) branchTarget(op *isa.Operand) (uint32, *mmu.Fault) {
	switch op.Kind {
	case isa.KindImm:
		return uint32(op.Imm), nil
	case isa.KindReg:
		return m.Regs[op.Reg], nil
	case isa.KindMem:
		m.Clock.Charge(m.Model, cycles.Load)
		return m.readMem(op, 4)
	}
	return 0, m.gpf("bad branch operand")
}

func (m *Machine) readOperand(op *isa.Operand, size uint8) (uint32, *mmu.Fault) {
	switch op.Kind {
	case isa.KindReg:
		return m.Regs[op.Reg], nil
	case isa.KindImm:
		return uint32(op.Imm), nil
	case isa.KindMem:
		return m.readMem(op, size)
	}
	return 0, nil
}

func (m *Machine) writeOperand(op *isa.Operand, size uint8, v uint32) *mmu.Fault {
	switch op.Kind {
	case isa.KindReg:
		if size == 1 {
			// Byte ops targeting a register zero-extend (movzx
			// semantics), so byte loads never leave stale upper bits.
			m.Regs[op.Reg] = v & 0xFF
		} else {
			m.Regs[op.Reg] = v
		}
		return nil
	case isa.KindMem:
		return m.writeMem(op, size, v)
	}
	return m.gpf("bad destination operand")
}

func (m *Machine) binop(ins *isa.Instr) *mmu.Fault {
	a, f := m.readOperand(&ins.Dst, ins.Size)
	if f != nil {
		return f
	}
	b, f := m.readOperand(&ins.Src, ins.Size)
	if f != nil {
		return f
	}
	r, cf, of := aluCF(ins.Op, a, b)
	m.Flags.CF, m.Flags.OF = cf, of
	r = m.Flags.setSZ(r, ins.Size)
	if ins.Op == isa.CMP || ins.Op == isa.TEST {
		return nil
	}
	return m.writeOperand(&ins.Dst, ins.Size, r)
}

func (m *Machine) unop(ins *isa.Instr) *mmu.Fault {
	a, f := m.readOperand(&ins.Dst, ins.Size)
	if f != nil {
		return f
	}
	r := ^a // NOT does not affect flags
	if ins.Op != isa.NOT {
		r = m.Flags.unary(ins.Op, ins.Size, a)
	}
	return m.writeOperand(&ins.Dst, ins.Size, r)
}

func (m *Machine) shift(ins *isa.Instr) *mmu.Fault {
	a, f := m.readOperand(&ins.Dst, 4)
	if f != nil {
		return f
	}
	return m.writeOperand(&ins.Dst, 4, m.Flags.shift(ins.Op, a, uint32(ins.Src.Imm)&31))
}

// The flag semantics below are shared by execute and the trace tier's
// fused ops, so the two cannot disagree on a flag. Each is small enough
// to inline into the trace dispatch loop.

// aluCF computes a binary ALU result with its CF/OF effects (both
// clear for the logical ops); the caller applies setSZ.
func aluCF(sub isa.Op, a, b uint32) (r uint32, cf, of bool) {
	switch sub {
	case isa.ADD:
		r = a + b
		cf = r < a
		// Same sign in, different sign out: bit-exact XOR form of
		// (a>>31 == b>>31) && (r>>31 != a>>31).
		of = (^(a^b)&(a^r))>>31 != 0
	case isa.SUB, isa.CMP:
		r = a - b
		cf = a < b
		// Different sign in, result sign differs from a: XOR form of
		// (a>>31 != b>>31) && (r>>31 != a>>31).
		of = ((a^b)&(a^r))>>31 != 0
	case isa.AND, isa.TEST:
		r = a & b
	case isa.OR:
		r = a | b
	case isa.XOR:
		r = a ^ b
	}
	return
}

// setSZ masks r to operand size (1 = byte, otherwise dword), sets SF
// and ZF from it, and returns it.
func (fl *Flags) setSZ(r uint32, size uint8) uint32 {
	sign := uint32(0x8000_0000)
	if size == 1 {
		r &= 0xFF
		sign = 0x80
	}
	fl.SF, fl.ZF = r&sign != 0, r == 0
	return r
}

// unary applies INC, DEC or NEG to a at operand size, sets the flags
// and returns the result. (NOT, which affects no flag, is the caller's
// ^a.)
func (fl *Flags) unary(sub isa.Op, size uint8, a uint32) uint32 {
	r := -a
	switch sub {
	case isa.INC:
		r = a + 1
		fl.OF = r == 0x8000_0000
	case isa.DEC:
		r = a - 1
		fl.OF = a == 0x8000_0000
	default: // NEG
		fl.CF = a != 0
	}
	return fl.setSZ(r, size)
}

// shift applies SHL, SHR or SAR by n (0..31) to the dword a, sets the
// flags and returns the result. CF takes the last bit shifted out; a
// zero count leaves it alone.
func (fl *Flags) shift(sub isa.Op, a, n uint32) uint32 {
	r, out := a<<n, a>>(32-n)
	switch sub {
	case isa.SHR:
		r, out = a>>n, a>>(n-1)
	case isa.SAR:
		r, out = uint32(int32(a)>>n), a>>(n-1)
	}
	if n > 0 {
		fl.CF = out&1 != 0
	}
	fl.ZF, fl.SF = r == 0, r&0x8000_0000 != 0
	return r
}

// cond evaluates the Jcc predicate op on the flags.
func cond(op isa.Op, zf, sf, cf, of bool) bool {
	switch op {
	case isa.JE:
		return zf
	case isa.JNE:
		return !zf
	case isa.JL:
		return sf != of
	case isa.JLE:
		return zf || sf != of
	case isa.JG:
		return !zf && sf == of
	case isa.JGE:
		return sf == of
	case isa.JB:
		return cf
	case isa.JBE:
		return cf || zf
	case isa.JA:
		return !cf && !zf
	case isa.JAE:
		return !cf
	case isa.JS:
		return sf
	case isa.JNS:
		return !sf
	}
	return false
}

func (m *Machine) gpf(reason string) *mmu.Fault {
	return &mmu.Fault{Kind: mmu.GP, Sel: m.CS, Off: m.EIP, Linear: m.linearEIP(),
		Access: mmu.Execute, CPL: m.CPL(), Reason: reason}
}
