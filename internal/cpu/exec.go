package cpu

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// RunLimits bounds a Run invocation.
type RunLimits struct {
	// MaxInstructions stops the run after this many instructions
	// (0 = unlimited). This is a simulator safety net, not the
	// kernel's extension time limit (which uses the tick hook).
	MaxInstructions uint64
}

// Run executes instructions until a stop condition occurs. The hot
// loop executes through the decoded-block cache's threaded-code tier:
// breakpoints, service endpoints and block decode are resolved once
// per straight-line run instead of once per instruction (with the
// break/service maps themselves consulted only when armed and
// overlapping, via the machine's linear envelopes), hot blocks chain
// directly to their successors, timer-deadline checks are batched
// behind per-block worst-case charge bounds, and same-page fetches
// take a counted fast path — while every per-instruction architectural
// event (timer ticks, page-level fetch checks with their TLB
// statistics and page-walk charges, faults mid-block) happens exactly
// as it would stepping uncached.
func (m *Machine) Run(lim RunLimits) RunResult {
	var res RunResult
	// prev/prevExit remember the chainable exit that led to the next
	// dispatch, so the edge can be recorded once the successor has
	// passed the break/service entry checks.
	var prev *codeBlock
	var prevExit uint32
	for {
		if lim.MaxInstructions > 0 && res.Instructions >= lim.MaxInstructions {
			res.Reason = StopBudget
			return res
		}
		lin := m.linearEIP()
		if len(m.breaks) != 0 && lin >= m.brkLo && lin <= m.brkHi && m.breaks[lin] {
			res.Reason = StopBreak
			return res
		}
		if len(m.services) != 0 && lin >= m.svcLo && lin <= m.svcHi {
			if svc := m.services[lin]; svc != nil {
				prev = nil
				if stop := serviceStop(m.runService(svc)); stop != nil {
					stop.Instructions = res.Instructions
					return *stop
				}
				continue
			}
		}
		gen := m.MMU.SegGen()
		b := m.lookupBlock(lin, gen)
		if b == nil {
			b = m.buildBlock(lin, gen)
		}
		if b == nil {
			prev = nil
			// Nothing fetchable or decodable here: take the uncached
			// path, which raises the right fault with the right
			// charges.
			if stop, _ := m.tickCheck(); stop != nil {
				stop.Instructions += res.Instructions
				return *stop
			}
			stop, done := m.fetchExec()
			if stop != nil {
				stop.Instructions += res.Instructions
				return *stop
			}
			if done {
				res.Instructions++
			}
			continue
		}
		if prev != nil && prev.gen == gen && prev.cs == b.cs {
			// The successor passed this iteration's break/service
			// checks: record the chain edge. SetBreak/RegisterService
			// at any address the successor covers will drop it from
			// its cache slot, which the follow-side validation sees.
			prev.setSucc(prevExit, b)
		}
		var remaining uint64
		if lim.MaxInstructions > 0 {
			remaining = lim.MaxInstructions - res.Instructions
		}
		if m.TraceThreshold > 0 {
			// Trace tier: promote a hot chain entry (runChain bailed
			// out here after the chain-follow counter crossed the
			// threshold) and dispatch through its superblock. A live b
			// implies a live trace: both carry the same (gen, cs) tag,
			// and everything that invalidates the entry block also
			// detaches the trace.
			if b.trace == nil && !b.traceFailed && b.hot >= m.TraceThreshold {
				m.buildTrace(b, gen)
			}
			if tr := b.trace; tr != nil {
				prev = nil
				stop, n := m.runTrace(tr, remaining)
				res.Instructions += n
				if stop != nil {
					stop.Instructions = res.Instructions
					return *stop
				}
				continue
			}
		}
		stop, n, exit, exitLin := m.runChain(b, remaining)
		res.Instructions += n
		if stop != nil {
			stop.Instructions = res.Instructions
			return *stop
		}
		prev, prevExit = exit, exitLin
	}
}

// runChain executes a cached block and then follows chained successors
// for as long as each exit's cached block revalidates, stopping early
// at the remaining instruction budget (0 = unlimited), a timer-hook
// error, a fault, or HLT. It returns the retired-instruction count, a
// stop result whose Instructions field the caller owns, and — when the
// final block left through a chainable exit whose successor was not
// yet linked — that block and its exit's linear target, so Run can
// record the edge after re-running the entry checks.
func (m *Machine) runChain(b *codeBlock, remaining uint64) (*RunResult, uint64, *codeBlock, uint32) {
	gen := b.gen // segment-check generation the chain was built under
	// tgen guards the translation-level caches (the same-page fetch
	// fast path): any paging event a timer hook performs advances it,
	// and the chain bails out to live-state dispatch.
	tgen := m.MMU.TransGen()
	cpl := m.CPL()
	var n uint64
	// Same-page fetch fast path: curFrame/curPage hold the frame base
	// the last full CheckPage returned. Within one chain dispatch the
	// cached translation can only be invalidated by events that bump
	// the translation generation, which bail out below.
	var curFrame, curPage uint32
	haveFrame := false
	for {
		slots := b.slots
		limit := len(slots)
		if remaining > 0 {
			left := remaining - n
			if left == 0 {
				// Budget exhausted; Run's top-of-loop check reports it.
				return nil, n, nil, 0
			}
			if uint64(limit) > left {
				limit = int(left)
			}
		}
		// Deadline check for the block entry (the check "before slot
		// 0"), then the horizon below which per-slot checks provably
		// cannot fire.
		horizon := limit
		ticking := m.OnTick != nil && m.TickCycles > 0
		if ticking {
			stop, ticked := m.tickCheck()
			if stop != nil {
				return stop, n, nil, 0
			}
			if ticked {
				if m.EIP != slots[0].eip || m.CS != b.cs ||
					m.blocks[blockIndex(b.lin)] != b || tgen != m.MMU.TransGen() {
					// The tick handler redirected execution or
					// invalidated cached state; finish this step
					// uncached and let Run re-dispatch from live state.
					stop, done := m.fetchExec()
					if done {
						n++
					}
					return stop, n, nil, 0
				}
				haveFrame = false
			}
			horizon = b.maxPrefix.Horizon(m.Clock.Cycles(), m.nextTick, 0, limit)
		}
		for i := 0; i < limit; i++ {
			if i >= horizon {
				stop, ticked := m.tickCheck()
				if stop != nil {
					return stop, n, nil, 0
				}
				if ticked {
					if m.EIP != slots[i].eip || m.CS != b.cs ||
						m.blocks[blockIndex(b.lin)] != b || tgen != m.MMU.TransGen() {
						stop, done := m.fetchExec()
						if done {
							n++
						}
						return stop, n, nil, 0
					}
					haveFrame = false
				}
				horizon = b.maxPrefix.Horizon(m.Clock.Cycles(), m.nextTick, i, limit)
			}
			slot := &slots[i]
			// Page-level fetch check: counted against the TLB and
			// charged on a miss exactly as the uncached fetch would
			// be, and the page-privilege faults are raised mid-block
			// as on hardware. Same-page fetches reuse the page-run
			// head's translation, counting the guaranteed TLB hit.
			var pa uint32
			if page := slot.lin &^ uint32(mem.PageMask); haveFrame && page == curPage {
				m.MMU.FastFetchHit()
				m.bcFastFetches++
				pa = curFrame | (slot.lin & mem.PageMask)
			} else {
				full, f := m.MMU.CheckPage(slot.lin, mmu.Execute, cpl, b.cs, slot.eip)
				if f != nil {
					return &RunResult{Reason: StopFault, Fault: f, Err: f}, n, nil, 0
				}
				pa = full
				curFrame = pa &^ uint32(mem.PageMask)
				curPage = page
				haveFrame = true
			}
			if pa != slot.pa {
				// The mapping changed under the block (e.g. a PTE
				// store with no invlpg, honoured lazily as on
				// hardware): execute what the live translation holds.
				ins := m.code[pa]
				if ins == nil {
					f := &mmu.Fault{Kind: mmu.UD, Sel: b.cs, Off: slot.eip, Linear: slot.lin,
						Access: mmu.Execute, CPL: cpl, Reason: "no instruction at address"}
					return &RunResult{Reason: StopFault, Fault: f, Err: f}, n, nil, 0
				}
				if f := m.execute(ins); f != nil {
					return &RunResult{Reason: StopFault, Fault: f, Err: f}, n, nil, 0
				}
				m.instret++
				n++
				if m.haltFlag {
					return &RunResult{Reason: StopHalt}, n, nil, 0
				}
				if m.EIP != slot.eip+isa.InstrSlot {
					// The substituted instruction transferred control;
					// the rest of the cached run no longer follows.
					// Re-dispatch from live state.
					return nil, n, nil, 0
				}
				// The live instruction's charge is not bounded by the
				// compiled slot's worst case, so the deadline horizon
				// no longer proves anything: force a full check (and a
				// re-derivation) before the next slot.
				if ticking && horizon > i+1 {
					horizon = i + 1
				}
				continue
			}
			if f := slot.exec(m); f != nil {
				return &RunResult{Reason: StopFault, Fault: f, Err: f}, n, nil, 0
			}
			m.instret++
			n++
			if m.haltFlag {
				return &RunResult{Reason: StopHalt}, n, nil, 0
			}
		}
		if limit < len(slots) {
			// Budget truncation; Run's top-of-loop check reports it.
			return nil, n, nil, 0
		}
		// Block complete: follow the chain if this exit's successor is
		// recorded and still the live block for its address under the
		// live generation (whatever invalidates a block drops it from
		// its slot or retires its generation, so a stale successor can
		// never revalidate).
		target := b.base + m.EIP
		if next := b.chainExit(target); next != nil &&
			next.lin == target && next.gen == gen && next.cs == b.cs &&
			m.blocks[blockIndex(next.lin)] == next {
			m.bcChainHits++
			if m.TraceThreshold > 0 {
				// Heat detection for the trace tier: count the chain
				// follow and, once the successor is hot (or already has
				// a trace), bail to Run so it can build/dispatch the
				// superblock from the top of the dispatch loop. EIP is
				// already at the successor's entry.
				next.hot++
				if next.trace != nil || (next.hot >= m.TraceThreshold && !next.traceFailed) {
					return nil, n, nil, 0
				}
			}
			b = next
			continue
		}
		if b.chainable(target) {
			return nil, n, b, target
		}
		return nil, n, nil, 0
	}
}

// Step executes at most one instruction (or one trusted service call)
// without consulting the block cache. It returns a non-nil stop result
// when the run must end, and reports whether an instruction was
// retired.
func (m *Machine) Step() (*RunResult, bool) {
	lin := m.linearEIP()
	if m.breaks[lin] {
		return &RunResult{Reason: StopBreak}, false
	}
	if svc := m.services[lin]; svc != nil {
		return serviceStop(m.runService(svc)), false
	}

	// Timer tick (the kernel's extension CPU-time limit).
	if stop, _ := m.tickCheck(); stop != nil {
		return stop, false
	}
	return m.fetchExec()
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
// Run's fallback path: full segment+page translation, decoded-code
// lookup, execution, and instruction retirement.
func (m *Machine) fetchExec() (*RunResult, bool) {
	pa, f := m.MMU.Translate(m.CS, m.EIP, isa.InstrSlot, mmu.Execute, m.CPL())
	if f != nil {
		return &RunResult{Reason: StopFault, Fault: f, Err: f}, false
	}
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
	if m.halted() {
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

// halted is set by HLT.
func (m *Machine) halted() bool { return m.haltFlag }

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
		if m.cond(ins.Op) {
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
	var r uint32
	switch ins.Op {
	case isa.ADD:
		r = a + b
		m.Flags.CF = r < a
		m.Flags.OF = (a>>31 == b>>31) && (r>>31 != a>>31)
	case isa.SUB, isa.CMP:
		r = a - b
		m.Flags.CF = a < b
		m.Flags.OF = (a>>31 != b>>31) && (r>>31 != a>>31)
	case isa.AND, isa.TEST:
		r = a & b
		m.Flags.CF, m.Flags.OF = false, false
	case isa.OR:
		r = a | b
		m.Flags.CF, m.Flags.OF = false, false
	case isa.XOR:
		r = a ^ b
		m.Flags.CF, m.Flags.OF = false, false
	}
	if ins.Size == 1 {
		r &= 0xFF
		m.Flags.SF = r&0x80 != 0
	} else {
		m.Flags.SF = r&0x8000_0000 != 0
	}
	m.Flags.ZF = r == 0
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
	var r uint32
	switch ins.Op {
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
		r = ^a
		if f := m.writeOperand(&ins.Dst, ins.Size, r); f != nil {
			return f
		}
		return nil // NOT does not affect flags
	}
	if ins.Size == 1 {
		r &= 0xFF
		m.Flags.SF = r&0x80 != 0
	} else {
		m.Flags.SF = r&0x8000_0000 != 0
	}
	m.Flags.ZF = r == 0
	return m.writeOperand(&ins.Dst, ins.Size, r)
}

func (m *Machine) shift(ins *isa.Instr) *mmu.Fault {
	a, f := m.readOperand(&ins.Dst, 4)
	if f != nil {
		return f
	}
	n := uint32(ins.Src.Imm) & 31
	var r uint32
	switch ins.Op {
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
	return m.writeOperand(&ins.Dst, 4, r)
}

func (m *Machine) cond(op isa.Op) bool {
	f := m.Flags
	switch op {
	case isa.JE:
		return f.ZF
	case isa.JNE:
		return !f.ZF
	case isa.JL:
		return f.SF != f.OF
	case isa.JLE:
		return f.ZF || f.SF != f.OF
	case isa.JG:
		return !f.ZF && f.SF == f.OF
	case isa.JGE:
		return f.SF == f.OF
	case isa.JB:
		return f.CF
	case isa.JBE:
		return f.CF || f.ZF
	case isa.JA:
		return !f.CF && !f.ZF
	case isa.JAE:
		return !f.CF
	case isa.JS:
		return f.SF
	case isa.JNS:
		return !f.SF
	}
	return false
}

func (m *Machine) gpf(reason string) *mmu.Fault {
	return &mmu.Fault{Kind: mmu.GP, Sel: m.CS, Off: m.EIP, Linear: m.linearEIP(),
		Access: mmu.Execute, CPL: m.CPL(), Reason: reason}
}
