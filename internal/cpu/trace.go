package cpu

import (
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// Trace superblocks: the one compiled executor.
//
// Step, the reference interpreter, pays per-instruction bookkeeping:
// every instruction re-checks breaks and services and the timer
// deadline, translates its fetch through the segment and page checks,
// re-dispatches on the opcode and re-loads machine state through a
// pointer, every flag lives in a struct field, and every cycle charge
// is a float64 add against the shared clock. Traces remove that tax for
// hot paths: Run counts every dispatch of a cached block
// (blockcache.go), however it was entered (fall-through, branch, ret,
// indirect jump, service return), and promotes a block dispatched
// often into a *trace* — a fused
// superblock covering the whole hot path (loops included), compiled
// into a flat micro-op array executed by one dispatch loop
// (tracerun.go). The loop keeps only its loop-carried hot values in Go
// locals — the op index, the retired count, the batched cycle charge,
// the simulated registers, the dispatch seq and the batched TLB-hit
// count — and reaches everything else (segment selectors, CPL, memory,
// MMU, deadline proof, EFLAGS) through one per-dispatch struct in
// memory (traceRun), so none of it competes for registers at the
// loop's merge point. Accounting is committed once per exit.
//
// Bit-identity. Every simulated metric must be exactly what Step
// produces:
//
//   - Cycle charges are accumulated locally and added to the clock at
//     commit, interleaved (in program order) with the live charges a
//     TLB-miss walk makes directly. This reorders float additions, so
//     the trace tier only engages when the cost model passes
//     cycles.Model.BatchSafe: every cost a multiple of 0.5, making
//     summation exact in any order.
//   - Page-level checks still happen per executed instruction. Fetches:
//     a full (charged, counted, checked) probe at every trace page-run
//     head and at every in-trace branch target, once per dispatch; all
//     other fetches are guaranteed TLB hits (the TLB never
//     evicts, and nothing that could invalidate an entry — CR3 load,
//     invlpg, descriptor mutation, a timer hook — can happen mid-
//     dispatch, because any of them ends the dispatch first), counted
//     wholesale at commit. Data accesses run through one
//     dispatch-scoped operand cache per memory operand and access
//     direction (opCache): a hit replays the page the operand's last
//     live translation (per-op segment probe plus mmu.TranslateBatched)
//     landed on in this dispatch, with its limit check folded into one
//     compare and exactly the one TLB hit the live check would count;
//     every other access — first touch, another page, a straddle, a
//     limit or page fault, a shared frame — is taken live, with
//     identical fault identities, charges and miss behaviour.
//   - Timer deadlines are batched behind worst-case prefix sums
//     (cycles.Prefix of worstCharge), with the proof's slack carried
//     across loop back-edges (traceRun.prove); past the proven horizon
//     the trace checks precisely against clock+accum at each op
//     boundary and, if the deadline has arrived, deoptimizes: it
//     commits the architectural state at that instruction boundary and
//     returns to Run, whose re-dispatch fires the hook at the identical
//     clock reading and EIP.
//   - A fused page whose frame no longer matches the build-time
//     translation deoptimizes to one live execute of what the live
//     translation holds (the remap honoured lazily, as Step does), then
//     re-dispatches.
//   - Faults commit the partially-executed architectural state exactly
//     as execute would have left it: charge already made, flags as
//     mutated so far, partial memory effects persisted, EIP at the
//     faulting instruction.
//
// Storage and invalidation are the block cache's: a trace lives only on
// its entry block (codeBlock.trace) and carries that block's tag, so
// SegGen retires it with the block, a colliding build evicts it with
// the block, and the trace count is bounded by the block table.
// registerTrace widens the block cache's linear envelope and aggregate
// page bloom over the trace's fused range and pages; the cache's scans
// then drop a block together with its trace when the block's own range
// or pages match, and detach only the trace when just its fused range
// or pages do (a break or service armed, or code installed or removed,
// in a fused successor). A rewind that changes the code map clears
// everything (clearBlockCache). Traces are never captured by Clone or
// SaveTo — a cloned or loaded machine re-detects heat and rebuilds,
// with bit-identical simulated metrics.
const (
	// defaultTraceThreshold is the dispatch count at which a block is
	// promoted to a trace entry.
	defaultTraceThreshold = 64
	// maxTraceOps caps the micro-ops fused into one trace.
	maxTraceOps = 512
	// maxTraceBlocks caps the blocks fused into one trace.
	maxTraceBlocks = 64
)

// traceOp codes. Ops with memory operands carry pre-bound segment
// probes and dispatch-scoped operand caches; ops that can leave the
// trace carry the side-exit EIP.
const (
	opExit      uint8 = iota // side exit before this address (untraceable instruction)
	opNop                    //
	opMovRI                  // dst <- imm (byte form pre-masked)
	opMovRR                  // dst <- src, dword
	opMovRRB                 // dst <- src & 0xFF
	opLea                    // dst <- effective address
	opAluRR                  // sub: ADD..TEST; dst op= src
	opAluRI                  // dst op= imm
	opAluRM                  // dst op= mem
	opAluMR                  // mem op= src
	opAluMI                  // mem op= imm
	opUnR                    // sub: INC/DEC/NEG/NOT on reg
	opUnM                    // on mem
	opShR                    // sub: SHL/SHR/SAR on reg, count imm
	opShM                    // on mem
	opImulRR                 // dst *= src
	opImulRI                 // dst *= imm
	opImulRM                 // dst *= mem
	opXchgRR                 // swap regs
	opXchgRM                 // dst reg <-> src mem
	opXchgMR                 // dst mem <-> src reg
	opMovLoad                // dst reg <- mem
	opMovStoreR              // mem <- src reg
	opMovStoreI              // mem <- imm
	opPushR                  // push reg
	opPushI                  // push imm
	opPushM                  // push mem
	opPopR                   // pop into reg
	opPopM                   // pop into mem
	opJmp                    // jmp imm, followed in-trace (next)
	opJmpExit                // jmp imm, side exit to exitEIP
	opJcc                    // sub: JE..JNS; followed direction in-trace
	opJccExit                // neither direction followed: exit taken (imm) or fall (exitEIP)
	opCall                   // call imm, callee followed in-trace
	opCallExit               // call imm, side exit to exitEIP
	opRet                    // ret [imm]: always a side exit
)

// traceOp flag bits. The dispatch loop tests the two pre-op bits
// together, so an op with neither pays one byte test for both, and a
// retired op without opFlagJump advances to the next op with no load.
const (
	opFlagExit     uint8 = 1 << iota // code is opExit: side exit before this op
	opFlagPageHead                   // fetch needs a full page check once per dispatch
	opFlagJump                       // a retired op continues at next, not at the following op
)

// traceOp is one fused micro-operation. The executor (tracerun.go)
// dispatches on code with the simulated registers in locals.
type traceOp struct {
	code     uint8
	sub      isa.Op // ALU/unop/shift kind or Jcc condition
	size     uint8  // operand size (1 or 4) where it matters
	scale    uint8
	dst, src uint8  // register indices
	base, ix uint8  // memory operand base/index (isa.NoReg when absent)
	useSS    bool   // memory operand addresses through SS
	flags    uint8  // opFlag* bits, set once the op list is final
	follow   bool   // opJcc: the followed direction is the taken branch
	imm      uint32 // immediate / shift count / RET pop / JccExit taken EIP
	disp     uint32
	eip      uint32 // segment-relative address of this instruction
	lin      uint32 // linear fetch address
	pa       uint32 // physical fetch address at build time
	next     uint32 // successor op index
	exitEIP  uint32 // side-exit EIP for branch/exit ops
	cost     float64
	alt      float64 // opJcc/opJccExit: cost of the unfollowed direction
	fseq     uint32  // dispatch seq of the last full fetch check
	probeR   mmu.SegProbe
	probeW   mmu.SegProbe
	r, w     opCache // the memory operand's read and write caches
}

// opCache is one memory operand's dispatch-scoped cache for one access
// direction: the page its last live translation landed on, valid while
// seq equals the trace's dispatch seq. Within one dispatch nothing can
// change what that translation decided — descriptor mutation, paging
// events and TLB flushes all end the dispatch first, and the op's
// selector, access kind, access size and CPL are fixed — so an access
// at segment offset off hits when off−lo ≤ span (unsigned), which
// proves at once that the access lies on the cached page, does not
// straddle it, and passes the segment-limit check. A hit counts exactly
// the one TLB hit the live check would, and reads or writes the page's
// bytes through host: the frame an uncached access resolves to. host is
// pinned only while this Physical owns the frame exclusively — the read
// side via mem.FrameViewStable, the write side after the full COW fault
// (mem.FrameMut) — since nothing can newly share a frame mid-dispatch
// (Clone never runs then). A read cache over a shared frame keeps host
// nil, and its hits read through frame on the live path.
type opCache struct {
	seq   uint32              // dispatch seq of the fill
	lo    uint32              // segment offset of the cached page's first byte
	span  uint32              // largest off−lo on the page and inside the limit
	frame uint32              // physical address of the cached page
	host  *[mem.PageSize]byte // the frame's bytes; nil while the frame is shared
}

// trace is a compiled superblock: a flat micro-op array over the fused
// blocks' instructions, plus the metadata invalidation needs. Its tag
// (linear and segment-relative entry, code segment, generation) is
// its entry block's.
type trace struct {
	entry  *codeBlock // owning entry block (entry.trace == this while live)
	lo, hi uint32     // linear envelope over all fused block ranges
	pages  uint64     // bloom over decoded physical pages
	ops    []traceOp
	wc     cycles.Prefix // worst-case charge prefix over ops
	seq    uint32        // dispatch sequence for fseq/opCache tags
}

// TraceStats reports the trace tier's counters: traces built and
// invalidated, trace dispatches, normal side exits, and deoptimizations
// by cause. A "deopt" commits partial architectural state mid-trace and
// returns to Run's dispatch: Tick (deadline reached at an op boundary;
// the re-dispatch fires the hook there), Fault (the faulting op's state
// is committed exactly as Step would leave it), Page (a fused page's
// frame no longer matches the build-time translation; one live
// execute of what the live translation holds follows, as Step would
// fetch it), Budget (instruction budget exhausted mid-trace).
type TraceStats struct {
	Built       uint64
	Invalidated uint64
	Dispatches  uint64
	SideExits   uint64
	DeoptTick   uint64
	DeoptFault  uint64
	DeoptPage   uint64
	DeoptBudget uint64
}

// TraceStats reports the machine's trace-tier counters.
func (m *Machine) TraceStats() TraceStats { return m.trStats }

// registerTrace attaches a built trace to its entry block, widening
// the block cache's invalidation envelope and aggregate page bloom over
// the trace's fused range and pages, so the block cache's scans find
// the trace through its entry block.
func (m *Machine) registerTrace(tr *trace) {
	m.blockMin = min(m.blockMin, tr.lo)
	m.blockMax = max(m.blockMax, tr.hi)
	m.blocksBloom |= tr.pages
	tr.entry.trace = tr
	m.trStats.Built++
}

// buildTrace fuses the hot path starting at block b into a trace. It
// follows each block's terminal transfer into the cached successor
// while one exists (loop back-edges and internal joins become in-trace
// branches), stopping at untraceable instructions (far transfers,
// indirect targets, HLT), cache misses, or the size caps. Build is
// charge-free and count-free, like buildBlock: it reads decoded slots
// and peeks translations only. It marks the block instead when no
// useful trace exists here.
func (m *Machine) buildTrace(b *codeBlock) {
	if !m.Model.BatchSafe() {
		b.traceFailed = true
		return
	}
	tr := &trace{entry: b, lo: b.lin, hi: b.end}
	tlbMiss := m.Model.Cost(cycles.TLBMiss)
	// wcs collects each op's worst-case charge (worstCharge of its
	// instruction; 0 for an exit, which retires nothing) before
	// page-head TLB walks are known (join targets are marked after the
	// walk order is final); the prefix table is assembled at the end.
	wcs := make([]float64, 0, 32)
	blockStart := make(map[uint32]int) // block linear start -> first op index
	cur := b
	nblocks := 0
	for {
		nblocks++
		blockStart[cur.lin] = len(tr.ops)
		tr.lo = min(tr.lo, cur.lin)
		tr.hi = max(tr.hi, cur.end)
		tr.pages |= cur.pages
		nslots := len(cur.slots)
		term := cur.slots[nslots-1].ins
		termSpecial := term.Op.TransfersControl()
		bailed := false
		for i := 0; i < nslots-1; i++ { // the terminal slot is appended below
			s := &cur.slots[i]
			if !m.appendTraceOp(tr, cur, i) {
				tr.ops = append(tr.ops, traceOp{code: opExit, eip: s.eip, exitEIP: s.eip})
				wcs = append(wcs, 0)
				bailed = true
				break
			}
			wcs = append(wcs, worstCharge(s.ins, m.Model))
		}
		if bailed {
			break
		}
		ts := &cur.slots[nslots-1]
		if !termSpecial {
			// Fall-through continuation (length cap or a decode
			// boundary): the terminal is an ordinary op.
			if !m.appendTraceOp(tr, cur, nslots-1) {
				tr.ops = append(tr.ops, traceOp{code: opExit, eip: ts.eip, exitEIP: ts.eip})
				wcs = append(wcs, 0)
				break
			}
			wcs = append(wcs, worstCharge(ts.ins, m.Model))
			nxt, done := m.traceCont(tr, blockStart, cur.end, nblocks)
			if done {
				// Continuation leaves the trace: exit before the next
				// instruction.
				tr.ops = append(tr.ops, traceOp{code: opExit, eip: ts.eip + isa.InstrSlot,
					exitEIP: ts.eip + isa.InstrSlot})
				wcs = append(wcs, 0)
				break
			}
			tr.ops[len(tr.ops)-1].next = uint32(len(tr.ops))
			if nxt.block == nil {
				tr.ops[len(tr.ops)-1].next = uint32(nxt.idx)
				break
			}
			cur = nxt.block
			continue
		}
		if !m.traceVerifySlot(ts) {
			tr.ops = append(tr.ops, traceOp{code: opExit, eip: ts.eip, exitEIP: ts.eip})
			wcs = append(wcs, 0)
			break
		}
		stop := m.appendTraceTerminal(tr, cur, blockStart, nblocks)
		if tr.ops[len(tr.ops)-1].code == opExit {
			wcs = append(wcs, 0)
		} else {
			wcs = append(wcs, worstCharge(ts.ins, m.Model))
		}
		if stop.block == nil {
			break
		}
		cur = stop.block
	}
	if !traceUseful(tr) {
		b.traceFailed = true
		return
	}
	// Mark in-trace branch targets as page heads: an op reached by a
	// non-linear transfer cannot prove its page was touched earlier in
	// this dispatch by its linear predecessor, so it takes the full
	// per-dispatch check (which is counting-identical to Step's fetch
	// check whether it hits or walks).
	for i := range tr.ops {
		op := &tr.ops[i]
		switch op.code {
		case opJmp, opCall, opJcc:
			tr.ops[op.next].flags |= opFlagPageHead
		default:
			if op.next != 0 && int(op.next) != i+1 {
				tr.ops[op.next].flags |= opFlagPageHead
			}
		}
	}
	// Linear page transitions and the entry are page heads too. Exits
	// and non-linear successors get their dispatch bits.
	for i := range tr.ops {
		op := &tr.ops[i]
		if i == 0 || op.lin>>mem.PageShift != tr.ops[i-1].lin>>mem.PageShift {
			op.flags |= opFlagPageHead
		}
		if op.code == opExit {
			op.flags |= opFlagExit
		} else if int(op.next) != i+1 {
			op.flags |= opFlagJump
		}
	}
	tr.wc = cycles.NewPrefix(len(tr.ops))
	for i := range tr.ops {
		wc := wcs[i]
		if tr.ops[i].flags&opFlagPageHead != 0 {
			wc += tlbMiss
		}
		tr.wc = tr.wc.Append(wc)
	}
	m.registerTrace(tr)
}

// traceUseful reports whether the built op list makes progress: at
// least one retiring op, and the entry op itself retires (a trace whose
// first op is an exit would commit without advancing — an infinite
// dispatch loop).
func traceUseful(tr *trace) bool {
	return len(tr.ops) > 0 && tr.ops[0].code != opExit
}

// traceTarget is a continuation: either a cached block to fuse next or
// an op index (an internal join / loop back-edge).
type traceTarget struct {
	block *codeBlock
	idx   int
}

// traceCont resolves a continuation at linear target: an already-fused
// op index, a cached successor block under the entry block's (gen, cs)
// tag that still fits, or done (leave the trace). nblocks counts blocks
// fused so far. It moves no counters.
func (m *Machine) traceCont(tr *trace, blockStart map[uint32]int, target uint32, nblocks int) (traceTarget, bool) {
	if target == tr.entry.lin {
		return traceTarget{idx: 0}, false
	}
	if j, ok := blockStart[target]; ok {
		return traceTarget{idx: j}, false
	}
	succ := m.blocks[blockIndex(target)]
	if succ == nil || succ.lin != target || succ.gen != tr.entry.gen || succ.cs != tr.entry.cs ||
		nblocks >= maxTraceBlocks ||
		len(tr.ops)+len(succ.slots)+2 > maxTraceOps {
		return traceTarget{}, true
	}
	return traceTarget{block: succ}, false
}

// traceVerifySlot checks that a slot's build-time physical fetch
// address still matches the live translation. Fusing a stale slot
// would execute the stale decode where Step would fetch the live
// instruction, so the trace must stop before it.
func (m *Machine) traceVerifySlot(s *blockSlot) bool {
	pp, ok := m.MMU.PeekPage(s.lin)
	return ok && pp == s.pa
}

// appendTraceTerminal fuses a block's terminal control transfer. It
// returns the block to continue fusing at, or a zero target when the
// trace is complete. The terminal slot has already been verified
// against the live translation.
func (m *Machine) appendTraceTerminal(tr *trace, cur *codeBlock, blockStart map[uint32]int, nblocks int) traceTarget {
	s := &cur.slots[len(cur.slots)-1]
	ins := s.ins
	model := m.Model
	fall := s.eip + isa.InstrSlot
	switch {
	case ins.Op == isa.JMP && ins.Dst.Kind == isa.KindImm:
		target := uint32(ins.Dst.Imm)
		c := model.Cost(cycles.JmpNear)
		nxt, done := m.traceCont(tr, blockStart, cur.base+target, nblocks)
		if done {
			tr.ops = append(tr.ops, m.newTraceOp(opJmpExit, s, c, func(op *traceOp) {
				op.exitEIP = target
			}))
			return traceTarget{}
		}
		op := m.newTraceOp(opJmp, s, c, func(op *traceOp) {
			op.next = uint32(len(tr.ops) + 1)
			if nxt.block == nil {
				op.next = uint32(nxt.idx)
			}
		})
		tr.ops = append(tr.ops, op)
		return nxt

	case ins.Op.IsBranch():
		target := uint32(ins.Dst.Imm)
		cT := model.Cost(cycles.JccTaken)
		cN := model.Cost(cycles.JccNotTaken)
		// Prefer fusing the backward edge (the loop): a taken target at
		// or before this block is a back-edge. Forward branches prefer
		// the fall-through (the straight-line hot path). The unpreferred
		// direction is still tried when the preferred one can't fuse.
		takenLin, fallLin := cur.base+target, cur.end
		order := [2]bool{true, false} // true = taken
		if takenLin > cur.lin {
			order = [2]bool{false, true}
		}
		for _, dir := range order {
			lin := fallLin
			if dir {
				lin = takenLin
			}
			nxt, done := m.traceCont(tr, blockStart, lin, nblocks)
			if done {
				continue
			}
			op := m.newTraceOp(opJcc, s, 0, func(op *traceOp) {
				op.sub = ins.Op
				op.follow = dir
				op.next = uint32(len(tr.ops) + 1)
				if nxt.block == nil {
					op.next = uint32(nxt.idx)
				}
				if dir {
					op.cost, op.alt = cT, cN
					op.exitEIP = fall
				} else {
					op.cost, op.alt = cN, cT
					op.exitEIP = target
				}
			})
			tr.ops = append(tr.ops, op)
			return nxt
		}
		tr.ops = append(tr.ops, m.newTraceOp(opJccExit, s, 0, func(op *traceOp) {
			op.sub = ins.Op
			op.cost, op.alt = cT, cN
			op.imm = target
			op.exitEIP = fall
		}))
		return traceTarget{}

	case ins.Op == isa.CALL && ins.Dst.Kind == isa.KindImm:
		target := uint32(ins.Dst.Imm)
		c := model.Cost(cycles.CallNear)
		nxt, done := m.traceCont(tr, blockStart, cur.base+target, nblocks)
		if done {
			tr.ops = append(tr.ops, m.newTraceOp(opCallExit, s, c, func(op *traceOp) {
				op.exitEIP = target
			}))
			return traceTarget{}
		}
		op := m.newTraceOp(opCall, s, c, func(op *traceOp) {
			op.next = uint32(len(tr.ops) + 1)
			if nxt.block == nil {
				op.next = uint32(nxt.idx)
			}
		})
		tr.ops = append(tr.ops, op)
		return nxt

	case ins.Op == isa.RET:
		c := model.Cost(cycles.RetNear)
		tr.ops = append(tr.ops, m.newTraceOp(opRet, s, c, func(op *traceOp) {
			if ins.Dst.Kind == isa.KindImm {
				op.imm = uint32(ins.Dst.Imm)
			}
		}))
		return traceTarget{}
	}
	// Indirect jmp/call, far transfers, HLT: exit before the terminal.
	tr.ops = append(tr.ops, traceOp{code: opExit, eip: s.eip, exitEIP: s.eip})
	return traceTarget{}
}

// newTraceOp builds a traceOp pre-filled with the slot's addresses and
// charge, then applies fill.
func (m *Machine) newTraceOp(code uint8, s *blockSlot, cost float64, fill func(*traceOp)) traceOp {
	op := traceOp{code: code, eip: s.eip, lin: s.lin, pa: s.pa, cost: cost}
	if fill != nil {
		fill(&op)
	}
	return op
}

// bindTraceMem fills a traceOp's memory-operand fields from o.
func bindTraceMem(op *traceOp, o *isa.Operand) {
	op.base = uint8(o.Base)
	op.ix = uint8(o.Index)
	op.scale = o.Scale
	op.disp = uint32(o.Disp)
	op.useSS = o.Base == isa.EBP || o.Base == isa.ESP
}

// appendTraceOp fuses one non-terminal (straight-line) instruction,
// verifying its build-time translation first. Returns false when the
// instruction cannot be fused; the caller then ends the trace with an
// exit before it.
func (m *Machine) appendTraceOp(tr *trace, cur *codeBlock, idx int) bool {
	s := &cur.slots[idx]
	if !m.traceVerifySlot(s) {
		return false
	}
	ins := s.ins
	model := m.Model
	var op traceOp
	op.eip, op.lin, op.pa = s.eip, s.lin, s.pa
	op.size = ins.Size
	if op.size == 0 {
		op.size = 4
	}
	op.next = uint32(len(tr.ops) + 1)

	switch ins.Op {
	case isa.NOP:
		op.code = opNop
		op.cost = model.Cost(cycles.Nop)

	case isa.MOV:
		op.cost = model.Cost(costKind(ins))
		switch {
		case ins.Dst.Kind == isa.KindReg && ins.Src.Kind == isa.KindImm:
			op.code = opMovRI
			op.dst = uint8(ins.Dst.Reg)
			op.imm = uint32(ins.Src.Imm)
			if op.size == 1 {
				op.imm &= 0xFF
			}
		case ins.Dst.Kind == isa.KindReg && ins.Src.Kind == isa.KindReg:
			op.code = opMovRR
			if op.size == 1 {
				op.code = opMovRRB
			}
			op.dst = uint8(ins.Dst.Reg)
			op.src = uint8(ins.Src.Reg)
		case ins.Dst.Kind == isa.KindReg: // load
			op.code = opMovLoad
			op.dst = uint8(ins.Dst.Reg)
			bindTraceMem(&op, &ins.Src)
		case ins.Src.Kind == isa.KindReg: // store
			op.code = opMovStoreR
			op.src = uint8(ins.Src.Reg)
			bindTraceMem(&op, &ins.Dst)
		case ins.Src.Kind == isa.KindImm:
			op.code = opMovStoreI
			op.imm = uint32(ins.Src.Imm)
			bindTraceMem(&op, &ins.Dst)
		default: // mem <- mem does not assemble
			return false
		}

	case isa.LEA:
		op.code = opLea
		op.cost = model.Cost(cycles.Lea)
		op.dst = uint8(ins.Dst.Reg)
		bindTraceMem(&op, &ins.Src)

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST:
		op.sub = ins.Op
		op.cost = model.Cost(costKind(ins))
		switch {
		case ins.Dst.Kind == isa.KindReg && ins.Src.Kind == isa.KindReg:
			op.code = opAluRR
			op.dst = uint8(ins.Dst.Reg)
			op.src = uint8(ins.Src.Reg)
		case ins.Dst.Kind == isa.KindReg && ins.Src.Kind == isa.KindImm:
			op.code = opAluRI
			op.dst = uint8(ins.Dst.Reg)
			op.imm = uint32(ins.Src.Imm)
		case ins.Dst.Kind == isa.KindReg && ins.Src.Kind == isa.KindMem:
			op.code = opAluRM
			op.dst = uint8(ins.Dst.Reg)
			bindTraceMem(&op, &ins.Src)
		case ins.Dst.Kind == isa.KindMem && ins.Src.Kind == isa.KindReg:
			op.code = opAluMR
			op.src = uint8(ins.Src.Reg)
			bindTraceMem(&op, &ins.Dst)
		case ins.Dst.Kind == isa.KindMem && ins.Src.Kind == isa.KindImm:
			op.code = opAluMI
			op.imm = uint32(ins.Src.Imm)
			bindTraceMem(&op, &ins.Dst)
		default:
			return false
		}

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		op.sub = ins.Op
		op.cost = model.Cost(costKind(ins))
		switch ins.Dst.Kind {
		case isa.KindReg:
			op.code = opUnR
			op.dst = uint8(ins.Dst.Reg)
		case isa.KindMem:
			op.code = opUnM
			bindTraceMem(&op, &ins.Dst)
		default:
			return false
		}

	case isa.SHL, isa.SHR, isa.SAR:
		op.sub = ins.Op
		op.cost = model.Cost(costKind(ins))
		op.imm = uint32(ins.Src.Imm) & 31
		switch ins.Dst.Kind {
		case isa.KindReg:
			op.code = opShR
			op.dst = uint8(ins.Dst.Reg)
		case isa.KindMem:
			op.code = opShM
			bindTraceMem(&op, &ins.Dst)
		default:
			return false
		}

	case isa.IMUL:
		op.cost = model.Cost(cycles.Mul)
		op.dst = uint8(ins.Dst.Reg)
		switch ins.Src.Kind {
		case isa.KindReg:
			op.code = opImulRR
			op.src = uint8(ins.Src.Reg)
		case isa.KindImm:
			op.code = opImulRI
			op.imm = uint32(ins.Src.Imm)
		case isa.KindMem:
			op.code = opImulRM
			bindTraceMem(&op, &ins.Src)
		default:
			return false
		}

	case isa.XCHG:
		op.cost = model.Cost(cycles.Xchg)
		switch {
		case ins.Dst.Kind == isa.KindReg && ins.Src.Kind == isa.KindReg:
			op.code = opXchgRR
			op.dst = uint8(ins.Dst.Reg)
			op.src = uint8(ins.Src.Reg)
		case ins.Dst.Kind == isa.KindReg && ins.Src.Kind == isa.KindMem:
			op.code = opXchgRM
			op.dst = uint8(ins.Dst.Reg)
			bindTraceMem(&op, &ins.Src)
		case ins.Dst.Kind == isa.KindMem && ins.Src.Kind == isa.KindReg:
			op.code = opXchgMR
			op.src = uint8(ins.Src.Reg)
			bindTraceMem(&op, &ins.Dst)
		default: // mem <-> mem would need four probes; not fused
			return false
		}

	case isa.PUSH:
		op.cost = model.Cost(costKind(ins))
		switch ins.Dst.Kind {
		case isa.KindReg:
			op.code = opPushR
			op.src = uint8(ins.Dst.Reg)
		case isa.KindImm:
			op.code = opPushI
			op.imm = uint32(ins.Dst.Imm)
		case isa.KindMem:
			op.code = opPushM
			bindTraceMem(&op, &ins.Dst)
		default:
			return false
		}

	case isa.POP:
		op.cost = model.Cost(costKind(ins))
		switch ins.Dst.Kind {
		case isa.KindReg:
			op.code = opPopR
			op.dst = uint8(ins.Dst.Reg)
		case isa.KindMem:
			op.code = opPopM
			bindTraceMem(&op, &ins.Dst)
		default:
			return false
		}

	default:
		// HLT, far transfers, branches (terminals, handled by
		// appendTraceTerminal) and unimplemented opcodes are not fused.
		return false
	}

	tr.ops = append(tr.ops, op)
	return true
}
