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
// (tracerun.go). Only the forms hot loops run have micro-ops of their
// own; every other fused instruction is an opExec, which runs the
// reference execute on its decode in place, with the trace's registers
// and flags written back before and reloaded after. The loop keeps only its loop-carried hot values in Go
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
//     TLB-miss walk or an opExec's execute makes directly. This reorders float additions, so
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

// traceOp codes. The trace specialises only the forms the hot loops
// run; every other instruction it fuses is an opExec, which runs the
// reference execute on the slot's decode inside the trace. Ops with
// memory operands carry pre-bound segment probes and dispatch-scoped
// operand caches; ops that can leave the trace carry the side-exit EIP.
const (
	opExit      uint8 = iota // side exit before this address (far or indirect transfer, HLT)
	opExec                   // execute(m.code[pa]) live; with opFlagLast, exit where it left EIP
	opMovRI                  // dst <- imm (byte form pre-masked)
	opMovRR                  // dst <- src, dword
	opLea                    // dst <- effective address
	opAluRR                  // sub: ADD..TEST; dst op= src
	opAluRI                  // dst op= imm
	opUnR                    // sub: INC/DEC/NEG/NOT on reg
	opShR                    // sub: SHL/SHR/SAR on reg, count imm
	opMovLoad                // dst reg <- mem
	opMovStoreR              // mem <- src reg
	opMovStoreI              // mem <- imm
	opPushR                  // push reg
	opPushI                  // push imm
	opPushM                  // push mem
	opPopR                   // pop into reg
	opPopM                   // pop into mem
	opJmp                    // jmp imm, followed in-trace (next)
	opJcc                    // sub: JE..JNS; followed direction in-trace
	opCall                   // call imm, callee followed in-trace
	opRet                    // ret [imm]: always a side exit
)

// traceOp flag bits. The dispatch loop tests the two pre-op bits
// together, so an op with neither pays one byte test for both, and a
// retired op without opFlagJump advances to the next op with no load.
const (
	opFlagExit     uint8 = 1 << iota // code is opExit: side exit before this op
	opFlagPageHead                   // fetch needs a full page check once per dispatch
	opFlagJump                       // a retired op continues at next, not at the following op
	opFlagLast                       // an opExec transfer no continuation was fused for: exit after it
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
	imm      uint32 // immediate / shift count / RET pop
	disp     uint32
	eip      uint32 // segment-relative address of this instruction
	lin      uint32 // linear fetch address
	pa       uint32 // physical fetch address at build time
	next     uint32 // successor op index
	exitEIP  uint32 // side-exit EIP for branch/exit ops
	cost     float64
	alt      float64 // opJcc: cost of the unfollowed direction
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
	blockStart := make(map[uint32]int) // block linear start -> first op index
	for cur, nblocks := b, 1; cur != nil; nblocks++ {
		blockStart[cur.lin] = len(tr.ops)
		tr.lo = min(tr.lo, cur.lin)
		tr.hi = max(tr.hi, cur.end)
		tr.pages |= cur.pages
		next := cur
		for i := range cur.slots {
			s := &cur.slots[i]
			if !m.traceVerifySlot(s) {
				// Fusing a stale slot would execute the stale decode where
				// Step fetches the live instruction: exit before it.
				tr.ops = append(tr.ops, traceOp{code: opExit, eip: s.eip, exitEIP: s.eip})
				next = nil
				break
			}
			if s.ins.Op.TransfersControl() { // only ever the terminal slot
				next = m.appendTraceTerminal(tr, cur, blockStart, nblocks)
				break
			}
			m.appendTraceOp(tr, s)
			if i == len(cur.slots)-1 {
				// Fall-through continuation (length cap or a decode
				// boundary).
				fall := s.eip + isa.InstrSlot
				nxt, done := m.traceCont(tr, blockStart, cur.end, nblocks)
				switch {
				case done: // leave the trace: exit before the next instruction
					tr.ops = append(tr.ops, traceOp{code: opExit, eip: fall, exitEIP: fall})
					next = nil
				case nxt.block == nil:
					tr.ops[len(tr.ops)-1].next = uint32(nxt.idx)
					next = nil
				default:
					next = nxt.block
				}
			}
		}
		cur = next
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
	// and non-linear successors get their dispatch bits. Each op's
	// worst-case charge is its instruction's (an exit retires nothing),
	// plus a fetch walk at a page head.
	tlbMiss := m.Model.Cost(cycles.TLBMiss)
	tr.wc = cycles.NewPrefix(len(tr.ops))
	for i := range tr.ops {
		op := &tr.ops[i]
		if i == 0 || op.lin>>mem.PageShift != tr.ops[i-1].lin>>mem.PageShift {
			op.flags |= opFlagPageHead
		}
		var wc float64
		if op.code == opExit {
			op.flags |= opFlagExit
		} else {
			wc = worstCharge(m.code[op.pa], m.Model)
			if int(op.next) != i+1 {
				op.flags |= opFlagJump
			}
		}
		if op.flags&opFlagPageHead != 0 {
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
// address still matches the live translation.
func (m *Machine) traceVerifySlot(s *blockSlot) bool {
	pp, ok := m.MMU.PeekPage(s.lin)
	return ok && pp == s.pa
}

// appendTraceTerminal fuses a block's terminal control transfer. It
// returns the block to continue fusing at, or nil when the trace is
// complete. The terminal slot has already been verified against the
// live translation. A direct jmp, call or Jcc whose continuation cannot
// be fused becomes an opExec that exits wherever execute sends EIP.
func (m *Machine) appendTraceTerminal(tr *trace, cur *codeBlock, blockStart map[uint32]int, nblocks int) *codeBlock {
	s := &cur.slots[len(cur.slots)-1]
	ins := s.ins
	op := traceOp{code: opExec, flags: opFlagLast, eip: s.eip, lin: s.lin, pa: s.pa}
	// follow points op at its continuation nxt and returns the block to
	// fuse next.
	follow := func(code uint8, nxt traceTarget) *codeBlock {
		op.code, op.flags = code, 0
		op.next = uint32(len(tr.ops) + 1)
		if nxt.block == nil {
			op.next = uint32(nxt.idx)
		}
		tr.ops = append(tr.ops, op)
		return nxt.block
	}
	target := uint32(ins.Dst.Imm)
	switch {
	case (ins.Op == isa.JMP || ins.Op == isa.CALL) && ins.Dst.Kind == isa.KindImm:
		if nxt, done := m.traceCont(tr, blockStart, cur.base+target, nblocks); !done {
			op.cost = m.Model.Cost(costKind(ins))
			if ins.Op == isa.JMP {
				return follow(opJmp, nxt)
			}
			return follow(opCall, nxt)
		}

	case ins.Op.IsBranch():
		// Prefer fusing the backward edge (the loop): a taken target at
		// or before this block is a back-edge. Forward branches prefer
		// the fall-through (the straight-line hot path). The unpreferred
		// direction is still tried when the preferred one can't fuse.
		cT := m.Model.Cost(cycles.JccTaken)
		cN := m.Model.Cost(cycles.JccNotTaken)
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
			op.sub, op.follow = ins.Op, dir
			if dir {
				op.cost, op.alt, op.exitEIP = cT, cN, s.eip+isa.InstrSlot
			} else {
				op.cost, op.alt, op.exitEIP = cN, cT, target
			}
			return follow(opJcc, nxt)
		}

	case ins.Op == isa.RET:
		op.code, op.flags = opRet, 0
		op.cost = m.Model.Cost(costKind(ins))
		if ins.Dst.Kind == isa.KindImm {
			op.imm = target
		}

	default:
		// Indirect jmp/call, far transfers, HLT: exit before the terminal.
		op = traceOp{code: opExit, eip: s.eip, exitEIP: s.eip}
	}
	tr.ops = append(tr.ops, op)
	return nil
}

// bindTraceMem fills a traceOp's memory-operand fields from o.
func bindTraceMem(op *traceOp, o *isa.Operand) {
	op.base = uint8(o.Base)
	op.ix = uint8(o.Index)
	op.scale = o.Scale
	op.disp = uint32(o.Disp)
	op.useSS = o.Base == isa.EBP || o.Base == isa.ESP
}

// appendTraceOp fuses one straight-line instruction whose build-time
// translation has been verified: a specialised op for the forms the
// hot loops run, an opExec for every other form.
func (m *Machine) appendTraceOp(tr *trace, s *blockSlot) {
	ins := s.ins
	op := traceOp{code: opExec, sub: ins.Op, size: ins.Size, eip: s.eip, lin: s.lin, pa: s.pa,
		next: uint32(len(tr.ops) + 1)}
	if op.size == 0 {
		op.size = 4
	}
	dst, src := ins.Dst.Kind, ins.Src.Kind
	switch ins.Op {
	case isa.MOV:
		switch {
		case dst == isa.KindReg && src == isa.KindImm:
			op.code = opMovRI
			op.dst = uint8(ins.Dst.Reg)
			op.imm = uint32(ins.Src.Imm)
			if op.size == 1 {
				op.imm &= 0xFF
			}
		case dst == isa.KindReg && src == isa.KindReg && op.size == 4:
			op.code = opMovRR
			op.dst = uint8(ins.Dst.Reg)
			op.src = uint8(ins.Src.Reg)
		case dst == isa.KindReg && src == isa.KindMem:
			op.code = opMovLoad
			op.dst = uint8(ins.Dst.Reg)
			bindTraceMem(&op, &ins.Src)
		case dst == isa.KindMem && src == isa.KindReg:
			op.code = opMovStoreR
			op.src = uint8(ins.Src.Reg)
			bindTraceMem(&op, &ins.Dst)
		case dst == isa.KindMem && src == isa.KindImm:
			op.code = opMovStoreI
			op.imm = uint32(ins.Src.Imm)
			bindTraceMem(&op, &ins.Dst)
		}

	case isa.LEA:
		op.code = opLea
		op.dst = uint8(ins.Dst.Reg)
		bindTraceMem(&op, &ins.Src)

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST:
		op.dst = uint8(ins.Dst.Reg)
		switch {
		case dst == isa.KindReg && src == isa.KindReg:
			op.code = opAluRR
			op.src = uint8(ins.Src.Reg)
		case dst == isa.KindReg && src == isa.KindImm:
			op.code = opAluRI
			op.imm = uint32(ins.Src.Imm)
		}

	case isa.INC, isa.DEC, isa.NEG, isa.NOT, isa.SHL, isa.SHR, isa.SAR:
		if dst == isa.KindReg {
			op.code = opUnR
			if ins.Op == isa.SHL || ins.Op == isa.SHR || ins.Op == isa.SAR {
				op.code = opShR
				op.imm = uint32(ins.Src.Imm) & 31
			}
			op.dst = uint8(ins.Dst.Reg)
		}

	case isa.PUSH:
		switch dst {
		case isa.KindReg:
			op.code = opPushR
			op.src = uint8(ins.Dst.Reg)
		case isa.KindImm:
			op.code = opPushI
			op.imm = uint32(ins.Dst.Imm)
		case isa.KindMem:
			op.code = opPushM
			bindTraceMem(&op, &ins.Dst)
		}

	case isa.POP:
		switch dst {
		case isa.KindReg:
			op.code = opPopR
			op.dst = uint8(ins.Dst.Reg)
		case isa.KindMem:
			op.code = opPopM
			bindTraceMem(&op, &ins.Dst)
		}
	}
	if op.code != opExec { // an opExec's execute charges live
		op.cost = m.Model.Cost(costKind(ins))
	}
	tr.ops = append(tr.ops, op)
}
