package cpu

import (
	"encoding/binary"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

const noReg = uint8(isa.NoReg)

// traceCond evaluates a Jcc predicate on the trace's local flags;
// mirrors Machine.cond exactly.
func traceCond(sub isa.Op, zf, sf, cf, of bool) bool {
	switch sub {
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

// aluCF computes a binary ALU result with its CF/OF effects; mirrors
// Machine.binop exactly. SF/ZF and the byte mask are applied by the
// caller on the raw result, as there.
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

// fastR replays this op's read translation from its dispatch-scoped
// inline cache (traceOp.fsR..frameR): a live seq tag plus a page match
// mean the warm TranslateBatched outcome is guaranteed to repeat, so
// the replay performs — and counts — exactly what that path would: the
// identical limit check and one batched TLB hit. Every miss (first use
// this dispatch, page crossed, limit violated) reports !ok having
// counted nothing, and the caller takes TranslateBatched live, which
// does and counts everything itself; slowR then refills the cache. The
// split exists so this hit path inlines into runTrace's dispatch loop.
func (op *traceOp) fastR(off, size, seq uint32, batch *uint64) (uint32, bool) {
	if op.fsR != seq {
		return 0, false
	}
	lin := op.segBaseR + off
	if lin&^uint32(mem.PageMask) != op.vpageR {
		return 0, false
	}
	end := off + size - 1
	if end < off || end > op.segLimitR {
		return 0, false
	}
	*batch++
	return op.frameR | (lin & uint32(mem.PageMask)), true
}

// fastW is fastR over the write-side cache.
func (op *traceOp) fastW(off, size, seq uint32, batch *uint64) (uint32, bool) {
	if op.fsW != seq {
		return 0, false
	}
	lin := op.segBaseW + off
	if lin&^uint32(mem.PageMask) != op.vpageW {
		return 0, false
	}
	end := off + size - 1
	if end < off || end > op.segLimitW {
		return 0, false
	}
	*batch++
	return op.frameW | (lin & uint32(mem.PageMask)), true
}

// slowR is the fast-path miss handler: the live TranslateBatched with
// this op's read probe and page slot, refilling the inline cache on
// success.
func (m *Machine) slowR(op *traceOp, sel mmu.Selector, off, size uint32, cpl int, seq uint32, batch *uint64) (uint32, *mmu.Fault) {
	pa, f := m.MMU.TranslateBatched(&op.probeR, sel, off, size, mmu.Read, cpl, &op.pcR, seq, batch)
	if f == nil {
		op.segBaseR, op.segLimitR = op.probeR.Base(), op.probeR.Limit()
		op.vpageR = (op.segBaseR + off) &^ uint32(mem.PageMask)
		op.frameR = pa &^ uint32(mem.PageMask)
		op.fsR = seq
	}
	return pa, f
}

// slowW is slowR over the write-side probe, slot and cache.
func (m *Machine) slowW(op *traceOp, sel mmu.Selector, off, size uint32, cpl int, seq uint32, batch *uint64) (uint32, *mmu.Fault) {
	pa, f := m.MMU.TranslateBatched(&op.probeW, sel, off, size, mmu.Write, cpl, &op.pcW, seq, batch)
	if f == nil {
		op.segBaseW, op.segLimitW = op.probeW.Base(), op.probeW.Limit()
		op.vpageW = (op.segBaseW + off) &^ uint32(mem.PageMask)
		op.frameW = pa &^ uint32(mem.PageMask)
		op.fsW = seq
	}
	return pa, f
}

// cachedR reads size bytes (1, or 4 as a little-endian dword) at pa
// through the op's dispatch-scoped frame cache; the hit path is a
// page-match compare and one load, inlined into the dispatch loop. The
// bytes read are exactly what Physical.Read8/Read32 would return: the
// cached pointer is the frame an uncached walk would resolve to (see
// traceOp's cache invariant).
func (op *traceOp) cachedR(pa, seq, size uint32) (uint32, bool) {
	// One unsigned compare covers page match AND no-straddle: d is the
	// in-page offset iff pa lands on the cached page, and ≥ PageSize
	// (or wrapped-huge) otherwise. The slow path lives in a separate
	// function because a call expression alone costs most of the inline
	// budget; this hit path must inline into the dispatch loop.
	if d := pa - op.fpageR; op.msR == seq && d <= mem.PageSize-size {
		if size == 1 {
			return uint32(op.memR[d]), true
		}
		return binary.LittleEndian.Uint32(op.memR[d : d+4]), true
	}
	return 0, false
}

// loadSlow is cachedR's miss path: read via the live frame walk, and
// pin the frame for the rest of the dispatch when this Physical owns
// it exclusively (a shared frame could be COW-replaced by a later
// write, so it is read but never cached). Straddling dword reads keep
// Read32's byte-wise assembly.
func (op *traceOp) loadSlow(phys *mem.Physical, pa, seq, size uint32) uint32 {
	off := pa & uint32(mem.PageMask)
	if off > mem.PageSize-size {
		return phys.Read32(pa)
	}
	f, stable := phys.FrameViewStable(pa)
	if stable {
		op.memR, op.fpageR, op.msR = f, pa&^uint32(mem.PageMask), seq
	}
	if size == 1 {
		return uint32(f[off])
	}
	return binary.LittleEndian.Uint32(f[off : off+4])
}

// cachedW writes the low size bytes of v (1, or 4 as a little-endian
// dword) at pa through the op's dispatch-scoped frame cache; see
// cachedR.
func (op *traceOp) cachedW(pa, seq, size, v uint32) bool {
	// Single-compare page-and-straddle check; see cachedR.
	if d := pa - op.fpageW; op.msW == seq && d <= mem.PageSize-size {
		if size == 1 {
			op.memW[d] = byte(v)
		} else {
			binary.LittleEndian.PutUint32(op.memW[d:d+4], v)
		}
		return true
	}
	return false
}

// storeSlow is cachedW's miss path: the full COW write fault
// (FrameMut), after which the frame is exclusively owned and safe to
// pin for the rest of the dispatch. Straddling dword writes keep
// Write32's byte-wise split.
func (op *traceOp) storeSlow(phys *mem.Physical, pa, seq, size, v uint32) {
	off := pa & uint32(mem.PageMask)
	if off > mem.PageSize-size {
		phys.Write32(pa, v)
		return
	}
	f := phys.FrameMut(pa)
	op.memW, op.fpageW, op.msW = f, pa&^uint32(mem.PageMask), seq
	if size == 1 {
		f[off] = byte(v)
	} else {
		binary.LittleEndian.PutUint32(f[off:off+4], v)
	}
}

// prove runs the deadline proof from op boundary i at effective clock
// eff < deadline. The slack is what the worst-case charge of ops [i,
// nops) leaves before the deadline. When it is positive, every later
// op boundary on the linear run is proven short of the deadline, and
// it stays so along any path whose back-edges together spend less
// worst-case charge than the slack: the horizon is the whole trace.
// Otherwise the horizon is the worst-case prefix's
// (cycles.Prefix.Horizon), and the non-positive slack makes every
// back-edge re-check.
// cycles.Model.BatchSafe keeps every charge a multiple of 0.5, so the
// slack and what back-edges spend from it are exact.
func (tr *trace) prove(eff, deadline float64, i int) (int, float64) {
	nops := len(tr.ops)
	slack := deadline - eff - (tr.wc[nops] - tr.wc[i])
	if slack > 0 {
		return nops, slack
	}
	return tr.wc.Horizon(eff, deadline, i, nops), slack
}

// runTrace executes a trace superblock. It keeps the simulated
// registers and flags in locals, accumulates cycle charges and
// guaranteed TLB-hit counts locally, and commits everything to the
// machine exactly once — at the side exit, or at the deoptimization
// point with the architectural state execute would have left. It
// returns a stop result (the caller owns Instructions) and the number
// of instructions retired.
func (m *Machine) runTrace(tr *trace, remaining uint64) (*RunResult, uint64) {
	// Entry deadline check, mirroring runBlock's block-entry check: if
	// the hook ran and redirected execution, invalidated the entry
	// block or this trace, or performed a paging event, finish one step
	// uncached and let Run re-dispatch from live state.
	ticking := m.OnTick != nil && m.TickCycles > 0
	if ticking {
		tgen := m.MMU.TransGen()
		stop, ticked := m.tickCheck()
		if stop != nil {
			return stop, 0
		}
		if ticked {
			if m.EIP != tr.entryEIP || m.CS != tr.cs ||
				m.blocks[blockIndex(tr.entryLin)] != tr.entry || tr.entry.trace != tr ||
				tgen != m.MMU.TransGen() {
				stop, done := m.fetchExec()
				var n uint64
				if done {
					n = 1
				}
				return stop, n
			}
		}
	}
	m.trStats.Dispatches++

	// Per-dispatch sequence for the fetch-check and page-slot tags. On
	// wrap, stale tags from 2^32 dispatches ago could alias, so sweep
	// them; the sweep preserves correctness, not just accounting — a
	// false fseq match would skip the check that validates op.pa.
	seq := tr.seq + 1
	if seq == 0 {
		for i := range tr.ops {
			tr.ops[i].fseq = 0
			tr.ops[i].pcR = mmu.PageSlot{}
			tr.ops[i].pcW = mmu.PageSlot{}
			tr.ops[i].fsR, tr.ops[i].fsW = 0, 0
			tr.ops[i].msR, tr.ops[i].msW = 0, 0
		}
		seq = 1
	}
	tr.seq = seq

	// Hot architectural state in locals. CS/DS/SS and the CPL cannot
	// change mid-trace (no fused instruction writes a segment register,
	// and far transfers are never fused), so they are loop invariants.
	regs := m.Regs
	zf, sf, cf, of := m.Flags.ZF, m.Flags.SF, m.Flags.CF, m.Flags.OF
	cs, ds, ss := m.CS, m.DS, m.SS
	cpl := m.CPL()
	phys := m.Phys
	mm := m.MMU
	ops := tr.ops
	nops := len(ops)

	var accum float64 // batched cycle charges
	var batch uint64  // TLB hits observed by live batched checks
	var n uint64      // instructions retired this dispatch
	var full uint64   // fetches that took the full page check

	// Instruction budget as a limit (0 = unlimited), checked before each
	// op executes so exactly `remaining` instructions retire — the same
	// truncation point as runBlock's per-block limit.
	limit := remaining
	if limit == 0 {
		limit = math.MaxUint64
	}

	// Deadline proof (see trace.prove): ops with index below nextCheck
	// provably cannot cross the tick deadline. Past it, a precise check
	// against clock+accum runs at each op boundary. While slack is
	// positive the proof covers the whole trace, and a back-edge spends
	// its worst-case charge from it instead of re-proving; an exhausted
	// slack forces a precise check at the back-edge's target. With no
	// tick armed, nextCheck is nops and slack infinite, so no check
	// ever runs.
	wc := tr.wc
	deadline := m.nextTick
	nextCheck, slack := nops, math.Inf(1)
	if ticking {
		nextCheck, slack = tr.prove(m.Clock.Cycles(), deadline, 0)
	}

	var stop *RunResult
	var fault *mmu.Fault // a data access faulted, after its fetch passed
	var ceip uint32      // EIP to commit
	var livePA uint32    // deopt-page: live physical fetch address
	var pageOp *traceOp  // deopt-page: the op whose frame moved

	i := 0
loop:
	for {
		op := &ops[i]

		if n >= limit {
			ceip = op.eip
			m.trStats.DeoptBudget++
			break loop
		}

		// The rare pre-op work, in order: a side exit before an
		// untraceable instruction, the precise deadline check, and the
		// page-level fetch check. Every other executed fetch is a
		// guaranteed TLB hit, counted at commit.
		if op.flags&(opFlagExit|opFlagPageHead) != 0 || i >= nextCheck {
			if op.flags&opFlagExit != 0 {
				ceip = op.exitEIP
				m.trStats.SideExits++
				break loop
			}
			if i >= nextCheck {
				eff := m.Clock.Cycles() + accum
				if eff >= deadline {
					// Deadline reached at this op boundary: deoptimize.
					// The commit lands the clock on eff and EIP here, so
					// Run's re-dispatch fires the hook at the identical
					// point the tier-2 mid-block check would have.
					ceip = op.eip
					m.trStats.DeoptTick++
					break loop
				}
				nextCheck, slack = tr.prove(eff, deadline, i)
			}
			// Full fetch check (charged, counted, faulting) once per
			// dispatch at page heads.
			if op.flags&opFlagPageHead != 0 && op.fseq != seq {
				pa, f := mm.CheckPageBatched(op.lin, mmu.Execute, cpl, cs, op.eip, &batch)
				if f != nil {
					stop = &RunResult{Reason: StopFault, Fault: f, Err: f}
					ceip = op.eip
					m.trStats.DeoptFault++
					break loop
				}
				if pa != op.pa {
					// The mapping changed under the trace (honoured
					// lazily, as on hardware): commit, then execute what
					// the live translation holds — tier 2's substitution
					// arm.
					ceip = op.eip
					livePA = pa
					pageOp = op
					m.trStats.DeoptPage++
					break loop
				}
				op.fseq = seq
				full++
			}
		}

		// Charge first, then access — execute's order.
		accum += op.cost

		switch op.code {
		case opNop:

		case opMovRI:
			regs[op.dst] = op.imm
		case opMovRR:
			regs[op.dst] = regs[op.src]
		case opMovRRB:
			regs[op.dst] = regs[op.src] & 0xFF

		case opLea:
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			regs[op.dst] = off

		case opMovLoad:
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			pa, ok := op.fastR(off, uint32(op.size), seq, &batch)
			if !ok {
				var f *mmu.Fault
				if pa, f = m.slowR(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			r, rok := op.cachedR(pa, seq, uint32(op.size))
			if !rok {
				r = op.loadSlow(phys, pa, seq, uint32(op.size))
			}
			regs[op.dst] = r

		case opMovStoreR, opMovStoreI:
			v := op.imm
			if op.code == opMovStoreR {
				v = regs[op.src]
			}
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			pa, ok := op.fastW(off, uint32(op.size), seq, &batch)
			if !ok {
				var f *mmu.Fault
				if pa, f = m.slowW(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			if !op.cachedW(pa, seq, uint32(op.size), v) {
				op.storeSlow(phys, pa, seq, uint32(op.size), v)
			}

		case opAluRR, opAluRI:
			a := regs[op.dst]
			b := op.imm
			if op.code == opAluRR {
				b = regs[op.src]
			}
			r, ncf, nof := aluCF(op.sub, a, b)
			cf, of = ncf, nof
			if op.size == 1 {
				r &= 0xFF
				sf = r&0x80 != 0
			} else {
				sf = r&0x8000_0000 != 0
			}
			zf = r == 0
			if op.sub != isa.CMP && op.sub != isa.TEST {
				regs[op.dst] = r // byte results already masked
			}

		case opAluRM:
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			pa, ok := op.fastR(off, uint32(op.size), seq, &batch)
			if !ok {
				var f *mmu.Fault
				if pa, f = m.slowR(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			b, rok := op.cachedR(pa, seq, uint32(op.size))
			if !rok {
				b = op.loadSlow(phys, pa, seq, uint32(op.size))
			}
			r, ncf, nof := aluCF(op.sub, regs[op.dst], b)
			cf, of = ncf, nof
			if op.size == 1 {
				r &= 0xFF
				sf = r&0x80 != 0
			} else {
				sf = r&0x8000_0000 != 0
			}
			zf = r == 0
			if op.sub != isa.CMP && op.sub != isa.TEST {
				regs[op.dst] = r
			}

		case opAluMR, opAluMI:
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			paR, ok := op.fastR(off, uint32(op.size), seq, &batch)
			if !ok {
				var f *mmu.Fault
				if paR, f = m.slowR(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			a, rok := op.cachedR(paR, seq, uint32(op.size))
			if !rok {
				a = op.loadSlow(phys, paR, seq, uint32(op.size))
			}
			b := op.imm
			if op.code == opAluMR {
				b = regs[op.src]
			}
			r, ncf, nof := aluCF(op.sub, a, b)
			cf, of = ncf, nof
			if op.size == 1 {
				r &= 0xFF
				sf = r&0x80 != 0
			} else {
				sf = r&0x8000_0000 != 0
			}
			zf = r == 0
			if op.sub != isa.CMP && op.sub != isa.TEST {
				paW, ok := op.fastW(off, uint32(op.size), seq, &batch)
				if !ok {
					var f *mmu.Fault
					if paW, f = m.slowW(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
						fault, ceip = f, op.eip
						break loop
					}
				}
				if !op.cachedW(paW, seq, uint32(op.size), r) {
					op.storeSlow(phys, paW, seq, uint32(op.size), r)
				}
			}

		case opUnR:
			a := regs[op.dst]
			var r uint32
			switch op.sub {
			case isa.INC:
				r = a + 1
				of = r == 0x8000_0000
			case isa.DEC:
				r = a - 1
				of = a == 0x8000_0000
			case isa.NEG:
				r = -a
				cf = a != 0
			case isa.NOT:
				// NOT does not affect flags.
				if op.size == 1 {
					regs[op.dst] = ^a & 0xFF
				} else {
					regs[op.dst] = ^a
				}
				goto retired
			}
			if op.size == 1 {
				r &= 0xFF
				sf = r&0x80 != 0
			} else {
				sf = r&0x8000_0000 != 0
			}
			zf = r == 0
			regs[op.dst] = r

		case opUnM:
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			paR, ok := op.fastR(off, uint32(op.size), seq, &batch)
			if !ok {
				var f *mmu.Fault
				if paR, f = m.slowR(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			a, rok := op.cachedR(paR, seq, uint32(op.size))
			if !rok {
				a = op.loadSlow(phys, paR, seq, uint32(op.size))
			}
			var r uint32
			flagless := false
			switch op.sub {
			case isa.INC:
				r = a + 1
				of = r == 0x8000_0000
			case isa.DEC:
				r = a - 1
				of = a == 0x8000_0000
			case isa.NEG:
				r = -a
				cf = a != 0
			case isa.NOT:
				r = ^a
				flagless = true
			}
			if !flagless {
				if op.size == 1 {
					r &= 0xFF
					sf = r&0x80 != 0
				} else {
					sf = r&0x8000_0000 != 0
				}
				zf = r == 0
			}
			paW, ok2 := op.fastW(off, uint32(op.size), seq, &batch)
			if !ok2 {
				var f *mmu.Fault
				if paW, f = m.slowW(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			if !op.cachedW(paW, seq, uint32(op.size), r) {
				op.storeSlow(phys, paW, seq, uint32(op.size), r)
			}

		case opShR:
			a := regs[op.dst]
			k := op.imm
			var r uint32
			switch op.sub {
			case isa.SHL:
				r = a << k
				if k > 0 {
					cf = a&(1<<(32-k)) != 0
				}
			case isa.SHR:
				r = a >> k
				if k > 0 {
					cf = a&(1<<(k-1)) != 0
				}
			case isa.SAR:
				r = uint32(int32(a) >> k)
				if k > 0 {
					cf = a&(1<<(k-1)) != 0
				}
			}
			zf = r == 0
			sf = r&0x8000_0000 != 0
			regs[op.dst] = r

		case opShM:
			// Shifts read and write a dword regardless of Size
			// (compileShift binds size 4).
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			paR, ok := op.fastR(off, 4, seq, &batch)
			if !ok {
				var f *mmu.Fault
				if paR, f = m.slowR(op, sel, off, 4, cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			a, rok := op.cachedR(paR, seq, 4)
			if !rok {
				a = op.loadSlow(phys, paR, seq, 4)
			}
			k := op.imm
			var r uint32
			switch op.sub {
			case isa.SHL:
				r = a << k
				if k > 0 {
					cf = a&(1<<(32-k)) != 0
				}
			case isa.SHR:
				r = a >> k
				if k > 0 {
					cf = a&(1<<(k-1)) != 0
				}
			case isa.SAR:
				r = uint32(int32(a) >> k)
				if k > 0 {
					cf = a&(1<<(k-1)) != 0
				}
			}
			zf = r == 0
			sf = r&0x8000_0000 != 0
			paW, ok2 := op.fastW(off, 4, seq, &batch)
			if !ok2 {
				var f *mmu.Fault
				if paW, f = m.slowW(op, sel, off, 4, cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			if !op.cachedW(paW, seq, 4, r) {
				op.storeSlow(phys, paW, seq, 4, r)
			}

		case opImulRR:
			regs[op.dst] = uint32(int32(regs[op.dst]) * int32(regs[op.src]))
		case opImulRI:
			regs[op.dst] = uint32(int32(regs[op.dst]) * int32(op.imm))
		case opImulRM:
			a := int32(regs[op.dst])
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			// IMUL reads its source as a dword, as execute does.
			pa, ok := op.fastR(off, 4, seq, &batch)
			if !ok {
				var f *mmu.Fault
				if pa, f = m.slowR(op, sel, off, 4, cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			r32, rok := op.cachedR(pa, seq, 4)
			if !rok {
				r32 = op.loadSlow(phys, pa, seq, 4)
			}
			regs[op.dst] = uint32(a * int32(r32))

		case opXchgRR:
			a, b := regs[op.dst], regs[op.src]
			if op.size == 1 {
				regs[op.dst], regs[op.src] = b&0xFF, a&0xFF
			} else {
				regs[op.dst], regs[op.src] = b, a
			}

		case opXchgRM, opXchgMR:
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			paR, ok := op.fastR(off, uint32(op.size), seq, &batch)
			if !ok {
				var f *mmu.Fault
				if paR, f = m.slowR(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			mv, rok := op.cachedR(paR, seq, uint32(op.size))
			if !rok {
				mv = op.loadSlow(phys, paR, seq, uint32(op.size))
			}
			if op.code == opXchgRM {
				// dst reg <-> src mem: reg write first, then mem write,
				// matching execute's dst-then-src write order.
				a := regs[op.dst]
				if op.size == 1 {
					regs[op.dst] = mv & 0xFF
				} else {
					regs[op.dst] = mv
				}
				paW, ok2 := op.fastW(off, uint32(op.size), seq, &batch)
				if !ok2 {
					var f *mmu.Fault
					if paW, f = m.slowW(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
						fault, ceip = f, op.eip
						break loop
					}
				}
				if !op.cachedW(paW, seq, uint32(op.size), a) {
					op.storeSlow(phys, paW, seq, uint32(op.size), a)
				}
			} else {
				// dst mem <-> src reg: mem write first, then reg write.
				rv := regs[op.src]
				paW, ok2 := op.fastW(off, uint32(op.size), seq, &batch)
				if !ok2 {
					var f *mmu.Fault
					if paW, f = m.slowW(op, sel, off, uint32(op.size), cpl, seq, &batch); f != nil {
						fault, ceip = f, op.eip
						break loop
					}
				}
				if !op.cachedW(paW, seq, uint32(op.size), rv) {
					op.storeSlow(phys, paW, seq, uint32(op.size), rv)
				}
				if op.size == 1 {
					regs[op.src] = mv & 0xFF
				} else {
					regs[op.src] = mv
				}
			}

		case opPushR, opPushI:
			v := op.imm
			if op.code == opPushR {
				v = regs[op.src]
			}
			esp := regs[isa.ESP] - 4
			pa, ok := op.fastW(esp, 4, seq, &batch)
			if !ok {
				var f *mmu.Fault
				if pa, f = m.slowW(op, ss, esp, 4, cpl, seq, &batch); f != nil {
					f.Kind = mmu.SS // ESP unchanged, as in Machine.Push
					fault, ceip = f, op.eip
					break loop
				}
			}
			if !op.cachedW(pa, seq, 4, v) {
				op.storeSlow(phys, pa, seq, 4, v)
			}
			regs[isa.ESP] = esp

		case opPushM:
			// PUSH reads its operand as a dword (compileRead size 4).
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			paR, ok := op.fastR(off, 4, seq, &batch)
			if !ok {
				var f *mmu.Fault
				if paR, f = m.slowR(op, sel, off, 4, cpl, seq, &batch); f != nil {
					fault, ceip = f, op.eip
					break loop
				}
			}
			v, rok := op.cachedR(paR, seq, 4)
			if !rok {
				v = op.loadSlow(phys, paR, seq, 4)
			}
			esp := regs[isa.ESP] - 4
			paW, ok2 := op.fastW(esp, 4, seq, &batch)
			if !ok2 {
				var f *mmu.Fault
				if paW, f = m.slowW(op, ss, esp, 4, cpl, seq, &batch); f != nil {
					f.Kind = mmu.SS
					fault, ceip = f, op.eip
					break loop
				}
			}
			if !op.cachedW(paW, seq, 4, v) {
				op.storeSlow(phys, paW, seq, 4, v)
			}
			regs[isa.ESP] = esp

		case opPopR:
			esp := regs[isa.ESP]
			pa, ok := op.fastR(esp, 4, seq, &batch)
			if !ok {
				var f *mmu.Fault
				if pa, f = m.slowR(op, ss, esp, 4, cpl, seq, &batch); f != nil {
					f.Kind = mmu.SS
					fault, ceip = f, op.eip
					break loop
				}
			}
			regs[isa.ESP] = esp + 4
			r32, rok := op.cachedR(pa, seq, 4)
			if !rok {
				r32 = op.loadSlow(phys, pa, seq, 4)
			}
			regs[op.dst] = r32

		case opPopM:
			esp := regs[isa.ESP]
			paR, ok := op.fastR(esp, 4, seq, &batch)
			if !ok {
				var f *mmu.Fault
				if paR, f = m.slowR(op, ss, esp, 4, cpl, seq, &batch); f != nil {
					f.Kind = mmu.SS
					fault, ceip = f, op.eip
					break loop
				}
			}
			v, rok := op.cachedR(paR, seq, 4)
			if !rok {
				v = op.loadSlow(phys, paR, seq, 4)
			}
			regs[isa.ESP] = esp + 4
			sel := ds
			if op.useSS {
				sel = ss
			}
			off := op.disp
			if op.base != noReg {
				off += regs[op.base]
			}
			if op.ix != noReg {
				off += regs[op.ix] * uint32(op.scale)
			}
			paW, ok2 := op.fastW(off, 4, seq, &batch)
			if !ok2 {
				var f *mmu.Fault
				if paW, f = m.slowW(op, sel, off, 4, cpl, seq, &batch); f != nil {
					// x86 restores ESP if the store faults, as in execute.
					regs[isa.ESP] -= 4
					fault, ceip = f, op.eip
					break loop
				}
			}
			if !op.cachedW(paW, seq, 4, v) {
				op.storeSlow(phys, paW, seq, 4, v)
			}

		case opJmp:

		case opJmpExit:
			n++
			ceip = op.exitEIP
			m.trStats.SideExits++
			break loop

		case opJcc:
			if traceCond(op.sub, zf, sf, cf, of) != op.follow {
				accum += op.alt - op.cost // charged op.cost above; actual is alt
				n++
				ceip = op.exitEIP
				m.trStats.SideExits++
				break loop
			}

		case opJccExit:
			taken := traceCond(op.sub, zf, sf, cf, of)
			if taken {
				ceip = op.imm
			} else {
				accum += op.alt - op.cost
				ceip = op.exitEIP
			}
			n++
			m.trStats.SideExits++
			break loop

		case opCall, opCallExit:
			esp := regs[isa.ESP] - 4
			pa, ok := op.fastW(esp, 4, seq, &batch)
			if !ok {
				var f *mmu.Fault
				if pa, f = m.slowW(op, ss, esp, 4, cpl, seq, &batch); f != nil {
					f.Kind = mmu.SS
					fault, ceip = f, op.eip
					break loop
				}
			}
			if !op.cachedW(pa, seq, 4, op.eip+isa.InstrSlot) {
				op.storeSlow(phys, pa, seq, 4, op.eip+isa.InstrSlot)
			}
			regs[isa.ESP] = esp
			if op.code == opCallExit {
				n++
				ceip = op.exitEIP
				m.trStats.SideExits++
				break loop
			}

		case opRet:
			esp := regs[isa.ESP]
			pa, ok := op.fastR(esp, 4, seq, &batch)
			if !ok {
				var f *mmu.Fault
				if pa, f = m.slowR(op, ss, esp, 4, cpl, seq, &batch); f != nil {
					f.Kind = mmu.SS
					fault, ceip = f, op.eip
					break loop
				}
			}
			regs[isa.ESP] = esp + 4 + op.imm
			n++
			r32, rok := op.cachedR(pa, seq, 4)
			if !rok {
				r32 = op.loadSlow(phys, pa, seq, 4)
			}
			ceip = r32
			m.trStats.SideExits++
			break loop
		}

	retired:
		n++
		if op.flags&opFlagJump == 0 {
			i++
			continue
		}
		// Non-linear successor. A forward transfer skips charges the
		// proof already counted, so it stays inside the proof. A
		// back-edge from i to t re-runs ops [t, i] and spends their
		// worst-case charge from the slack; once the slack is spent, a
		// precise check runs at t.
		t := int(op.next)
		if t <= i {
			slack -= wc[i+1] - wc[t]
			if slack <= 0 && t < nextCheck {
				nextCheck = t
			}
		}
		i = t
	}

	// Commit: architectural state, batched charges, batched accounting.
	// Every retired op passed its fetch, and so did an op whose data
	// access faulted; those that did not take the full check were
	// guaranteed TLB hits.
	g := n - full
	if fault != nil {
		stop = &RunResult{Reason: StopFault, Fault: fault, Err: fault}
		m.trStats.DeoptFault++
		g++
	}
	m.Regs = regs
	m.Flags = Flags{ZF: zf, SF: sf, CF: cf, OF: of}
	m.EIP = ceip
	m.Clock.Add(accum)
	m.instret += n
	m.MMU.TLB().AddHits(batch + g)
	m.bcFastFetches += g

	if pageOp != nil {
		// Deopt-page: the frame under pageOp moved. State is committed
		// at the op; now execute what the live translation holds —
		// exactly runBlock's substitution arm — and let Run re-dispatch.
		ins := m.code[livePA]
		if ins == nil {
			f := &mmu.Fault{Kind: mmu.UD, Sel: cs, Off: pageOp.eip, Linear: pageOp.lin,
				Access: mmu.Execute, CPL: cpl, Reason: "no instruction at address"}
			return &RunResult{Reason: StopFault, Fault: f, Err: f}, n
		}
		if f := m.execute(ins); f != nil {
			return &RunResult{Reason: StopFault, Fault: f, Err: f}, n
		}
		m.instret++
		n++
		if m.haltFlag {
			return &RunResult{Reason: StopHalt}, n
		}
		return nil, n
	}
	return stop, n
}
