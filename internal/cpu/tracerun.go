package cpu

import (
	"encoding/binary"
	"math"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

const noReg = uint8(isa.NoReg)

// traceRun is one trace dispatch's loop-invariant and rarely written
// state. runTrace keeps only its loop-carried hot values in locals (the
// op index, retired count, accum, regs, seq and batch) and reaches this
// through memory: Go keeps a struct of more than four fields in memory
// rather than splitting it into SSA values, so none of it competes for
// registers at the dispatch loop's merge point.
type traceRun struct {
	mm         *mmu.MMU
	phys       *mem.Physical
	cs, ds, ss mmu.Selector
	cpl        int
	limit      uint64 // instruction budget (MaxUint64: unlimited)
	// Deadline proof (see prove): ops with index below nextCheck
	// provably cannot cross the tick deadline; slack is what back-edges
	// may still spend before a precise check is due.
	nextCheck int
	deadline  float64
	slack     float64
	wc        cycles.Prefix
	full      uint64 // fetches that took the full page check
	hits      uint64 // TLB hits counted by live checks (fetch and data)
	flags     Flags
}

// sel is the segment op's memory operand addresses through: SS when
// its base register is EBP or ESP, DS otherwise.
func (st *traceRun) sel(op *traceOp) mmu.Selector {
	if op.useSS {
		return st.ss
	}
	return st.ds
}

// ea computes op's memory operand's segment offset.
func (op *traceOp) ea(regs *[8]uint32) uint32 {
	off := op.disp
	if op.base != noReg {
		off += regs[op.base]
	}
	if op.ix != noReg {
		off += regs[op.ix] * uint32(op.scale)
	}
	return off
}

// load is the cache's hit path for reading size bytes (1, or 4 as a
// little-endian dword) at segment offset off: a live tag, off on the
// cached page inside span, and a pinned frame. On a miss it reads and
// counts nothing. Small enough to inline into the dispatch loop, which
// counts the hit.
func (c *opCache) load(off, seq, size uint32) (uint32, bool) {
	d := off - c.lo
	if c.seq != seq || d > c.span || c.host == nil {
		return 0, false
	}
	if size == 1 {
		return uint32(c.host[d]), true
	}
	return binary.LittleEndian.Uint32(c.host[d:]), true
}

// store is load's write-side counterpart; a filled write cache always
// has its frame pinned.
func (c *opCache) store(off, seq, size, v uint32) bool {
	d := off - c.lo
	if c.seq != seq || d > c.span {
		return false
	}
	if size == 1 {
		c.host[d] = byte(v)
	} else {
		binary.LittleEndian.PutUint32(c.host[d:], v)
	}
	return true
}

// fill caches the page a successful live translation of an access of
// size at off landed on (pa), under probe p's segment base and limit.
// span stops at the last offset that neither straddles the page nor
// crosses the limit. A page whose first offset lies past the limit (its
// offsets wrap through 2^32) is not cached: every access to it stays
// live.
func (c *opCache) fill(p *mmu.SegProbe, off, size, pa, seq uint32, host *[mem.PageSize]byte) {
	lo := off - (p.Base()+off)&mem.PageMask
	last := p.Limit() - (size - 1) // the access passed, so Limit ≥ size−1
	if lo > last {
		return
	}
	c.seq, c.lo, c.span = seq, lo, min(mem.PageSize-size, last-lo)
	c.frame, c.host = pa&^uint32(mem.PageMask), host
}

// load is the live path of op's memory read: a cached page whose frame
// was shared when cached (one batched TLB hit and a read through the
// frame, pinning it if this Physical now owns it), or the full
// TranslateBatched followed by a refill. Straddling dword reads keep
// Read32's byte-wise assembly and are never cached.
func (st *traceRun) load(op *traceOp, sel mmu.Selector, off, size, seq uint32) (uint32, *mmu.Fault) {
	c := &op.r
	d := off - c.lo
	pa := c.frame | d
	cached := c.seq == seq && d <= c.span
	if cached {
		st.hits++
	} else {
		var f *mmu.Fault
		if pa, f = st.mm.TranslateBatched(&op.probeR, sel, off, size, mmu.Read, st.cpl, &st.hits); f != nil {
			return 0, f
		}
		if pa&mem.PageMask > mem.PageSize-size {
			return st.phys.Read32(pa), nil
		}
	}
	h, stable := st.phys.FrameViewStable(pa)
	host := h
	if !stable {
		host = nil
	}
	if cached {
		c.host = host
	} else {
		c.fill(&op.probeR, off, size, pa, seq, host)
	}
	in := pa & mem.PageMask
	if size == 1 {
		return uint32(h[in]), nil
	}
	return binary.LittleEndian.Uint32(h[in:]), nil
}

// store is the live path of op's memory write: the full TranslateBatched
// and COW write fault (mem.FrameMut), after which the frame is this
// Physical's alone and is pinned by the refill. Straddling dword writes
// keep Write32's byte-wise split and are never cached.
func (st *traceRun) store(op *traceOp, sel mmu.Selector, off, size, seq, v uint32) *mmu.Fault {
	pa, f := st.mm.TranslateBatched(&op.probeW, sel, off, size, mmu.Write, st.cpl, &st.hits)
	if f != nil {
		return f
	}
	in := pa & mem.PageMask
	if in > mem.PageSize-size {
		st.phys.Write32(pa, v)
		return nil
	}
	h := st.phys.FrameMut(pa)
	op.w.fill(&op.probeW, off, size, pa, seq, h)
	if size == 1 {
		h[in] = byte(v)
	} else {
		binary.LittleEndian.PutUint32(h[in:], v)
	}
	return nil
}

// prove runs the deadline proof from op boundary i at effective clock
// eff < deadline, setting nextCheck and slack. The slack is what the
// worst-case charge of ops [i, nops) leaves before the deadline. When
// it is positive, every later op boundary on the linear run is proven
// short of the deadline, and it stays so along any path whose
// back-edges together spend less worst-case charge than the slack: the
// horizon is the whole trace. Otherwise the horizon is the worst-case
// prefix's (cycles.Prefix.Horizon), and the non-positive slack makes
// every back-edge re-check.
// cycles.Model.BatchSafe keeps every charge a multiple of 0.5, so the
// slack and what back-edges spend from it are exact.
func (st *traceRun) prove(eff float64, i int) {
	nops := len(st.wc) - 1
	st.slack = st.deadline - eff - (st.wc[nops] - st.wc[i])
	st.nextCheck = nops
	if st.slack <= 0 {
		st.nextCheck = st.wc.Horizon(eff, st.deadline, i, nops)
	}
}

// runTrace executes a trace superblock. It keeps the simulated
// registers in locals, accumulates cycle charges and guaranteed TLB-hit
// counts locally, and commits everything to the machine exactly once —
// at the side exit, or at the deoptimization point with the
// architectural state execute would have left. It returns a stop
// result (the caller owns Instructions) and the number of instructions
// retired.
func (m *Machine) runTrace(tr *trace, remaining uint64) (*RunResult, uint64) {
	// Entry deadline check, the one Step makes before this instruction:
	// if the hook ran and redirected execution, invalidated the entry
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
			b := tr.entry
			if m.EIP != b.slots[0].eip || m.CS != b.cs ||
				m.blocks[blockIndex(b.lin)] != b || b.trace != tr ||
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

	// Per-dispatch sequence for the fetch-check and operand-cache tags.
	// On wrap, stale tags from 2^32 dispatches ago could alias, so sweep
	// them; the sweep preserves correctness, not just accounting — a
	// false tag match would skip the check that validates op.pa or an
	// operand's translation.
	seq := tr.seq + 1
	if seq == 0 {
		for i := range tr.ops {
			op := &tr.ops[i]
			op.fseq, op.r.seq, op.w.seq = 0, 0, 0
		}
		seq = 1
	}
	tr.seq = seq

	// CS/DS/SS and the CPL cannot change mid-trace (no fused
	// instruction writes a segment register, and far transfers are
	// never fused), so they are loop invariants. With no tick armed,
	// nextCheck is past the last op and slack infinite, so no deadline
	// check ever runs.
	ops := tr.ops
	st := traceRun{mm: m.MMU, phys: m.Phys, cs: m.CS, ds: m.DS, ss: m.SS, cpl: m.CPL(),
		limit: remaining, nextCheck: len(ops), deadline: m.nextTick, slack: math.Inf(1),
		wc: tr.wc, flags: m.Flags}
	// The instruction budget is checked before each op executes, so
	// exactly `remaining` instructions retire — the same truncation
	// point as stepping.
	if st.limit == 0 {
		st.limit = math.MaxUint64
	}
	if ticking {
		st.prove(m.Clock.Cycles(), 0)
	}
	regs := m.Regs
	var accum float64 // batched cycle charges
	var batch uint64  // TLB hits of operand-cache hits
	var n uint64      // instructions retired this dispatch

	var stop *RunResult
	var fault *mmu.Fault // a data access faulted, after its fetch passed
	var ceip uint32      // EIP to commit
	var livePA uint32    // deopt-page: live physical fetch address
	var moved bool       // deopt-page: the op's fetch frame moved

	i := 0
loop:
	for {
		op := &ops[i]

		if n >= st.limit {
			ceip = op.eip
			m.trStats.DeoptBudget++
			break loop
		}

		// The rare pre-op work, in order: a side exit before an
		// untraceable instruction, the precise deadline check, and the
		// page-level fetch check. Every other executed fetch is a
		// guaranteed TLB hit, counted at commit.
		if op.flags&(opFlagExit|opFlagPageHead) != 0 || i >= st.nextCheck {
			if op.flags&opFlagExit != 0 {
				ceip = op.exitEIP
				m.trStats.SideExits++
				break loop
			}
			if i >= st.nextCheck {
				eff := m.Clock.Cycles() + accum
				if eff >= st.deadline {
					// Deadline reached at this op boundary: deoptimize.
					// The commit lands the clock on eff and EIP here, so
					// Run's re-dispatch fires the hook at the identical
					// point Step's check would have.
					ceip = op.eip
					m.trStats.DeoptTick++
					break loop
				}
				st.prove(eff, i)
			}
			// Full fetch check (charged, counted, faulting) once per
			// dispatch at page heads.
			if op.flags&opFlagPageHead != 0 && op.fseq != seq {
				pa, f := st.mm.CheckPageBatched(op.lin, mmu.Execute, st.cpl, st.cs, op.eip, &st.hits)
				if f != nil {
					stop = &RunResult{Reason: StopFault, Fault: f, Err: f}
					ceip = op.eip
					m.trStats.DeoptFault++
					break loop
				}
				if pa != op.pa {
					// The mapping changed under the trace (honoured
					// lazily, as on hardware): commit, then execute what
					// the live translation holds.
					ceip = op.eip
					livePA, moved = pa, true
					m.trStats.DeoptPage++
					break loop
				}
				op.fseq = seq
				st.full++
			}
		}

		// Charge first, then access — execute's order. Every memory
		// access tries its operand cache inline and takes the live path
		// (traceRun.load/store) on a miss.
		accum += op.cost

		switch op.code {
		case opExec:
			// The reference execute on the slot's decode, with the
			// trace's state written back first and reloaded after. It
			// charges the clock and counts its data translations live,
			// as Step does; eff above reads the clock plus accum, so the
			// deadline proof still holds.
			m.Regs, m.Flags, m.EIP = regs, st.flags, op.eip
			fault = m.execute(m.code[op.pa])
			regs, st.flags, ceip = m.Regs, m.Flags, m.EIP
			if fault != nil {
				break loop
			}
			if op.flags&opFlagLast != 0 { // only a terminal moves EIP
				n++
				m.trStats.SideExits++
				break loop
			}

		case opMovRI:
			regs[op.dst] = op.imm
		case opMovRR:
			regs[op.dst] = regs[op.src]

		case opLea:
			regs[op.dst] = op.ea(&regs)

		case opMovLoad:
			off := op.ea(&regs)
			v, ok := op.r.load(off, seq, uint32(op.size))
			if ok {
				batch++
			} else if v, fault = st.load(op, st.sel(op), off, uint32(op.size), seq); fault != nil {
				ceip = op.eip
				break loop
			}
			regs[op.dst] = v

		case opMovStoreR, opMovStoreI:
			v := op.imm
			if op.code == opMovStoreR {
				v = regs[op.src]
			}
			off := op.ea(&regs)
			if op.w.store(off, seq, uint32(op.size), v) {
				batch++
			} else if fault = st.store(op, st.sel(op), off, uint32(op.size), seq, v); fault != nil {
				ceip = op.eip
				break loop
			}

		case opAluRR, opAluRI:
			b := op.imm
			if op.code == opAluRR {
				b = regs[op.src]
			}
			r, cf, of := aluCF(op.sub, regs[op.dst], b)
			st.flags.CF, st.flags.OF = cf, of
			if r = st.flags.setSZ(r, op.size); op.sub != isa.CMP && op.sub != isa.TEST {
				regs[op.dst] = r // byte results already masked
			}

		case opUnR:
			a := regs[op.dst]
			r := ^a // NOT does not affect flags
			if op.sub != isa.NOT {
				r = st.flags.unary(op.sub, op.size, a)
			} else if op.size == 1 {
				r &= 0xFF
			}
			regs[op.dst] = r

		case opShR:
			regs[op.dst] = st.flags.shift(op.sub, regs[op.dst], op.imm)

		case opPushR, opPushI:
			v := op.imm
			if op.code == opPushR {
				v = regs[op.src]
			}
			esp := regs[isa.ESP] - 4
			if op.w.store(esp, seq, 4, v) {
				batch++
			} else if fault = st.store(op, st.ss, esp, 4, seq, v); fault != nil {
				fault.Kind = mmu.SS // ESP unchanged, as in Machine.Push
				ceip = op.eip
				break loop
			}
			regs[isa.ESP] = esp

		case opPushM:
			// PUSH reads its operand as a dword (compileRead size 4).
			off := op.ea(&regs)
			v, ok := op.r.load(off, seq, 4)
			if ok {
				batch++
			} else if v, fault = st.load(op, st.sel(op), off, 4, seq); fault != nil {
				ceip = op.eip
				break loop
			}
			esp := regs[isa.ESP] - 4
			if op.w.store(esp, seq, 4, v) {
				batch++
			} else if fault = st.store(op, st.ss, esp, 4, seq, v); fault != nil {
				fault.Kind = mmu.SS
				ceip = op.eip
				break loop
			}
			regs[isa.ESP] = esp

		case opPopR:
			esp := regs[isa.ESP]
			v, ok := op.r.load(esp, seq, 4)
			if ok {
				batch++
			} else if v, fault = st.load(op, st.ss, esp, 4, seq); fault != nil {
				fault.Kind = mmu.SS
				ceip = op.eip
				break loop
			}
			regs[isa.ESP] = esp + 4
			regs[op.dst] = v

		case opPopM:
			esp := regs[isa.ESP]
			v, ok := op.r.load(esp, seq, 4)
			if ok {
				batch++
			} else if v, fault = st.load(op, st.ss, esp, 4, seq); fault != nil {
				fault.Kind = mmu.SS
				ceip = op.eip
				break loop
			}
			regs[isa.ESP] = esp + 4
			off := op.ea(&regs)
			if op.w.store(off, seq, 4, v) {
				batch++
			} else if fault = st.store(op, st.sel(op), off, 4, seq, v); fault != nil {
				// x86 restores ESP if the store faults, as in execute.
				regs[isa.ESP] -= 4
				ceip = op.eip
				break loop
			}

		case opJmp:

		case opJcc:
			if cond(op.sub, st.flags.ZF, st.flags.SF, st.flags.CF, st.flags.OF) != op.follow {
				accum += op.alt - op.cost // charged op.cost above; actual is alt
				n++
				ceip = op.exitEIP
				m.trStats.SideExits++
				break loop
			}

		case opCall:
			esp := regs[isa.ESP] - 4
			ret := op.eip + isa.InstrSlot
			if op.w.store(esp, seq, 4, ret) {
				batch++
			} else if fault = st.store(op, st.ss, esp, 4, seq, ret); fault != nil {
				fault.Kind = mmu.SS
				ceip = op.eip
				break loop
			}
			regs[isa.ESP] = esp

		case opRet:
			esp := regs[isa.ESP]
			v, ok := op.r.load(esp, seq, 4)
			if ok {
				batch++
			} else if v, fault = st.load(op, st.ss, esp, 4, seq); fault != nil {
				fault.Kind = mmu.SS
				ceip = op.eip
				break loop
			}
			regs[isa.ESP] = esp + 4 + op.imm
			n++
			ceip = v
			m.trStats.SideExits++
			break loop
		}

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
			st.slack -= st.wc[i+1] - st.wc[t]
			if st.slack <= 0 && t < st.nextCheck {
				st.nextCheck = t
			}
		}
		i = t
	}

	// Commit: architectural state, batched charges, batched accounting.
	// Every retired op passed its fetch, and so did an op whose data
	// access faulted; those that did not take the full check were
	// guaranteed TLB hits.
	g := n - st.full
	if fault != nil {
		stop = &RunResult{Reason: StopFault, Fault: fault, Err: fault}
		m.trStats.DeoptFault++
		g++
	}
	m.Regs = regs
	m.Flags = st.flags
	m.EIP = ceip
	m.Clock.Add(accum)
	m.instret += n
	m.MMU.TLB().AddHits(batch + st.hits + g)
	m.bcFastFetches += g

	if moved {
		// Deopt-page: the fetch frame under op i moved. State is committed
		// at the op, and its fetch was counted and charged by the page
		// check above; now execute what the live translation holds, as
		// Step would, and let Run re-dispatch.
		stop, done := m.execAt(livePA)
		if done {
			n++
		}
		return stop, n
	}
	return stop, n
}
