package verify

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// visitCap bounds dataflow visits per node; past it the node's state
// is widened straight to top so the fixpoint always terminates.
const visitCap = 50

// Check verifies obj against the declared layout. It analyzes every
// global text symbol as an environment entry point (plus any internal
// functions they call), and never mutates obj.
func Check(obj *isa.Object, lay Layout) *Report {
	an := &analysis{
		obj:      obj,
		lay:      &lay,
		dataSize: int64(len(obj.Data)) + int64(obj.BSSSize),
		rel:      make([]insRelocs, len(obj.Text)),
		vio:      map[string]bool{},
		unp:      map[string]bool{},
		proven:   map[string]bool{},
		demoted:  map[string]bool{},
		funcs:    map[int]*fn{},
		rep: &Report{
			Object:  obj.Name,
			Backend: lay.Backend,
		},
	}
	for i := range obj.Relocs {
		r := &obj.Relocs[i]
		if r.Index < 0 || r.Index >= len(obj.Text) {
			continue
		}
		switch r.Slot {
		case isa.RelDstImm:
			an.rel[r.Index].dstImm = r
		case isa.RelSrcImm:
			an.rel[r.Index].srcImm = r
		case isa.RelDstDisp:
			an.rel[r.Index].dstDisp = r
		case isa.RelSrcDisp:
			an.rel[r.Index].srcDisp = r
		}
	}

	// Entry points: every global text symbol (the environment may
	// bind any of them).
	var entries []int
	for _, s := range obj.Symbols {
		if s.Section != isa.SecText || !s.Global {
			continue
		}
		idx, ok := an.textIndex(int64(s.Off))
		if !ok {
			an.violation(0, "entry %q at misaligned or out-of-range text offset %#x", s.Name, s.Off)
			continue
		}
		an.rep.Entries = append(an.rep.Entries, s.Name)
		entries = append(entries, idx)
	}
	sort.Strings(an.rep.Entries)
	sort.Ints(entries)
	if len(entries) == 0 && len(an.rep.Violations) == 0 {
		an.violation(0, "no global text symbol to verify")
	}

	// Analyze entries with the environment's entry state, then any
	// internal call targets with an opaque own-frame state.
	for _, e := range entries {
		an.analyzeFn(e, true)
	}
	for len(an.queue) > 0 {
		e := an.queue[0]
		an.queue = an.queue[1:]
		an.analyzeFn(e, false)
	}

	an.finish(entries)
	return an.rep
}

type insRelocs struct {
	dstImm, srcImm, dstDisp, srcDisp *isa.Reloc
}

type analysis struct {
	obj      *isa.Object
	lay      *Layout
	rep      *Report
	rel      []insRelocs
	dataSize int64

	vio     map[string]bool // violation dedup
	unp     map[string]bool // unproven dedup
	proven  map[string]bool // proven access sites
	demoted map[string]bool // sites that failed in some context

	funcs map[int]*fn
	queue []int

	// latchViolated: a strict-mode latch already carries a "loop bound
	// not provable" violation, so finish skips the blanket one.
	latchViolated bool
}

// edge is one CFG edge.
type edge struct{ from, to int }

type loopInfo struct {
	body       map[int]bool
	written    [8]bool
	havocCells bool
	latches    []int
}

type fn struct {
	entry    int
	nodes    map[int]bool
	succ     map[int][]int
	pred     map[int][]int
	backSet  map[edge]bool
	loops    map[int]*loopInfo
	callees  []int // one element per call site
	in       map[int]*state
	entryIn  map[int]*state // pre-havoc joins at loop heads
	visits   map[int]int
	bounded  bool
	steps    uint64
	analyzed bool
}

// ----------------------------------------------------------- state

type state struct {
	regs  [8]aval
	cells map[int64]aval // entry-ESP-relative stack slots
}

func (s *state) clone() *state {
	c := &state{regs: s.regs, cells: make(map[int64]aval, len(s.cells))}
	for k, v := range s.cells {
		c.cells[k] = v
	}
	return c
}

func (s *state) eq(o *state) bool {
	if s.regs != o.regs || len(s.cells) != len(o.cells) {
		return false
	}
	for k, v := range s.cells {
		if ov, ok := o.cells[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

func joinState(a, b *state) *state {
	if a == nil {
		return b.clone()
	}
	j := &state{cells: map[int64]aval{}}
	for i := range j.regs {
		j.regs[i] = join(a.regs[i], b.regs[i])
	}
	for k, v := range a.cells {
		if bv, ok := b.cells[k]; ok {
			if jv := join(v, bv); !jv.isTop() {
				j.cells[k] = jv
			}
		}
	}
	return j
}

func havocCells(s *state) {
	for k := range s.cells {
		delete(s.cells, k)
	}
}

// havocCall models a transfer into trusted or separately-analyzed
// code: every register except the (convention-preserved) stack
// pointer and every tracked stack slot becomes unknown.
func havocCall(s *state) {
	esp := s.regs[isa.ESP]
	for i := range s.regs {
		s.regs[i] = top
	}
	s.regs[isa.ESP] = esp
	havocCells(s)
}

func espDelta(s *state) (int64, bool) {
	v := s.regs[isa.ESP]
	if v.r == rStack && v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

func topState() *state {
	s := &state{cells: map[int64]aval{}}
	for i := range s.regs {
		s.regs[i] = top
	}
	return s
}

func (an *analysis) entryState(isEntry bool) *state {
	s := topState()
	s.regs[isa.ESP] = aval{rStack, 0, 0}
	if isEntry && an.lay.Arg.Pointer {
		s.cells[4] = aval{rArg, 0, 0}
	}
	return s
}

// ------------------------------------------------- decode helpers

// textIndex converts a byte offset into an instruction index.
func (an *analysis) textIndex(off int64) (int, bool) {
	if off < 0 || off%isa.InstrSlot != 0 {
		return 0, false
	}
	idx := int(off / isa.InstrSlot)
	if idx >= len(an.obj.Text) {
		return 0, false
	}
	return idx, true
}

// anchorVal resolves a relocation into an abstract address: module
// data/bss and text symbols anchor their regions; externs are opaque
// until load time.
func (an *analysis) anchorVal(r *isa.Reloc, extra int32) aval {
	sym := an.obj.Symbols[r.Sym]
	if sym == nil {
		return top
	}
	base := int64(sym.Off) + int64(r.Addend) + int64(extra)
	switch sym.Section {
	case isa.SecData:
		return aval{rData, base, base}
	case isa.SecBSS:
		return aval{rData, int64(len(an.obj.Data)) + base, int64(len(an.obj.Data)) + base}
	case isa.SecText:
		return aval{rText, base, base}
	}
	return top
}

// addRaw is addAv without the constant normalization, for composing
// effective addresses whose signed intermediate terms must not wrap
// early.
func addRaw(a, b aval) aval {
	switch {
	case a.isTop() || b.isTop():
		return top
	case a.r == rConst && b.r == rConst:
		return aval{rConst, a.lo + b.lo, a.hi + b.hi}
	case a.r == rConst:
		return aval{b.r, b.lo + a.lo, b.hi + a.hi}
	case b.r == rConst:
		return aval{a.r, a.lo + b.lo, a.hi + b.hi}
	}
	return top
}

// effAddr evaluates a memory operand: the displacement (anchored by
// its relocation when one exists) plus the register part.
func (an *analysis) effAddr(op *isa.Operand, r *isa.Reloc, st *state) aval {
	full := aval{rConst, int64(op.Disp), int64(op.Disp)}
	if r != nil {
		full = an.anchorVal(r, op.Disp)
	}
	if op.Base != isa.NoReg {
		full = addRaw(full, st.regs[op.Base])
	}
	if op.Index != isa.NoReg {
		sc := int64(op.Scale)
		if sc == 0 {
			sc = 1
		}
		full = addRaw(full, mulConst(st.regs[op.Index], sc))
	}
	if full.r == rConst {
		full = norm(full)
	}
	return full
}

// immVal evaluates an immediate operand (anchored by its relocation
// when one exists).
func (an *analysis) immVal(op *isa.Operand, r *isa.Reloc) aval {
	if r != nil {
		return an.anchorVal(r, op.Imm)
	}
	return cst(uint32(op.Imm))
}

// byteOf narrows a loaded or moved value to byte width.
func byteOf(v aval) aval {
	if x, ok := v.exact(); ok {
		return cst(x & 0xFF)
	}
	return aval{rConst, 0, 255}
}

// readOpVal evaluates an operand as a value source.
func (an *analysis) readOpVal(op *isa.Operand, imm, disp *isa.Reloc, size uint8, st *state) aval {
	var v aval
	switch op.Kind {
	case isa.KindImm:
		v = an.immVal(op, imm)
	case isa.KindReg:
		v = st.regs[op.Reg]
	case isa.KindMem:
		full := an.effAddr(op, disp, st)
		v = top
		if full.r == rStack && full.lo == full.hi {
			if cv, ok := st.cells[full.lo]; ok {
				v = cv
			}
		}
	default:
		return top
	}
	if size == 1 {
		v = byteOf(v)
	}
	return v
}

// writeOp stores a value through an operand, tracking exact stack
// slots and conservatively wiping them when the store might alias the
// stack. Aliasing is possible not only through imprecise stack-
// relative or unresolved addresses: a declared region may contain the
// stack itself (the kernel segment's scratch+stack area holds the
// extension stack), and a region-relative store that is not proven
// inside its own allocation can land anywhere the runtime checks
// admit — including the stack window. Only stores proven inside a
// stack-disjoint allocation keep the tracked cells alive.
func (an *analysis) writeOp(op *isa.Operand, disp *isa.Reloc, v aval, size uint8, st *state) {
	switch op.Kind {
	case isa.KindReg:
		if size == 1 {
			v = byteOf(v)
		}
		st.regs[op.Reg] = v
	case isa.KindMem:
		full := an.effAddr(op, disp, st)
		if full.r == rStack && full.lo == full.hi && size != 1 {
			st.cells[full.lo] = v
			return
		}
		if an.storeMayAliasStack(full, int64(size)) {
			havocCells(st)
		}
	}
}

// storeMayAliasStack reports whether a store through the abstract
// address full (accessing size bytes) could alias a tracked stack
// cell (including the argument slot at entry+4):
//
//   - any stack-relative (imprecise) or unresolved store may;
//   - an absolute store may when its interval can reach the stack
//     window a declared region contains (Layout.StackAbs), and also
//     when it is not proven inside a declared writable region at all
//     — nothing then pins where a runtime-surviving store lands;
//   - a data- or argument-relative store may unless proven inside its
//     own allocation: those allocations (module data at the loader's
//     placement, the staged shared area) are disjoint from the stack,
//     but a wild offset that survives the runtime segment and page
//     checks can still reach it.
func (an *analysis) storeMayAliasStack(full aval, size int64) bool {
	loB, hiB := full.lo, full.hi+size-1
	switch full.r {
	case rConst:
		if an.lay.StackAbsKnown {
			sLo := int64(an.lay.StackAbs) - int64(an.lay.StackBelow)
			sHi := int64(an.lay.StackAbs) + int64(an.lay.StackAbove) - 1
			if hiB >= sLo && loB <= sHi {
				return true
			}
		}
		return !an.constWithinRegion(loB, hiB, PermW)
	case rData:
		return loB < 0 || hiB >= an.dataSize
	case rArg:
		a := an.lay.Arg
		return !a.Pointer || PermW&^a.Perm != 0 || loB < 0 || hiB >= int64(a.Size)
	}
	return true // rStack (imprecise), rText, rTop
}

// constWithinRegion reports whether the absolute byte range [loB, hiB]
// lies inside one declared region permitting perm.
func (an *analysis) constWithinRegion(loB, hiB int64, perm Perm) bool {
	for i := range an.lay.Regions {
		rg := &an.lay.Regions[i]
		if loB >= int64(rg.Lo) && hiB <= int64(rg.Hi) && perm&^rg.Perm == 0 {
			return true
		}
	}
	return false
}

// ------------------------------------------------- findings

func (an *analysis) violation(idx int, format string, args ...any) {
	f := Finding{Index: idx, Reason: fmt.Sprintf(format, args...)}
	if idx >= 0 && idx < len(an.obj.Text) {
		f.Instr = an.obj.Text[idx].String()
	}
	key := fmt.Sprintf("%d|%s", idx, f.Reason)
	if an.vio[key] {
		return
	}
	an.vio[key] = true
	an.rep.Violations = append(an.rep.Violations, f)
}

func (an *analysis) violationRange(idx int, rng string, format string, args ...any) {
	f := Finding{Index: idx, Reason: fmt.Sprintf(format, args...), Range: rng}
	if idx >= 0 && idx < len(an.obj.Text) {
		f.Instr = an.obj.Text[idx].String()
	}
	key := fmt.Sprintf("%d|%s", idx, f.Reason)
	if an.vio[key] {
		return
	}
	an.vio[key] = true
	an.rep.Violations = append(an.rep.Violations, f)
}

func (an *analysis) unproven(idx int, rng string, format string, args ...any) {
	f := Finding{Index: idx, Reason: fmt.Sprintf(format, args...), Range: rng}
	if idx >= 0 && idx < len(an.obj.Text) {
		f.Instr = an.obj.Text[idx].String()
	}
	key := fmt.Sprintf("%d|%s", idx, f.Reason)
	if an.unp[key] {
		return
	}
	an.unp[key] = true
	an.rep.Unproven = append(an.rep.Unproven, f)
}

// ------------------------------------------------- CFG construction

// brTargetIdx resolves a text-relocated immediate transfer target to
// an instruction index.
func (an *analysis) brTargetIdx(idx int) (int, *isa.Symbol, bool) {
	r := an.rel[idx].dstImm
	if r == nil {
		return 0, nil, false
	}
	sym := an.obj.Symbols[r.Sym]
	if sym == nil || sym.Section != isa.SecText {
		return 0, sym, false
	}
	off := int64(sym.Off) + int64(r.Addend) + int64(an.obj.Text[idx].Dst.Imm)
	t, ok := an.textIndex(off)
	return t, sym, ok
}

// staticSucc computes an instruction's static successors, recording
// the control-policy violations that need no dataflow state.
func (an *analysis) staticSucc(idx int, f *fn) []int {
	ins := &an.obj.Text[idx]
	fallthru := func() []int {
		if idx+1 >= len(an.obj.Text) {
			an.violation(idx, "execution falls off the end of text")
			return nil
		}
		return []int{idx + 1}
	}
	switch {
	case ins.Op == isa.JMP:
		if ins.Dst.Kind == isa.KindImm {
			r := an.rel[idx].dstImm
			if r == nil {
				an.violation(idx, "jump to absolute literal address")
				return nil
			}
			if t, sym, ok := an.brTargetIdx(idx); ok {
				return []int{t}
			} else if sym != nil && sym.Section == isa.SecUndef {
				if !an.lay.AllowExterns {
					an.violation(idx, "tail call to extern %q not permitted by layout", sym.Name)
				}
				return nil // control leaves the module
			}
			an.violation(idx, "jump target outside module text")
			return nil
		}
		return nil // indirect: classified against state in the post-pass
	case ins.Op.IsBranch():
		r := an.rel[idx].dstImm
		if r == nil || ins.Dst.Kind != isa.KindImm {
			an.violation(idx, "conditional branch without a text target")
			return fallthru()
		}
		t, sym, ok := an.brTargetIdx(idx)
		if !ok {
			if sym != nil && sym.Section == isa.SecUndef {
				an.violation(idx, "conditional branch to extern %q", sym.Name)
			} else {
				an.violation(idx, "branch target outside module text")
			}
			return fallthru()
		}
		next := fallthru()
		return append(next, t)
	case ins.Op == isa.CALL:
		if ins.Dst.Kind == isa.KindImm {
			r := an.rel[idx].dstImm
			if r == nil {
				an.violation(idx, "call to absolute literal address")
				return nil
			}
			if t, sym, ok := an.brTargetIdx(idx); ok {
				f.callees = append(f.callees, t)
				an.queue = append(an.queue, t)
				// Intra-module calls are legal but keep the program
				// out of Clean: the callee's stack depth and effects
				// are only checked per-frame, not end to end.
				an.unproven(idx, "", "intra-module call: cross-frame stack depth left to the runtime")
				return fallthru()
			} else if sym != nil && sym.Section == isa.SecUndef {
				if !an.lay.AllowExterns {
					an.violation(idx, "call to extern %q not permitted by layout", sym.Name)
					return nil
				}
				return fallthru()
			}
			an.violation(idx, "call target outside module text")
			return nil
		}
		return nil // indirect call: post-pass
	case ins.Op == isa.RET:
		return nil
	case ins.Op == isa.LCALL:
		r := an.rel[idx].dstImm
		sym := (*isa.Symbol)(nil)
		if r != nil {
			sym = an.obj.Symbols[r.Sym]
		}
		switch {
		case ins.Dst.Kind != isa.KindImm:
			an.violation(idx, "indirect far call")
			return nil
		case r == nil:
			an.violation(idx, "far call at a literal selector bypasses the published gates")
			return nil
		case sym != nil && sym.Section == isa.SecUndef && an.lay.AllowExterns:
			return fallthru() // published service gate
		case sym != nil && sym.Section == isa.SecUndef:
			an.violation(idx, "far call to extern %q not permitted by layout", sym.Name)
			return nil
		default:
			an.violation(idx, "far call into module text")
			return nil
		}
	case ins.Op == isa.LRET:
		an.violation(idx, "far return forges a privilege transition")
		return nil
	case ins.Op == isa.IRET:
		an.violation(idx, "iret outside the kernel's interrupt path")
		return nil
	case ins.Op == isa.HLT:
		an.violation(idx, "hlt is privileged")
		return nil
	case ins.Op == isa.INT:
		vec := uint8(ins.Dst.Imm)
		if ins.Dst.Kind != isa.KindImm || !an.lay.intAllowed(vec) {
			an.violation(idx, "int %#x: vector not provided by the environment", ins.Dst.Imm)
		}
		return fallthru()
	default:
		return fallthru()
	}
}
