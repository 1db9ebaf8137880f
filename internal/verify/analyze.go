package verify

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/isa"
)

// analyzeFn analyzes one function: CFG discovery, back-edge and
// natural-loop structure, the interval dataflow fixpoint, loop trip
// counting, and the access-classification post-pass. isEntry selects
// the environment's entry state (typed argument slot) over the opaque
// own-frame state used for internal call targets.
func (an *analysis) analyzeFn(entry int, isEntry bool) {
	if an.funcs[entry] != nil {
		return
	}
	f := &fn{
		entry: entry, nodes: map[int]bool{}, succ: map[int][]int{},
		pred: map[int][]int{}, backSet: map[edge]bool{},
		loops: map[int]*loopInfo{}, in: map[int]*state{},
		entryIn: map[int]*state{}, visits: map[int]int{},
	}
	an.funcs[entry] = f
	if entry < 0 || entry >= len(an.obj.Text) {
		return
	}

	// 1. Discover nodes and static edges.
	stack := []int{entry}
	f.nodes[entry] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sc := an.staticSucc(n, f)
		f.succ[n] = sc
		for _, s := range sc {
			f.pred[s] = append(f.pred[s], n)
			if !f.nodes[s] {
				f.nodes[s] = true
				stack = append(stack, s)
			}
		}
	}

	// 2. Back edges (iterative DFS, grey-target edges).
	color := map[int]int8{}
	type frame struct{ n, i int }
	var dfs []frame
	color[entry] = 1
	dfs = append(dfs, frame{entry, 0})
	for len(dfs) > 0 {
		fr := &dfs[len(dfs)-1]
		if fr.i < len(f.succ[fr.n]) {
			s := f.succ[fr.n][fr.i]
			fr.i++
			switch color[s] {
			case 0:
				color[s] = 1
				dfs = append(dfs, frame{s, 0})
			case 1:
				f.backSet[edge{fr.n, s}] = true
			}
		} else {
			color[fr.n] = 2
			dfs = dfs[:len(dfs)-1]
		}
	}

	// 3. Natural loops (merged per head) and their write sets, which
	// the dataflow havocs at the head instead of widening.
	for e := range f.backSet {
		li := f.loops[e.to]
		if li == nil {
			li = &loopInfo{body: map[int]bool{e.to: true}}
			f.loops[e.to] = li
		}
		li.latches = append(li.latches, e.from)
		work := []int{e.from}
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			if li.body[n] {
				continue
			}
			li.body[n] = true
			work = append(work, f.pred[n]...)
		}
	}
	for _, li := range f.loops {
		for n := range li.body {
			w, cellsW := writeEffects(&an.obj.Text[n])
			for i := range w {
				li.written[i] = li.written[i] || w[i]
			}
			li.havocCells = li.havocCells || cellsW
		}
	}

	// 4. Dataflow fixpoint.
	f.in[entry] = an.entryState(isEntry)
	wl := []int{entry}
	for len(wl) > 0 {
		n := wl[0]
		wl = wl[1:]
		out := f.in[n].clone()
		an.step(n, out)
		for _, s := range f.succ[n] {
			if an.flowInto(f, n, s, out) {
				wl = append(wl, s)
			}
		}
	}

	// 5. Trip counts and the function's step bound, folded bottom-up
	// over the loop-nesting forest: an inner loop runs in full once
	// per iteration of every enclosing loop, so its bound multiplies
	// by each enclosing trip count instead of summing beside it.
	f.bounded = true
	var heads []int
	for h := range f.loops {
		heads = append(heads, h)
	}
	sort.Ints(heads)
	trips := make(map[int]uint64, len(heads))
	for _, h := range heads {
		latches := append([]int(nil), f.loops[h].latches...)
		sort.Ints(latches)
		for _, l := range latches {
			t, ok := an.tripCount(f, edge{l, h})
			if !ok {
				f.bounded = false
				if an.lay.RequireBounded {
					an.violation(l, "loop bound not provable")
					an.latchViolated = true
				} else {
					an.unproven(l, "", "loop bound not provable; the runtime time limit applies")
				}
				continue
			}
			trips[h] = satAdd(trips[h], t)
		}
	}
	if f.bounded {
		if loopSteps, ok := nestSteps(f, heads, trips); ok {
			f.steps = satAdd(uint64(len(f.nodes)), loopSteps)
		} else {
			f.bounded = false
			if an.lay.RequireBounded {
				an.violation(f.entry, "loop nesting not reducible; bound not provable")
				an.latchViolated = true
			} else {
				an.unproven(f.entry, "", "loop nesting not reducible; the runtime time limit applies")
			}
		}
	}
	f.analyzed = true

	// 6. Classification over the final states.
	var nodes []int
	for n := range f.nodes {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		if st := f.in[n]; st != nil {
			an.classifyNode(n, st)
		}
	}
}

// flowInto joins an out-state into a successor, havocking the
// loop-written registers and cells at loop heads (the widening that
// makes the fixpoint converge) while recording the pre-havoc join of
// outside edges for trip counting. Reports whether the successor's
// state changed.
func (an *analysis) flowInto(f *fn, from, to int, s *state) bool {
	if li := f.loops[to]; li != nil {
		if !f.backSet[edge{from, to}] {
			f.entryIn[to] = joinState(f.entryIn[to], s)
		}
		h := s.clone()
		for i, w := range li.written {
			if w {
				h.regs[i] = top
			}
		}
		if li.havocCells {
			havocCells(h)
		}
		s = h
	}
	old := f.in[to]
	nw := joinState(old, s)
	if old != nil && nw.eq(old) {
		return false
	}
	f.visits[to]++
	if f.visits[to] > visitCap {
		nw = topState()
	}
	f.in[to] = nw
	return true
}

// writeEffects reports which registers an instruction may write and
// whether it may write memory that could alias tracked stack cells.
func writeEffects(ins *isa.Instr) (w [8]bool, cells bool) {
	markDst := func() {
		switch ins.Dst.Kind {
		case isa.KindReg:
			w[ins.Dst.Reg] = true
		case isa.KindMem:
			cells = true
		}
	}
	switch ins.Op {
	case isa.MOV, isa.LEA, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SAR, isa.IMUL, isa.INC, isa.DEC, isa.NEG, isa.NOT:
		markDst()
	case isa.XCHG:
		markDst()
		switch ins.Src.Kind {
		case isa.KindReg:
			w[ins.Src.Reg] = true
		case isa.KindMem:
			cells = true
		}
	case isa.PUSH:
		w[isa.ESP] = true
		cells = true
	case isa.POP:
		markDst()
		w[isa.ESP] = true
		cells = true
	case isa.CALL, isa.LCALL, isa.INT:
		for i := range w {
			w[i] = true
		}
		w[isa.ESP] = false
		cells = true
	}
	return w, cells
}

// step is the abstract transfer function for one instruction.
func (an *analysis) step(idx int, st *state) {
	ins := &an.obj.Text[idx]
	rel := an.rel[idx]
	size := ins.Size
	switch ins.Op {
	case isa.MOV:
		v := an.readOpVal(&ins.Src, rel.srcImm, rel.srcDisp, size, st)
		an.writeOp(&ins.Dst, rel.dstDisp, v, size, st)
	case isa.LEA:
		if ins.Dst.Kind == isa.KindReg {
			full, _, _ := an.effAddr(&ins.Src, rel.srcDisp, st)
			st.regs[ins.Dst.Reg] = full
		}
	case isa.PUSH:
		v := an.readOpVal(&ins.Dst, rel.dstImm, rel.dstDisp, 4, st)
		if d, ok := espDelta(st); ok {
			st.regs[isa.ESP] = aval{rStack, d - 4, d - 4}
			st.cells[d-4] = v
		} else {
			st.regs[isa.ESP] = subAv(st.regs[isa.ESP], cst(4))
			havocCells(st)
		}
	case isa.POP:
		v := top
		if d, ok := espDelta(st); ok {
			if cv, ok2 := st.cells[d]; ok2 {
				v = cv
			}
			st.regs[isa.ESP] = aval{rStack, d + 4, d + 4}
		} else {
			st.regs[isa.ESP] = addAv(st.regs[isa.ESP], cst(4))
		}
		an.writeOp(&ins.Dst, rel.dstDisp, v, 4, st)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR, isa.IMUL:
		a := an.readOpVal(&ins.Dst, rel.dstImm, rel.dstDisp, size, st)
		b := an.readOpVal(&ins.Src, rel.srcImm, rel.srcDisp, size, st)
		an.writeOp(&ins.Dst, rel.dstDisp, aluVal(ins, a, b), size, st)
	case isa.INC:
		v := an.readOpVal(&ins.Dst, rel.dstImm, rel.dstDisp, size, st)
		an.writeOp(&ins.Dst, rel.dstDisp, addAv(v, cst(1)), size, st)
	case isa.DEC:
		v := an.readOpVal(&ins.Dst, rel.dstImm, rel.dstDisp, size, st)
		an.writeOp(&ins.Dst, rel.dstDisp, subAv(v, cst(1)), size, st)
	case isa.NEG, isa.NOT:
		v := an.readOpVal(&ins.Dst, rel.dstImm, rel.dstDisp, size, st)
		if x, ok := v.exact(); ok {
			if ins.Op == isa.NEG {
				v = cst(-x)
			} else {
				v = cst(^x)
			}
		} else {
			v = top
		}
		an.writeOp(&ins.Dst, rel.dstDisp, v, size, st)
	case isa.XCHG:
		a := an.readOpVal(&ins.Dst, rel.dstImm, rel.dstDisp, size, st)
		b := an.readOpVal(&ins.Src, rel.srcImm, rel.srcDisp, size, st)
		an.writeOp(&ins.Dst, rel.dstDisp, b, size, st)
		an.writeOp(&ins.Src, rel.srcDisp, a, size, st)
	case isa.CALL, isa.LCALL, isa.INT:
		// A transfer into trusted host code (PLT, service gate) or a
		// separately-analyzed internal function: everything but the
		// convention-preserved stack pointer becomes unknown.
		havocCall(st)
	}
}

// aluVal computes the two-operand ALU transfer.
func aluVal(ins *isa.Instr, a, b aval) aval {
	switch ins.Op {
	case isa.ADD:
		return addAv(a, b)
	case isa.SUB:
		return subAv(a, b)
	case isa.AND:
		return andAv(a, b)
	case isa.OR:
		return orAv(a, b)
	case isa.XOR:
		if ins.Dst.Kind == isa.KindReg && ins.Src.Kind == isa.KindReg && ins.Dst.Reg == ins.Src.Reg {
			return cst(0) // the idiomatic zeroing
		}
		if av, ok := a.exact(); ok {
			if bv, ok2 := b.exact(); ok2 {
				return cst(av ^ bv)
			}
		}
		return top
	case isa.SHL:
		bv, bok := b.exact()
		if !bok {
			return top
		}
		c := bv & 31
		if av, ok := a.exact(); ok {
			return cst(av << c)
		}
		if a.r == rConst && a.lo >= 0 && a.hi <= int64(0xFFFF_FFFF)>>c {
			return aval{rConst, a.lo << c, a.hi << c}
		}
		return top
	case isa.SHR:
		bv, bok := b.exact()
		if !bok || a.r != rConst || a.lo < 0 {
			return top
		}
		c := bv & 31
		return aval{rConst, a.lo >> c, a.hi >> c}
	case isa.SAR:
		av, aok := a.exact()
		bv, bok := b.exact()
		if aok && bok {
			return cst(uint32(int32(av) >> (bv & 31)))
		}
		return top
	case isa.IMUL:
		if bv, ok := b.exact(); ok {
			return mulConst(a, int64(bv))
		}
		if av, ok := a.exact(); ok {
			return mulConst(b, int64(av))
		}
		return top
	}
	return top
}

// tripCount recognizes the counted-loop shape: a constant counter
// initialization outside the loop, a single `dec r` immediately
// before the `jne head` latch, and no other writer of r inside the
// loop. The entry constant is then an iteration upper bound.
func (an *analysis) tripCount(f *fn, e edge) (uint64, bool) {
	u, h := e.from, e.to
	ins := &an.obj.Text[u]
	if ins.Op != isa.JNE {
		return 0, false
	}
	if t, _, ok := an.brTargetIdx(u); !ok || t != h {
		return 0, false
	}
	li := f.loops[h]
	if u-1 < 0 || !li.body[u-1] {
		return 0, false
	}
	prev := &an.obj.Text[u-1]
	if prev.Op != isa.DEC || prev.Dst.Kind != isa.KindReg {
		return 0, false
	}
	r := prev.Dst.Reg
	for n := range li.body {
		if n == u-1 {
			continue
		}
		w, _ := writeEffects(&an.obj.Text[n])
		if w[r] {
			return 0, false
		}
	}
	ev := f.entryIn[h]
	if ev == nil {
		return 0, false
	}
	n, ok := ev.regs[r].exact()
	if !ok || n == 0 {
		return 0, false
	}
	return uint64(n), true
}

// nestSteps folds the per-loop trip bounds into one step bound over
// the loop-nesting forest: steps(L) = trips(L) * (L's own body nodes
// + the settled bounds of its immediate inner loops). Loops nest
// properly when, for every pair with overlapping bodies, one body
// contains the other; irreducible overlap (or mutual head
// containment) refuses the bound rather than undercounting it.
func nestSteps(f *fn, heads []int, trips map[int]uint64) (uint64, bool) {
	for i, h := range heads {
		for _, g := range heads[i+1:] {
			hb, gb := f.loops[h].body, f.loops[g].body
			switch {
			case hb[g] && gb[h]:
				return 0, false
			case hb[g]:
				if !subsetOf(gb, hb) {
					return 0, false
				}
			case gb[h]:
				if !subsetOf(hb, gb) {
					return 0, false
				}
			default:
				for n := range hb {
					if gb[n] {
						return 0, false
					}
				}
			}
		}
	}
	// parent: the innermost (smallest-body) distinct loop containing
	// the head; -1 for top-level loops.
	parent := make(map[int]int, len(heads))
	for _, h := range heads {
		parent[h] = -1
		for _, g := range heads {
			if g == h || !f.loops[g].body[h] {
				continue
			}
			if p := parent[h]; p == -1 || len(f.loops[g].body) < len(f.loops[p].body) {
				parent[h] = g
			}
		}
	}
	// Smallest bodies first settles every child before its parent.
	order := append([]int(nil), heads...)
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if len(f.loops[a].body) != len(f.loops[b].body) {
			return len(f.loops[a].body) < len(f.loops[b].body)
		}
		return a < b
	})
	inner := map[int]uint64{}   // settled bounds of immediate children
	childNodes := map[int]int{} // body nodes owned by immediate children
	var total uint64
	for _, h := range order {
		own := uint64(len(f.loops[h].body) - childNodes[h])
		s := satMul(trips[h], satAdd(own, inner[h]))
		if p := parent[h]; p != -1 {
			inner[p] = satAdd(inner[p], s)
			childNodes[p] += len(f.loops[h].body)
		} else {
			total = satAdd(total, s)
		}
	}
	return total, true
}

func subsetOf(a, b map[int]bool) bool {
	for n := range a {
		if !b[n] {
			return false
		}
	}
	return true
}

// satAdd and satMul saturate at MaxUint64: a huge proven bound must
// overshoot the budget check, never wrap back under it.
func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a != 0 && b > math.MaxUint64/a {
		return math.MaxUint64
	}
	return a * b
}

// ------------------------------------------------- classification

const (
	vOK = iota
	vPart
	vOut
)

// stackVerdict classifies a stack-relative byte range [lo, hi+size-1]
// against the layout's window: writable below the entry pointer,
// readable up to StackAbove at/above it.
func (an *analysis) stackVerdict(lo, hi, size int64, acc Perm) int {
	loB, hiB := lo, hi+size-1
	below, above := -int64(an.lay.StackBelow), int64(an.lay.StackAbove)
	okHi := int64(-1)
	if acc&PermW == 0 {
		okHi = above - 1
	}
	if loB >= below && hiB <= okHi {
		return vOK
	}
	if hiB < below || loB >= above {
		return vOut
	}
	return vPart
}

type memAcc struct {
	dst  bool
	perm Perm
	size int64
	elig bool
}

// eligOp whitelists the operand shapes whose trace ops read and write
// through per-operand SegProbes (the elision point); stack and
// transfer traffic goes through the machine-level paths instead.
func eligOp(op isa.Op) bool {
	switch op {
	case isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST,
		isa.SHL, isa.SHR, isa.SAR, isa.IMUL, isa.INC, isa.DEC, isa.NEG, isa.NOT, isa.XCHG:
		return true
	}
	return false
}

// accessesOf enumerates an instruction's explicit memory accesses.
func accessesOf(ins *isa.Instr) []memAcc {
	var out []memAcc
	size := int64(4)
	if ins.Size == 1 {
		size = 1
	}
	if ins.Src.Kind == isa.KindMem && ins.Op != isa.LEA {
		perm := PermR
		if ins.Op == isa.XCHG {
			perm = PermRW
		}
		out = append(out, memAcc{dst: false, perm: perm, size: size, elig: eligOp(ins.Op)})
	}
	if ins.Dst.Kind == isa.KindMem {
		switch ins.Op {
		case isa.MOV:
			out = append(out, memAcc{dst: true, perm: PermW, size: size, elig: true})
		case isa.CMP, isa.TEST:
			out = append(out, memAcc{dst: true, perm: PermR, size: size, elig: true})
		case isa.PUSH:
			out = append(out, memAcc{dst: true, perm: PermR, size: 4})
		case isa.POP:
			out = append(out, memAcc{dst: true, perm: PermW, size: 4})
		case isa.JMP, isa.CALL:
			out = append(out, memAcc{dst: true, perm: PermR, size: 4})
		case isa.LEA:
		default:
			out = append(out, memAcc{dst: true, perm: PermRW, size: size, elig: eligOp(ins.Op)})
		}
	}
	return out
}

func accVerb(p Perm) string {
	switch p {
	case PermW:
		return "write"
	case PermR:
		return "read"
	}
	return "access"
}

func (an *analysis) prove(site string) { an.proven[site] = true }

func (an *analysis) demote(site string, idx int, rng, format string, args ...any) {
	an.demoted[site] = true
	an.unproven(idx, rng, format, args...)
}

func (an *analysis) fact(idx int, dst bool, end uint32) {
	k := factKey{idx, dst}
	if fs, ok := an.facts[k]; ok {
		if !fs.dead && end > fs.end {
			fs.end = end
			an.facts[k] = fs
		}
		return
	}
	an.facts[k] = factState{end: end}
}

// factKill permanently blocks the elidable fact at a site. The site
// can stay proven: some analysis context (an instruction may belong to
// several analyzed functions) discharged it through a bound that is
// not in the operand-local displacement domain — stack- or argument-
// relative, or an unanchored data pointer — so an end bound recorded
// by another context would not cover every runtime effective address,
// which the isa.Operand.ProvedEnd contract requires.
func (an *analysis) factKill(idx int, dst bool) {
	k := factKey{idx, dst}
	fs := an.facts[k]
	fs.dead = true
	an.facts[k] = fs
}

// classifyNode classifies every access and control effect of one
// instruction under its final abstract in-state.
func (an *analysis) classifyNode(idx int, st *state) {
	ins := &an.obj.Text[idx]
	rel := an.rel[idx]
	for _, acc := range accessesOf(ins) {
		op, r := &ins.Src, rel.srcDisp
		if acc.dst {
			op, r = &ins.Dst, rel.dstDisp
		}
		an.checkAccess(idx, op, acc, r, st)
	}
	switch {
	case ins.Op == isa.JMP && ins.Dst.Kind != isa.KindImm:
		an.indirectTransfer(idx, "jump", &ins.Dst, rel.dstDisp, st)
	case ins.Op == isa.CALL && ins.Dst.Kind != isa.KindImm:
		an.indirectTransfer(idx, "call", &ins.Dst, rel.dstDisp, st)
	case ins.Op == isa.PUSH:
		an.implicitStack(idx, st, -4, PermW, "push")
	case ins.Op == isa.POP:
		an.implicitStack(idx, st, 0, PermR, "pop")
	case ins.Op == isa.CALL:
		an.implicitStack(idx, st, -4, PermW, "call")
	case ins.Op == isa.RET:
		an.implicitStack(idx, st, 0, PermR, "ret")
		if d, ok := espDelta(st); ok {
			if d != 0 {
				an.unproven(idx, "", "return with unbalanced stack (esp = entry%+d)", d)
			}
		} else {
			an.unproven(idx, "", "return with unproved stack balance")
		}
	}
}

// implicitStack classifies the 4-byte stack slot an instruction
// implicitly touches at esp+off.
func (an *analysis) implicitStack(idx int, st *state, off int64, acc Perm, tag string) {
	d, ok := espDelta(st)
	if !ok {
		an.unproven(idx, "", "%s with unproved stack pointer", tag)
		return
	}
	site := fmt.Sprintf("%d|%s", idx, tag)
	lo := d + off
	rng := rangeString(rStack, lo, lo+3)
	switch an.stackVerdict(lo, lo, 4, acc) {
	case vOK:
		an.prove(site)
	case vOut:
		an.violationRange(idx, rng, "stack-relative %s outside the extension stack", accVerb(acc))
	default:
		an.demote(site, idx, rng, "stack-relative %s not provably within the stack window", accVerb(acc))
	}
}

// indirectTransfer rejects computed jumps and calls: verified control
// flow must stay on relocated text targets (or leave through the
// published gates), so a register- or memory-carried target is a
// policy violation whatever it holds.
func (an *analysis) indirectTransfer(idx int, kind string, op *isa.Operand, disp *isa.Reloc, st *state) {
	var v aval
	if op.Kind == isa.KindReg {
		v = st.regs[op.Reg]
	} else {
		v = an.readOpVal(op, nil, disp, 4, st)
	}
	switch v.r {
	case rConst, rData, rStack, rArg:
		an.violationRange(idx, rangeString(v.r, v.lo, v.hi), "indirect %s outside module text", kind)
	case rText:
		an.violationRange(idx, rangeString(v.r, v.lo, v.hi), "indirect %s into module text is not verifiable", kind)
	default:
		an.violationRange(idx, "", "indirect %s target unresolvable", kind)
	}
}

// checkAccess classifies one explicit memory access and records the
// elision fact when the bound is operand-local (anchored by the
// operand's own relocation or by proven absolute constants).
func (an *analysis) checkAccess(idx int, op *isa.Operand, acc memAcc, r *isa.Reloc, st *state) {
	full, regPart, anchored := an.effAddr(op, r, st)
	site := fmt.Sprintf("%d|%v", idx, acc.dst)
	verb := accVerb(acc.perm)
	loB, hiB := full.lo, full.hi+acc.size-1
	rng := rangeString(full.r, loB, hiB)
	switch full.r {
	case rTop:
		an.demote(site, idx, "", "%s through unresolved address", verb)
	case rConst:
		overlap := false
		for i := range an.lay.Regions {
			rg := &an.lay.Regions[i]
			rLo, rHi := int64(rg.Lo), int64(rg.Hi)
			if loB >= rLo && hiB <= rHi && acc.perm&^rg.Perm == 0 {
				an.prove(site)
				if acc.elig {
					an.fact(idx, acc.dst, uint32(hiB))
				}
				return
			}
			if hiB >= rLo && loB <= rHi {
				overlap = true
			}
		}
		if overlap {
			an.demote(site, idx, rng, "absolute %s not provably within a permitting region", verb)
		} else {
			an.violationRange(idx, rng, "absolute %s outside the declared regions", verb)
		}
	case rData:
		switch {
		case loB >= 0 && hiB < an.dataSize:
			an.prove(site)
			if acc.elig {
				if anchored && regPart.r == rConst {
					an.fact(idx, acc.dst, uint32(int64(op.Disp)+regPart.hi+acc.size-1))
				} else {
					an.factKill(idx, acc.dst)
				}
			}
		case hiB < 0 || loB >= an.dataSize:
			an.violationRange(idx, rng, "module data %s out of bounds", verb)
		default:
			an.demote(site, idx, rng, "module data %s not provably in bounds", verb)
		}
	case rText:
		if acc.perm&PermW != 0 {
			an.violationRange(idx, rng, "store into module text")
		} else {
			an.demote(site, idx, rng, "read from module text left to the runtime")
		}
	case rStack:
		switch an.stackVerdict(full.lo, full.hi, acc.size, acc.perm) {
		case vOK:
			// Stack facts stay symbolic: never elidable — and any
			// absolute fact another context recorded for this operand
			// must die with them.
			an.prove(site)
			if acc.elig {
				an.factKill(idx, acc.dst)
			}
		case vOut:
			an.violationRange(idx, rng, "stack-relative %s outside the extension stack", verb)
		default:
			an.demote(site, idx, rng, "stack-relative %s not provably within the stack window", verb)
		}
	case rArg:
		a := an.lay.Arg
		if a.Pointer && acc.perm&^a.Perm == 0 && loB >= 0 && hiB < int64(a.Size) {
			an.prove(site)
			if acc.elig {
				an.factKill(idx, acc.dst)
			}
		} else {
			an.demote(site, idx, rng, "argument-relative %s not provably within the declared argument area", verb)
		}
	}
}

// ------------------------------------------------- aggregation

// fnTotal sums a function's proven step bound over its call graph;
// recursion or any unbounded callee forfeits the bound.
func (an *analysis) fnTotal(e int, seen map[int]int8) (uint64, bool) {
	if seen[e] == 1 {
		return 0, false // recursion
	}
	f := an.funcs[e]
	if f == nil || !f.bounded {
		return 0, false
	}
	seen[e] = 1
	total := f.steps
	ok := true
	for _, c := range f.callees {
		cs, cok := an.fnTotal(c, seen)
		if !cok {
			ok = false
			break
		}
		total = satAdd(total, cs)
	}
	seen[e] = 0
	return total, ok
}

// finish settles the census, the termination verdict and the status.
func (an *analysis) finish(entries []int) {
	rep := an.rep
	for k, fs := range an.facts {
		if fs.dead || an.demoted[fmt.Sprintf("%d|%v", k.idx, k.dst)] {
			delete(an.facts, k)
		}
	}
	proven := 0
	for s := range an.proven {
		if !an.demoted[s] {
			proven++
		}
	}
	rep.Proven = proven
	rep.Elidable = len(an.facts)
	rep.facts = make(map[factKey]uint32, len(an.facts))
	for k, fs := range an.facts {
		rep.facts[k] = fs.end
	}

	bounded := len(entries) > 0
	var maxSteps uint64
	for _, e := range entries {
		steps, ok := an.fnTotal(e, map[int]int8{})
		if !ok {
			bounded = false
			continue
		}
		if steps > maxSteps {
			maxSteps = steps
		}
	}
	if !bounded && an.lay.RequireBounded && !an.latchViolated && len(entries) > 0 {
		an.violation(entries[0], "termination not provable")
	}
	budget := an.lay.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	if bounded && maxSteps > budget {
		an.violation(entries[0], "proved step bound %d exceeds the layout budget %d", maxSteps, budget)
	}
	rep.Bounded = bounded
	if bounded {
		rep.MaxSteps = maxSteps
	}

	sortFindings(rep.Violations)
	sortFindings(rep.Unproven)
	switch {
	case len(rep.Violations) > 0:
		rep.Status = Rejected
	case len(rep.Unproven) > 0 || !rep.Bounded:
		rep.Status = Guarded
	default:
		rep.Status = Clean
	}
}
