package cpu

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Differential fuzzing of the decoded-block cache (PR 1) and the
// trace-superblock tier (PR 8): a seeded generator builds random
// straight-line + branchy programs, runs each on two identical
// machines — one through the cached Run loop, one through uncached
// single Steps — while a scripted stream of invalidation events
// (InvalidatePage, SetBreak/ClearBreak, InstallCode mid-stream) fires
// from the timer hook, and asserts the two executions are
// indistinguishable: same stop reason and fault, same retired
// instructions, same simulated cycles, same TLB statistics, same
// final registers, flags and memory.
//
// diffExec drops TraceThreshold to 3, so hot labels promote into
// fused traces almost immediately and every scripted event is also a
// trace-hostile event: paging events and code edits strike while a
// trace is live, breakpoints land inside fused ranges, ticks and
// budgets expire mid-trace, and generated faults hit arbitrary fused
// positions. The oracle therefore pins trace deoptimization — the
// partial-commit path — to Step's semantics, along with the cold
// blocks that Run steps before they promote.

// diffRegs are the registers random programs scribble on. ESP is
// excluded so stack handling stays structured (push/pop pairs and
// call/ret), and EBP because it counts spliceLongLoop's loop; wild
// memory traffic is exercised through indirect addressing instead.
var diffRegs = []string{"eax", "ebx", "ecx", "edx", "esi", "edi"}

// diffEvent is one scripted invalidation, applied by the timer hook at
// an identical simulated cycle on both machines. Kinds 4-6 are the
// block-hostile events: they strike while a cached block or trace is
// running — a CR3 reload (TLB flush + translation-generation bump
// under a running block), a RemoveCode over a cached jump target (the
// very next dispatch of that label must raise #UD), and a two-slot
// InstallCode over a cached jump target's entry and interior.
type diffEvent struct {
	kind  int   // 0 invlpg, 1 set break, 2 clear break, 3 install code, 4 load cr3, 5 remove code, 6 install 2 slots, 7 reset
	block int   // target block label index
	imm   int32 // replacement immediate for install-code events
}

// evReset is the reset event: the run stops, the machine is reset in
// place to the pristine machine it was cloned from (the program loaded,
// nothing run), and the run restarts there on the remaining budget.
// Whatever the events before it did to the code map, breakpoints and
// TLB, the Run leg then resumes on the blocks and traces the reset
// kept, and must still match the Step leg, which never builds any.
const evReset = 7

// errResetEvent stops a run so diffExec can reset the machine.
var errResetEvent = errors.New("reset event")

// genProgram emits a random program of labelled blocks over a shared
// data buffer, always ending in a reachable stop label, plus two leaf
// functions. Termination is not guaranteed (loops are allowed); the
// differential runs bound instructions and compare the budget stop.
func genProgram(rng *rand.Rand) (string, int) {
	nblocks := 4 + rng.Intn(8)
	var b strings.Builder
	b.WriteString("entry:\n")
	jcc := []string{"je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae", "js", "jns"}

	for blk := 0; blk < nblocks; blk++ {
		fmt.Fprintf(&b, "b%d:\n", blk)
		for n := 1 + rng.Intn(6); n > 0; n-- {
			genInstr(&b, rng, rng.Intn(22))
		}
		if blk == nblocks-1 {
			b.WriteString("\tjmp stop\n")
			continue
		}
		switch rng.Intn(10) {
		case 0, 1, 2:
			// Fall through.
		case 3, 4:
			fmt.Fprintf(&b, "\tjmp b%d\n", rng.Intn(nblocks))
		default:
			fmt.Fprintf(&b, "\t%s b%d\n", jcc[rng.Intn(len(jcc))], rng.Intn(nblocks))
		}
	}
	b.WriteString("stop:\n\tnop\n")
	for f := 0; f < 2; f++ {
		fmt.Fprintf(&b, "fn%d:\n\tpush ebx\n\t%s ebx\n\tpop ebx\n\tret\n", f, diffUna[f])
	}
	b.WriteString(".data\nbuf: .space 256\n")
	return b.String(), nblocks
}

var (
	diffALU = []string{"add", "sub", "and", "or", "xor", "cmp", "test"}
	diffUna = []string{"inc", "dec", "neg", "not"}
	diffShf = []string{"shl", "shr", "sar"}
)

// genInstr appends one instruction (two for the push/pop pairs) of the
// given kind, 0 to 21, drawing its operands from rng. Kind 14 is a call
// and kind 15 a wild indirect access; no other kind ends a block.
func genInstr(b *strings.Builder, rng *rand.Rand, kind int) {
	reg := func() string { return diffRegs[rng.Intn(len(diffRegs))] }
	disp := func() int { return 4 * rng.Intn(60) }
	switch kind {
	case 0:
		fmt.Fprintf(b, "\tmov %s, %d\n", reg(), rng.Int31())
	case 1:
		fmt.Fprintf(b, "\tmov %s, %s\n", reg(), reg())
	case 2:
		fmt.Fprintf(b, "\tmov %s, [buf+%d]\n", reg(), disp())
	case 3:
		if rng.Intn(4) == 0 {
			fmt.Fprintf(b, "\tmov [buf+%d], %d\n", disp(), rng.Int31())
		} else {
			fmt.Fprintf(b, "\tmov [buf+%d], %s\n", disp(), reg())
		}
	case 4:
		fmt.Fprintf(b, "\tmovb %s, [buf+%d]\n", reg(), disp())
	case 5:
		fmt.Fprintf(b, "\tmovb [buf+%d], %s\n", disp(), reg())
	case 6:
		fmt.Fprintf(b, "\t%s %s, %s\n", diffALU[rng.Intn(len(diffALU))], reg(), reg())
	case 7:
		fmt.Fprintf(b, "\t%s %s, %d\n", diffALU[rng.Intn(len(diffALU))], reg(), rng.Int31n(1<<16))
	case 8:
		fmt.Fprintf(b, "\t%s %s, [buf+%d]\n", diffALU[rng.Intn(len(diffALU))], reg(), disp())
	case 9:
		fmt.Fprintf(b, "\t%s %s\n", diffUna[rng.Intn(len(diffUna))], reg())
	case 10:
		fmt.Fprintf(b, "\t%s %s, %d\n", diffShf[rng.Intn(len(diffShf))], reg(), rng.Intn(32))
	case 11:
		fmt.Fprintf(b, "\timul %s, %s\n", reg(), reg())
	case 12:
		fmt.Fprintf(b, "\tlea %s, [buf+%d]\n", reg(), disp())
	case 13:
		r1, r2 := reg(), reg()
		fmt.Fprintf(b, "\tpush %s\n\tpop %s\n", r1, r2)
	case 14:
		fmt.Fprintf(b, "\tcall fn%d\n", rng.Intn(2))
	case 15:
		// Wild indirect access: the register value is whatever
		// the program computed, so this may fault — both
		// executions must fault identically.
		if rng.Intn(2) == 0 {
			fmt.Fprintf(b, "\tmov %s, [%s]\n", reg(), reg())
		} else {
			fmt.Fprintf(b, "\tmov [%s], %s\n", reg(), reg())
		}
	// Memory-destination and exotic forms, added with the
	// trace tier so its fused read-modify-write micro-ops are
	// under the differential too.
	case 16:
		if rng.Intn(2) == 0 {
			fmt.Fprintf(b, "\t%s [buf+%d], %s\n", diffALU[rng.Intn(len(diffALU))], disp(), reg())
		} else {
			fmt.Fprintf(b, "\t%s [buf+%d], %d\n", diffALU[rng.Intn(len(diffALU))], disp(), rng.Int31n(1<<16))
		}
	case 17:
		fmt.Fprintf(b, "\t%s [buf+%d]\n", diffUna[rng.Intn(len(diffUna))], disp())
	case 18:
		fmt.Fprintf(b, "\t%s [buf+%d], %d\n", diffShf[rng.Intn(len(diffShf))], disp(), rng.Intn(32))
	case 19:
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(b, "\txchg %s, %s\n", reg(), reg())
		case 1:
			fmt.Fprintf(b, "\txchg %s, [buf+%d]\n", reg(), disp())
		case 2:
			fmt.Fprintf(b, "\txchg [buf+%d], %s\n", disp(), reg())
		}
	case 20:
		if rng.Intn(2) == 0 {
			fmt.Fprintf(b, "\timul %s, %d\n", reg(), rng.Int31n(1<<8))
		} else {
			fmt.Fprintf(b, "\timul %s, [buf+%d]\n", reg(), disp())
		}
	case 21:
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(b, "\tpush %d\n\tpop %s\n", rng.Int31(), reg())
		case 1:
			fmt.Fprintf(b, "\tpush [buf+%d]\n\tpop %s\n", disp(), reg())
		case 2:
			fmt.Fprintf(b, "\tpush %s\n\tpop [buf+%d]\n", reg(), disp())
		}
	}
}

// spliceLongLoop puts, for one scenario in three, a counted loop over a
// straight line longer than maxBlockLen at the head of one block: the
// line's first block ends on the length cap, so the loop's trace
// continues by fall-through. The loop has no call and no wild access,
// and ebp, which nothing else writes, counts it. rng is a stream of its
// own, so every other draw of a seed's scenario stays what it was.
func spliceLongLoop(src string, nblocks int, rng *rand.Rand) (string, bool) {
	if rng.Intn(3) != 0 {
		return src, false
	}
	blk := rng.Intn(nblocks)
	var b strings.Builder
	fmt.Fprintf(&b, "\tmov ebp, %d\nb%d_long:\n", 5+rng.Intn(4), blk)
	for n := maxBlockLen + 1 + rng.Intn(8); n > 0; n-- {
		kind := rng.Intn(20)
		if kind >= 14 {
			kind += 2
		}
		genInstr(&b, rng, kind)
	}
	fmt.Fprintf(&b, "\tdec ebp\n\tjne b%d_long\n", blk)
	label := fmt.Sprintf("\nb%d:\n", blk)
	return strings.Replace(src, label, label+b.String(), 1), true
}

// genEvents scripts 2-8 invalidation events against random blocks.
func genEvents(rng *rand.Rand, nblocks int) []diffEvent {
	events := make([]diffEvent, 2+rng.Intn(7))
	for i := range events {
		events[i] = diffEvent{
			kind:  rng.Intn(7),
			block: rng.Intn(nblocks),
			imm:   rng.Int31n(1 << 20),
		}
	}
	return events
}

// diffCase draws a seed's scenario: the program, its invalidation
// events, the tick period and the instruction budget, and with resets
// set, reset events interleaved among the invalidations. The resets
// are drawn last, so a seed's program, invalidation stream, tick and
// budget are the same with and without them.
func diffCase(seed int64, resets bool) (src string, events []diffEvent, tick float64, budget uint64) {
	rng := rand.New(rand.NewSource(seed))
	src, nblocks := genProgram(rng)
	inval := genEvents(rng, nblocks)
	tick = 60 + float64(rng.Intn(150))
	src, long := spliceLongLoop(src, nblocks, rand.New(rand.NewSource(^seed)))
	if long {
		// Ticks must leave a trace dispatch room to run past the
		// line's first maxBlockLen instructions (memory forms cost a
		// few cycles each) before it deoptimizes.
		tick += 8 * maxBlockLen
	}
	budget = uint64(1200 + rng.Intn(1800))
	if !resets {
		return src, inval, tick, budget
	}
	events = make([]diffEvent, 0, 2*len(inval))
	for _, ev := range inval {
		if rng.Intn(7) == 0 {
			events = append(events, diffEvent{kind: evReset})
		}
		events = append(events, ev)
	}
	return src, events, tick, budget
}

// applyEvent performs one scripted invalidation on a machine.
func applyEvent(h *harness, syms map[string]uint32, ev diffEvent) {
	lin := syms[fmt.Sprintf("b%d", ev.block)]
	switch ev.kind {
	case 0:
		h.m.MMU.InvalidatePage(lin)
	case 1:
		h.m.SetBreak(lin)
	case 2:
		h.m.ClearBreak(lin)
	case 3:
		if pa, ok := h.m.MMU.PeekPage(lin); ok {
			h.m.InstallCode(pa, []isa.Instr{
				{Op: isa.MOV, Dst: isa.R(isa.EAX), Src: isa.I(ev.imm), Size: 4},
			})
		}
	case 4:
		// CR3 reload mid-run: flushes the TLB (charged identically on
		// both machines) and advances the translation generation under
		// whatever block or trace is executing.
		h.m.MMU.LoadCR3(h.as)
	case 5:
		// RemoveCode over a cached jump target: the next dispatch of
		// this label must raise #UD on both machines.
		if pa, ok := h.m.MMU.PeekPage(lin); ok {
			h.m.RemoveCode(pa, 1)
		}
	case 6:
		// Two-slot install over a cached jump target's entry and
		// interior.
		if pa, ok := h.m.MMU.PeekPage(lin); ok {
			h.m.InstallCode(pa, []isa.Instr{
				{Op: isa.MOV, Dst: isa.R(isa.EBX), Src: isa.I(ev.imm), Size: 4},
				{Op: isa.NOP},
			})
		}
	}
}

// diffExec runs the seeded program with the given runner on a freshly
// loaded machine and returns the final state. When the events include
// a reset, it runs on a clone of that machine instead, and each reset
// rewinds the clone to it.
func diffExec(tb testing.TB, runner func(*Machine, RunLimits) RunResult,
	src string, events []diffEvent, tick float64, budget uint64) (*harness, map[string]uint32, RunResult) {
	tmpl := newHarness(tb)
	syms := tmpl.install(0x0001_0000, src)
	tmpl.startUser(syms["entry"])
	tmpl.m.SetBreak(syms["stop"])
	// Hair-trigger trace promotion: every generated loop goes hot, so
	// the scripted events double as trace-hostile events (the Step leg
	// never builds traces — stepRun bypasses the block runner — so the
	// differential still compares tiers, not trace-vs-trace).
	tmpl.m.TraceThreshold = 3
	tmpl.m.TickCycles = tick
	h := tmpl
	for _, ev := range events {
		if ev.kind == evReset {
			h = tmpl.clone()
			break
		}
	}
	next := 0
	h.m.OnTick = func(m *Machine) error {
		if next < len(events) {
			ev := events[next]
			next++
			if ev.kind == evReset {
				return errResetEvent
			}
			applyEvent(h, syms, ev)
		}
		return nil
	}
	res := runner(h.m, RunLimits{MaxInstructions: budget})
	for res.Reason == StopError && errors.Is(res.Err, errResetEvent) && res.Instructions < budget {
		budget -= res.Instructions
		h.resetTo(tmpl)
		res = runner(h.m, RunLimits{MaxInstructions: budget})
	}
	return h, syms, res
}

// readRange returns the bytes at [lin, lin+n) through the live
// translation, without charging or counting anything.
func readRange(tb testing.TB, h *harness, lin uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		pa, ok := h.m.MMU.PeekPage(lin + uint32(i))
		if !ok {
			tb.Fatalf("readRange: %#x not mapped", lin+uint32(i))
		}
		out[i] = h.m.Phys.Read8(pa)
	}
	return out
}

// diffCheck is the differential oracle: Run and Step executions of the
// same seeded program must be indistinguishable. resets selects whether
// the seed's scenario includes reset events (see diffCase).
func diffCheck(tb testing.TB, seed int64, resets bool) {
	src, events, tick, budget := diffCase(seed, resets)

	hRun, symsRun, resRun := diffExec(tb, (*Machine).Run, src, events, tick, budget)
	hStep, symsStep, resStep := diffExec(tb, stepRun, src, events, tick, budget)

	fail := func(format string, args ...any) {
		tb.Helper()
		tb.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	if resRun.Reason != resStep.Reason {
		fail("stop reason: Run %v (%v), Step %v (%v)\nprogram:\n%s",
			resRun.Reason, resRun.Err, resStep.Reason, resStep.Err, src)
		return
	}
	if (resRun.Fault == nil) != (resStep.Fault == nil) {
		fail("fault presence: Run %v, Step %v", resRun.Fault, resStep.Fault)
	} else if resRun.Fault != nil && *resRun.Fault != *resStep.Fault {
		fail("fault: Run %+v, Step %+v", resRun.Fault, resStep.Fault)
	}
	if resRun.Instructions != resStep.Instructions {
		fail("instructions: Run %d, Step %d", resRun.Instructions, resStep.Instructions)
	}
	if a, b := hRun.m.Instructions(), hStep.m.Instructions(); a != b {
		fail("instret: Run %d, Step %d", a, b)
	}
	if a, b := hRun.m.Clock.Cycles(), hStep.m.Clock.Cycles(); a != b {
		fail("cycles: Run %v, Step %v", a, b)
	}
	rh, rm, rf := hRun.m.MMU.TLB().Stats()
	sh, sm, sf := hStep.m.MMU.TLB().Stats()
	if rh != sh || rm != sm || rf != sf {
		fail("TLB stats: Run %d/%d/%d, Step %d/%d/%d", rh, rm, rf, sh, sm, sf)
	}
	if hRun.m.Regs != hStep.m.Regs {
		fail("registers: Run %v, Step %v", hRun.m.Regs, hStep.m.Regs)
	}
	if hRun.m.EIP != hStep.m.EIP || hRun.m.CS != hStep.m.CS || hRun.m.Flags != hStep.m.Flags {
		fail("eip/cs/flags: Run %#x/%v/%+v, Step %#x/%v/%+v",
			hRun.m.EIP, hRun.m.CS, hRun.m.Flags, hStep.m.EIP, hStep.m.CS, hStep.m.Flags)
	}
	if symsRun["buf"] != symsStep["buf"] {
		tb.Fatalf("seed %d: layouts diverged", seed)
	}
	bufRun := readRange(tb, hRun, symsRun["buf"], 256)
	bufStep := readRange(tb, hStep, symsStep["buf"], 256)
	if string(bufRun) != string(bufStep) {
		fail("data buffer diverged")
	}
	stackRun := readRange(tb, hRun, 0x0008_0000, int(mem.PageSize))
	stackStep := readRange(tb, hStep, 0x0008_0000, int(mem.PageSize))
	if string(stackRun) != string(stackStep) {
		fail("stack page diverged")
	}
	// Sanity on the oracle itself: a breakpoint stop must be at the
	// stop label or at a block label a scripted SetBreak event armed.
	if resRun.Reason == StopBreak && hRun.m.EIP != symsRun["stop"] {
		armed := false
		for _, ev := range events {
			if ev.kind == 1 && symsRun[fmt.Sprintf("b%d", ev.block)] == hRun.m.EIP {
				armed = true
			}
		}
		if !armed {
			fail("stopped at breakpoint away from stop and armed labels: eip %#x", hRun.m.EIP)
		}
	}
}

// TestRunMatchesStepDifferential is the deterministic leg: a fixed
// fan of seeds derived from the package seed, so CI covers a spread of
// generated programs and any failure names its seed.
func TestRunMatchesStepDifferential(t *testing.T) {
	base := testSeed(t)
	for i := int64(0); i < 24; i++ {
		seed := base + i
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			diffCheck(t, seed, true)
		})
	}
}

// FuzzRunMatchesStep is the native fuzzing leg: go test -fuzz explores
// fresh seeds, widening the differential search beyond the fixed fan.
func FuzzRunMatchesStep(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(defaultTestSeed + i)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffCheck(t, seed, true)
	})
}

// TestDiffProgramsExerciseTheCache guards the oracle's power: across
// the seed fan, the generated programs must actually hit the decoded-
// block cache, promote into traces, deoptimize out of them, and
// trigger explicit invalidations — or the differential would be
// testing the uncached path against itself.
func TestDiffProgramsExerciseTheCache(t *testing.T) {
	base := testSeed(t)
	var hits, builds, invalidations uint64
	var ts TraceStats
	var faults, breaks, budgets, resets int
	for i := int64(0); i < 24; i++ {
		src, events, tick, budget := diffCase(base+i, true)
		h, _, res := diffExec(t, (*Machine).Run, src, events, tick, budget)
		resets += h.resets
		bh, bb, bi := h.m.BlockCacheStats()
		hits += bh
		builds += bb
		invalidations += bi
		mt := h.m.TraceStats()
		ts.Built += mt.Built
		ts.Invalidated += mt.Invalidated
		ts.Dispatches += mt.Dispatches
		ts.SideExits += mt.SideExits
		ts.DeoptTick += mt.DeoptTick
		ts.DeoptFault += mt.DeoptFault
		ts.DeoptPage += mt.DeoptPage
		ts.DeoptBudget += mt.DeoptBudget
		switch res.Reason {
		case StopFault:
			faults++
		case StopBreak:
			breaks++
		case StopBudget:
			budgets++
		}
	}
	if hits == 0 || builds == 0 {
		t.Errorf("seed fan never exercised the block cache (hits %d, builds %d)", hits, builds)
	}
	if invalidations == 0 {
		t.Errorf("seed fan never triggered a block invalidation")
	}
	if ts.Built == 0 || ts.Dispatches == 0 {
		t.Errorf("seed fan never engaged the trace tier (%+v)", ts)
	}
	if ts.Invalidated == 0 {
		t.Errorf("seed fan never invalidated a trace; events are not trace-hostile (%+v)", ts)
	}
	if ts.DeoptTick+ts.DeoptFault+ts.DeoptPage+ts.DeoptBudget == 0 {
		t.Errorf("seed fan never deoptimized mid-trace; partial commits untested (%+v)", ts)
	}
	if resets == 0 {
		t.Errorf("seed fan never reset a machine mid-program")
	}
	t.Logf("outcome mix: %d breaks, %d faults, %d budgets, %d resets; cache: %d hits, %d builds, %d invalidations",
		breaks, faults, budgets, resets, hits, builds, invalidations)
	t.Logf("traces: %+v", ts)
}
