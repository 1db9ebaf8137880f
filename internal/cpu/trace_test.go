package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// Tier-3 directed tests: trace superblocks must engage on hot loops,
// stay bit-identical to single-stepping on every simulated metric, and
// deoptimize correctly under every trace-hostile event — a fault at
// any position inside the fused body, a timer deadline mid-trace, a
// breakpoint armed inside the fused range, and paging events fired
// from the tick hook while the trace is hot.

// traceLoopSrc is the canonical hot loop: five fused instructions per
// iteration including a store and a load, so a trace covers ALU,
// memory and conditional-branch micro-ops.
const traceLoopSrc = `
	entry:
		mov eax, 0
		mov ecx, 500
	loop:
		add eax, ecx
		mov [scratch], eax
		mov ebx, [scratch]
		dec ecx
		jne loop
	stop:
		nop
	.data
	scratch: .long 0
`

// traceExec runs src to the stop breakpoint with the given runner and
// trace threshold and returns the harness and stop result.
func traceExec(t *testing.T, runner func(*Machine, RunLimits) RunResult, src string, threshold uint32) (*harness, map[string]uint32, RunResult) {
	t.Helper()
	h := newHarness(t)
	syms := h.install(0x0001_0000, src)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	h.m.TraceThreshold = threshold
	res := runner(h.m, RunLimits{})
	return h, syms, res
}

// liveTraces returns the traces attached to m's cached blocks, in
// cache-slot order.
func liveTraces(m *Machine) []*trace {
	var trs []*trace
	for _, b := range m.blocks {
		if b != nil && b.trace != nil {
			trs = append(trs, b.trace)
		}
	}
	return trs
}

// traceCompare asserts every simulated metric two executions must
// share: stop reason, fault identity, instructions, cycles, TLB
// statistics, registers, flags and EIP.
func traceCompare(t *testing.T, label string, hA, hB *harness, resA, resB RunResult) {
	t.Helper()
	if resA.Reason != resB.Reason {
		t.Fatalf("%s: stop reason %v vs %v (%v / %v)", label, resA.Reason, resB.Reason, resA.Err, resB.Err)
	}
	if (resA.Fault == nil) != (resB.Fault == nil) {
		t.Errorf("%s: fault presence %v vs %v", label, resA.Fault, resB.Fault)
	} else if resA.Fault != nil && *resA.Fault != *resB.Fault {
		t.Errorf("%s: fault %+v vs %+v", label, resA.Fault, resB.Fault)
	}
	if a, b := hA.m.Instructions(), hB.m.Instructions(); a != b {
		t.Errorf("%s: instret %d vs %d", label, a, b)
	}
	if a, b := hA.m.Clock.Cycles(), hB.m.Clock.Cycles(); a != b {
		t.Errorf("%s: cycles %v vs %v", label, a, b)
	}
	ah, am, af := hA.m.MMU.TLB().Stats()
	bh, bm, bf := hB.m.MMU.TLB().Stats()
	if ah != bh || am != bm || af != bf {
		t.Errorf("%s: TLB stats %d/%d/%d vs %d/%d/%d", label, ah, am, af, bh, bm, bf)
	}
	if hA.m.Regs != hB.m.Regs {
		t.Errorf("%s: registers %v vs %v", label, hA.m.Regs, hB.m.Regs)
	}
	if hA.m.Flags != hB.m.Flags || hA.m.EIP != hB.m.EIP {
		t.Errorf("%s: flags/eip %+v/%#x vs %+v/%#x", label, hA.m.Flags, hA.m.EIP, hB.m.Flags, hB.m.EIP)
	}
}

// TestTraceEngagesOnHotLoop: the hot loop must actually promote into a
// trace and run through it, with every simulated metric bit-identical
// to the uncached single-step execution.
func TestTraceEngagesOnHotLoop(t *testing.T) {
	hRun, _, resRun := traceExec(t, (*Machine).Run, traceLoopSrc, 4)
	hStep, _, resStep := traceExec(t, stepRun, traceLoopSrc, 4)
	if resRun.Reason != StopBreak {
		t.Fatalf("run stop = %v (%v)", resRun.Reason, resRun.Err)
	}
	ts := hRun.m.TraceStats()
	if ts.Built == 0 || ts.Dispatches == 0 {
		t.Fatalf("trace tier never engaged: %+v", ts)
	}
	if ts.DeoptPage != 0 || ts.DeoptFault != 0 || ts.DeoptTick != 0 {
		t.Errorf("unexpected deopts on a quiet hot loop: %+v", ts)
	}
	traceCompare(t, "hot loop", hRun, hStep, resRun, resStep)
}

// TestTraceLongBlockParity: a loop body longer than maxBlockLen splits
// into a block that ends on an ordinary instruction (the length cap),
// so its trace continues by fall-through. That terminal must run once
// per iteration, as under single-stepping.
func TestTraceLongBlockParity(t *testing.T) {
	const body, iters = maxBlockLen + 2, 100
	src := `
	entry:
		mov eax, 0
		mov ecx, ` + fmt.Sprint(iters) + `
	loop:
` + strings.Repeat("\t\tinc eax\n", body) + `
		dec ecx
		jne loop
	stop:
		nop
`
	hRun, _, resRun := traceExec(t, (*Machine).Run, src, defaultTraceThreshold)
	hStep, _, resStep := traceExec(t, stepRun, src, defaultTraceThreshold)
	if resRun.Reason != StopBreak {
		t.Fatalf("run stop = %v (%v)", resRun.Reason, resRun.Err)
	}
	if ts := hRun.m.TraceStats(); ts.Built == 0 || ts.Dispatches == 0 {
		t.Fatalf("trace tier never engaged: %+v", ts)
	}
	if got := hRun.m.Regs[isa.EAX]; got != body*iters {
		t.Errorf("eax = %d after %d iterations of %d incs, want %d", got, iters, body, body*iters)
	}
	traceCompare(t, "long block", hRun, hStep, resRun, resStep)
}

// TestTracePromotesBlockEnteredIndirectly: a hot block that is only
// ever entered through ret or an indirect jmp must still be promoted
// into a trace (heat is counted per dispatch, not per direct edge), and
// the traced run must stay bit-identical to single-stepping.
func TestTracePromotesBlockEnteredIndirectly(t *testing.T) {
	for _, tc := range []struct{ name, enter string }{
		{"ret", "push target\n\t\tret"},
		{"jmp-reg", "mov edx, target\n\t\tjmp edx"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := `
	entry:
		mov eax, 0
		mov ecx, 200
	loop:
		` + tc.enter + `
	target:
		add eax, ecx
		mov [scratch], eax
		dec ecx
		jne loop
	stop:
		nop
	.data
	scratch: .long 0
`
			hRun, syms, resRun := traceExec(t, (*Machine).Run, src, defaultTraceThreshold)
			hStep, _, resStep := traceExec(t, stepRun, src, defaultTraceThreshold)
			if resRun.Reason != StopBreak {
				t.Fatalf("run stop = %v (%v)", resRun.Reason, resRun.Err)
			}
			promoted := false
			for _, tr := range liveTraces(hRun.m) {
				promoted = promoted || tr.entry.slots[0].eip == syms["target"]
			}
			if !promoted {
				t.Errorf("block at target (entered only by %s) never promoted: %+v", tc.name, hRun.m.TraceStats())
			}
			traceCompare(t, tc.name, hRun, hStep, resRun, resStep)
		})
	}
}

// TestTraceSeveredBySetBreak: arming a breakpoint on an instruction
// inside the fused range must invalidate the trace, and the very next
// dispatch must honour the break.
func TestTraceSeveredBySetBreak(t *testing.T) {
	h, syms, res := traceExec(t, (*Machine).Run, traceLoopSrc, 4)
	if res.Reason != StopBreak {
		t.Fatalf("warm run stop = %v", res.Reason)
	}
	if h.m.TraceStats().Dispatches == 0 {
		t.Fatal("warm run never dispatched a trace")
	}
	h.m.SetBreak(syms["loop"])
	if got := h.m.TraceStats().Invalidated; got == 0 {
		t.Fatalf("SetBreak inside fused range invalidated no trace: %+v", h.m.TraceStats())
	}
	h.m.EIP = syms["entry"]
	res = h.m.Run(RunLimits{})
	if res.Reason != StopBreak || h.m.EIP != syms["loop"] {
		t.Fatalf("break inside former trace not honoured: %v at %#x, want %#x",
			res.Reason, h.m.EIP, syms["loop"])
	}
}

// splitLoopSrc is a hot loop whose body spans two pages: the loop
// block jumps to a successor block on the next page, which branches
// back. Entered through a jump, the loop block is dispatched first in
// every iteration, so it becomes the trace entry and the successor is
// fused into its trace. The loop exits onto the stop breakpoint, so no
// other block is decoded from the successor's page.
const splitLoopSrc = `
	entry:
		mov eax, 0
		mov ecx, 200
		jmp loop
	loop:
		add eax, ecx
		jmp tail
	.align 4096
	tail:
		dec ecx
		jne loop
	stop:
		nop
`

// warmSplitLoop runs splitLoopSrc to its stop breakpoint and returns
// the harness with one live trace, rooted at loop and fused through
// tail.
func warmSplitLoop(t *testing.T) (*harness, map[string]uint32) {
	t.Helper()
	h, syms, res := traceExec(t, (*Machine).Run, splitLoopSrc, 4)
	if res.Reason != StopBreak || h.m.Reg(isa.EAX) != 20100 {
		t.Fatalf("warm run: stop %v, eax %d", res.Reason, h.m.Reg(isa.EAX))
	}
	trs := liveTraces(h.m)
	if len(trs) != 1 || trs[0].entry.lin != syms["loop"] || trs[0].hi <= syms["tail"] {
		t.Fatalf("want one trace at loop fused through tail, got %d", len(trs))
	}
	return h, syms
}

// evictSlot builds a one-instruction block at the first instruction
// address above 0x40000 that shares lin's block-cache slot, so the
// block cached at lin leaves the cache.
func evictSlot(t *testing.T, h *harness, lin uint32) uint32 {
	t.Helper()
	x := uint32(0x0004_0000)
	for blockIndex(x) != blockIndex(lin) {
		x += isa.InstrSlot
	}
	pa := h.mapAt(x&^mem.PageMask, false, true) | x&mem.PageMask
	h.m.InstallCode(pa, []isa.Instr{{Op: isa.NOP}})
	h.m.SetBreak(x + isa.InstrSlot)
	h.m.EIP = x
	if res := h.m.Run(RunLimits{}); res.Reason != StopBreak {
		t.Fatalf("evicting run at %#x: stop %v", x, res.Reason)
	}
	if b := h.m.blocks[blockIndex(lin)]; b == nil || b.lin != x {
		t.Fatalf("block at %#x not evicted by %#x", lin, x)
	}
	return pa
}

// TestTraceDetachedByBreakInSuccessor: a breakpoint armed inside a
// fused successor block, outside the entry block's range, must detach
// the trace from its entry block and keep the block, and the next run
// must stop at the break. The successor's own block is evicted first,
// so only the trace covers the break.
func TestTraceDetachedByBreakInSuccessor(t *testing.T) {
	h, syms := warmSplitLoop(t)
	evictSlot(t, h, syms["tail"])
	_, _, inv0 := h.m.BlockCacheStats()
	trInv0 := h.m.TraceStats().Invalidated
	brk := syms["tail"] + isa.InstrSlot // jne loop
	h.m.SetBreak(brk)
	if n := len(liveTraces(h.m)); n != 0 {
		t.Fatalf("%d traces live after a break inside the successor, want 0", n)
	}
	if _, _, inv := h.m.BlockCacheStats(); inv != inv0 {
		t.Errorf("block invalidations %d -> %d: the entry block must be kept", inv0, inv)
	}
	if got := h.m.TraceStats().Invalidated - trInv0; got != 1 {
		t.Errorf("trace invalidations moved by %d, want 1", got)
	}
	if b := h.m.blocks[blockIndex(syms["loop"])]; b == nil || b.lin != syms["loop"] {
		t.Error("entry block dropped with its trace")
	}
	h.m.EIP = syms["entry"]
	res := h.m.Run(RunLimits{})
	if res.Reason != StopBreak || h.m.EIP != brk || h.m.Reg(isa.EAX) != 200 {
		t.Fatalf("break in the former successor not honoured: %v at %#x (eax %d), want %#x (eax 200)",
			res.Reason, h.m.EIP, h.m.Reg(isa.EAX), brk)
	}
}

// TestTraceDetachedByCodeInSuccessor: installing code over a page only
// the fused successor decoded must detach the trace and keep the entry
// block, and the next run must execute the new code.
func TestTraceDetachedByCodeInSuccessor(t *testing.T) {
	h, syms := warmSplitLoop(t)
	evictPA := evictSlot(t, h, syms["tail"])
	loopPA, _ := h.m.MMU.PeekPage(syms["loop"])
	tailPA, _ := h.m.MMU.PeekPage(syms["tail"])
	if bit := pageBloomBit(tailPA); bit == pageBloomBit(loopPA) || bit == pageBloomBit(evictPA) {
		t.Fatalf("successor page %#x shares a bloom bit with a cached block's page", tailPA)
	}
	_, _, inv0 := h.m.BlockCacheStats()
	// dec ecx -> sub ecx, 2: the loop now sums 200, 198, ..., 2.
	h.m.InstallCode(tailPA, []isa.Instr{{Op: isa.SUB, Dst: isa.R(isa.ECX), Src: isa.I(2), Size: 4}})
	if n := len(liveTraces(h.m)); n != 0 {
		t.Fatalf("%d traces live after code installed over the successor's page, want 0", n)
	}
	if _, _, inv := h.m.BlockCacheStats(); inv != inv0 {
		t.Errorf("block invalidations %d -> %d: the entry block must be kept", inv0, inv)
	}
	h.m.EIP = syms["entry"]
	res := h.m.Run(RunLimits{})
	if res.Reason != StopBreak || h.m.EIP != syms["stop"] || h.m.Reg(isa.EAX) != 10100 {
		t.Fatalf("new successor code not run: %v at %#x, eax %d, want stop with eax 10100",
			res.Reason, h.m.EIP, h.m.Reg(isa.EAX))
	}
}

// TestTraceEvictedWithEntryBlock: a block built into the entry block's
// cache slot evicts the entry block and its trace, without counting an
// invalidation; the loop then promotes a new trace (at the successor,
// whose heat survived) and runs correctly.
func TestTraceEvictedWithEntryBlock(t *testing.T) {
	h, syms := warmSplitLoop(t)
	ts0 := h.m.TraceStats()
	evictSlot(t, h, syms["loop"])
	if n := len(liveTraces(h.m)); n != 0 {
		t.Fatalf("%d traces live after their entry block was evicted, want 0", n)
	}
	h.m.EIP = syms["entry"]
	res := h.m.Run(RunLimits{})
	if res.Reason != StopBreak || h.m.EIP != syms["stop"] || h.m.Reg(isa.EAX) != 20100 {
		t.Fatalf("rerun: %v at %#x, eax %d, want stop with eax 20100", res.Reason, h.m.EIP, h.m.Reg(isa.EAX))
	}
	ts := h.m.TraceStats()
	if ts.Invalidated != ts0.Invalidated || ts.Built != ts0.Built+1 {
		t.Errorf("trace stats %+v -> %+v: want one new build and no invalidation", ts0, ts)
	}
	if n := len(liveTraces(h.m)); n != 1 {
		t.Errorf("%d traces live after the rerun, want 1", n)
	}
}

// TestTraceTickDeoptParity: timer deadlines landing mid-trace must
// deoptimize to the identical tick points — same tick count, same
// clock readings, same instret — as single-stepping, across a fan of
// tick granularities.
func TestTraceTickDeoptParity(t *testing.T) {
	var sawDeoptTick bool
	for _, tick := range []float64{75, 150, 400, 1000} {
		exec := func(runner func(*Machine, RunLimits) RunResult) (*harness, RunResult, int) {
			h := newHarness(t)
			syms := h.install(0x0001_0000, traceLoopSrc)
			h.startUser(syms["entry"])
			h.m.SetBreak(syms["stop"])
			h.m.TraceThreshold = 4
			ticks := 0
			h.m.TickCycles = tick
			h.m.OnTick = func(*Machine) error { ticks++; return nil }
			res := runner(h.m, RunLimits{})
			return h, res, ticks
		}
		hRun, resRun, ticksRun := exec((*Machine).Run)
		hStep, resStep, ticksStep := exec(stepRun)
		if ticksRun != ticksStep {
			t.Errorf("tick=%v: ticks %d vs %d", tick, ticksRun, ticksStep)
		}
		traceCompare(t, "tick parity", hRun, hStep, resRun, resStep)
		ts := hRun.m.TraceStats()
		if ts.Dispatches == 0 {
			t.Errorf("tick=%v: trace tier never engaged under ticking: %+v", tick, ts)
		}
		if ts.DeoptTick > 0 {
			sawDeoptTick = true
		}
	}
	if !sawDeoptTick {
		t.Error("no tick granularity ever deoptimized mid-trace; deadline batching untested")
	}
}

// TestTraceFaultAtEachPosition: a memory operand faulting at each
// fused position — first store, load, read-modify-write, and a
// segment-limit violation — must commit the partial architectural
// state and the fault identity exactly as single-stepping does.
func TestTraceFaultAtEachPosition(t *testing.T) {
	const src = `
		entry:
			mov ecx, 400
		loop:
			mov [esi], ecx
			mov eax, [edi]
			add [edx], ecx
			dec ecx
			jne loop
		stop:
			nop
		.data
		buf: .long 0
		.space 12
	`
	poisons := []struct {
		name string
		reg  isa.Reg
		addr uint32
	}{
		{"store-pf", isa.ESI, 0x00F0_0000}, // unmapped page: PF at position 0
		{"load-pf", isa.EDI, 0x00F0_0000},  // unmapped page: PF at position 1
		{"rmw-pf", isa.EDX, 0x00F0_0000},   // unmapped page: PF at position 2
		{"store-gp", isa.ESI, 0xFFFF_0000}, // beyond segment limit: GP at position 0
	}
	for _, p := range poisons {
		t.Run(p.name, func(t *testing.T) {
			exec := func(runner func(*Machine, RunLimits) RunResult) (*harness, RunResult) {
				h := newHarness(t)
				syms := h.install(0x0001_0000, src)
				h.startUser(syms["entry"])
				h.m.SetBreak(syms["stop"])
				h.m.TraceThreshold = 4
				for _, r := range []isa.Reg{isa.ESI, isa.EDI, isa.EDX} {
					h.m.Regs[r] = syms["buf"]
				}
				// Warm up: enough iterations to build and dispatch the
				// trace, stopped on a budget mid-loop.
				warm := runner(h.m, RunLimits{MaxInstructions: 600})
				if warm.Reason != StopBudget {
					t.Fatalf("warmup stop = %v", warm.Reason)
				}
				// Poison one operand register and resume: the next pass
				// over the poisoned position must fault.
				h.m.Regs[p.reg] = p.addr
				res := runner(h.m, RunLimits{})
				return h, res
			}
			hRun, resRun := exec((*Machine).Run)
			hStep, resStep := exec(stepRun)
			if resRun.Reason != StopFault {
				t.Fatalf("poisoned run stop = %v (%v), want fault", resRun.Reason, resRun.Err)
			}
			if hRun.m.TraceStats().Dispatches == 0 {
				t.Fatal("poisoned run never dispatched a trace")
			}
			if hRun.m.TraceStats().DeoptFault == 0 {
				t.Fatal("fault did not deoptimize a trace (struck outside the fused body?)")
			}
			traceCompare(t, p.name, hRun, hStep, resRun, resStep)
		})
	}
}

// TestTracePagingEventsMidTrace: CR3 reloads and page invalidations
// fired from the tick hook while traces are hot must stay bit-identical
// to single-stepping (the trace entry check redirects through the
// uncached path and the trace follows remaps lazily, as Step does).
func TestTracePagingEventsMidTrace(t *testing.T) {
	exec := func(runner func(*Machine, RunLimits) RunResult) (*harness, RunResult) {
		h := newHarness(t)
		syms := h.install(0x0001_0000, traceLoopSrc)
		h.startUser(syms["entry"])
		h.m.SetBreak(syms["stop"])
		h.m.TraceThreshold = 4
		n := 0
		h.m.TickCycles = 120
		h.m.OnTick = func(m *Machine) error {
			if n%2 == 0 {
				m.MMU.LoadCR3(h.as)
			} else {
				m.MMU.InvalidatePage(syms["scratch"])
			}
			n++
			return nil
		}
		res := runner(h.m, RunLimits{})
		return h, res
	}
	hRun, resRun := exec((*Machine).Run)
	hStep, resStep := exec(stepRun)
	if hRun.m.TraceStats().Dispatches == 0 {
		t.Fatalf("trace tier never engaged under paging events: %+v", hRun.m.TraceStats())
	}
	traceCompare(t, "paging events", hRun, hStep, resRun, resStep)
}

// TestSnapshotRestoreRebuildsTraces: rewinding a machine mid-run — by
// a reset onto a clone of itself frozen mid-run, or by a reset to the
// machine it was cloned from — leaves its next run bit-identical to an
// uninterrupted one. Traces must be dropped and rebuilt when the rewind
// can change what they were compiled against: a reset after a
// descriptor-table change retires them through the segment generation.
// A reset over unchanged tables and code keeps them, so the rerun
// builds none.
func TestSnapshotRestoreRebuildsTraces(t *testing.T) {
	build := func() (*harness, map[string]uint32) {
		h := newHarness(t)
		syms := h.install(0x0001_0000, traceLoopSrc)
		h.startUser(syms["entry"])
		h.m.SetBreak(syms["stop"])
		h.m.TraceThreshold = 4
		return h, syms
	}

	ref, _ := build()
	refStop := ref.m.Run(RunLimits{})
	if refStop.Reason != StopBreak {
		t.Fatalf("reference stop = %v", refStop.Reason)
	}
	if ref.m.TraceStats().Dispatches == 0 {
		t.Fatal("reference run never dispatched a trace")
	}
	want := capture(ref.m, refStop)

	// interrupt runs h partway, so traces are live.
	interrupt := func(h *harness) {
		if mid := h.m.Run(RunLimits{MaxInstructions: 700}); mid.Reason != StopBudget {
			t.Fatalf("mid stop = %v", mid.Reason)
		}
		if h.m.TraceStats().Dispatches == 0 {
			t.Fatal("interrupted run never dispatched a trace before the rewind")
		}
	}
	// finish runs h to the end, requiring the reference outcome and
	// reporting whether it built any trace.
	finish := func(h *harness) (rebuilt bool) {
		before := h.m.TraceStats().Built
		stop := h.m.Run(RunLimits{})
		if got := capture(h.m, stop); got != want {
			t.Errorf("post-rewind finish diverged:\n got %+v\nwant %+v", got, want)
		}
		return h.m.TraceStats().Built != before
	}

	t.Run("restore", func(t *testing.T) {
		h, _ := build()
		interrupt(h)
		frozen := h.clone()
		defer frozen.m.Phys.Release()
		if stop := h.m.Run(RunLimits{}); capture(h.m, stop) != want {
			t.Errorf("first finish diverged:\n got %+v\nwant %+v", capture(h.m, stop), want)
		}
		h.resetTo(frozen)
		if len(liveTraces(h.m)) == 0 {
			t.Error("rewind onto the frozen clone dropped the traces")
		}
		if finish(h) {
			t.Error("post-rewind run rebuilt a trace; the rewind kept the code map and tables")
		}
	})
	for _, tc := range []struct {
		name         string
		changeTables bool
	}{
		{"reset, tables changed", true},
		{"reset, tables unchanged", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmpl, _ := build()
			h := tmpl.clone()
			interrupt(h)
			if tc.changeTables {
				gdt := h.m.MMU.GDT
				gdt.Set(gdt.Len()-1, mmu.Descriptor{Kind: mmu.SegData, Limit: 0xFFF, DPL: 3, Present: true, Writable: true})
			}
			h.resetTo(tmpl)
			if !tc.changeTables && len(liveTraces(h.m)) == 0 {
				t.Error("reset over unchanged tables dropped the traces")
			}
			if rebuilt := finish(h); rebuilt != tc.changeTables {
				t.Errorf("rerun rebuilt traces: %v, want %v", rebuilt, tc.changeTables)
			}
		})
	}
}

// TestCloneCarriesTraceTier: a cloned machine inherits the trace
// threshold (the tier must not silently disable on clones) and builds
// its own traces, with metrics identical to the source running the
// same program.
func TestCloneCarriesTraceTier(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, traceLoopSrc)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	h.m.TraceThreshold = 4
	m := h.m

	m2 := h.clone().m

	if m2.TraceThreshold != m.TraceThreshold {
		t.Fatalf("clone TraceThreshold = %d, want %d", m2.TraceThreshold, m.TraceThreshold)
	}
	if res := m.Run(RunLimits{}); res.Reason != StopBreak {
		t.Fatalf("source run: %v", res.Reason)
	}
	if res := m2.Run(RunLimits{}); res.Reason != StopBreak {
		t.Fatalf("clone run: %v", res.Reason)
	}
	if m2.TraceStats().Dispatches == 0 {
		t.Errorf("clone never dispatched a trace: %+v", m2.TraceStats())
	}
	if m.Instructions() != m2.Instructions() || m.Clock.Cycles() != m2.Clock.Cycles() {
		t.Errorf("counters diverged: %d/%v vs %d/%v",
			m.Instructions(), m.Clock.Cycles(), m2.Instructions(), m2.Clock.Cycles())
	}
	if m.Regs != m2.Regs {
		t.Errorf("registers diverged: %v vs %v", m.Regs, m2.Regs)
	}
}

// TestTraceOpKitchenSinkParity drives every fusable micro-op form —
// all MOV/ALU/unary/shift/IMUL/XCHG addressing modes, immediate and
// memory push/pop, calls into a fused leaf, byte accesses — through a
// hot loop at a hair-trigger threshold and demands bit-identity with
// single-stepping.
func TestTraceOpKitchenSinkParity(t *testing.T) {
	const src = `
		entry:
			mov ecx, 120
		loop:
			mov eax, 4660
			mov ebx, eax
			movb edx, [bytes]
			movb [bytes+1], edx
			mov [scratch], eax
			mov [scratch+4], 99
			mov edi, [scratch]
			lea eax, [scratch+8]
			add eax, ebx
			sub eax, 3
			and eax, [mask]
			or [scratch], ebx
			xor [scratch], 5
			cmp eax, ebx
			test eax, 1
			inc eax
			dec ebx
			neg edx
			not edi
			inc [scratch+4]
			shl eax, 3
			shr ebx, 2
			sar edx, 1
			shl [scratch], 1
			imul eax, ebx
			imul ebx, 3
			imul edx, [mask]
			xchg eax, ebx
			xchg eax, [scratch]
			xchg [scratch+4], ebx
			push eax
			push 42
			push [scratch]
			pop eax
			pop [scratch+8]
			pop ebx
			call leaffn
			dec ecx
			jne loop
		stop:
			nop
		leaffn:
			inc esi
			ret
		.data
		bytes: .byte 1, 2, 3, 4
		scratch: .long 0
		.space 8
		mask: .long 255
	`
	hRun, _, resRun := traceExec(t, (*Machine).Run, src, 3)
	hStep, _, resStep := traceExec(t, stepRun, src, 3)
	if resRun.Reason != StopBreak {
		t.Fatalf("run stop = %v (%v)", resRun.Reason, resRun.Err)
	}
	ts := hRun.m.TraceStats()
	if ts.Built == 0 || ts.Dispatches == 0 {
		t.Fatalf("kitchen-sink loop never promoted: %+v", ts)
	}
	traceCompare(t, "kitchen sink", hRun, hStep, resRun, resStep)
}

// TestTraceJccBothDirectionsParity covers every conditional branch
// through the trace tier in both the trace-followed and side-exit
// directions: each jcc gates on a value that alternates per iteration,
// so a fused trace built along one direction must side-exit on the
// other, bit-identically to single-stepping.
func TestTraceJccBothDirectionsParity(t *testing.T) {
	for _, cc := range []string{"je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae", "js", "jns"} {
		t.Run(cc, func(t *testing.T) {
			src := `
		entry:
			mov ecx, 200
		loop:
			mov eax, ecx
			and eax, 3
			sub eax, 2
			` + cc + ` taken
			add ebx, 1
			jmp next
		taken:
			add edx, 1
		next:
			dec ecx
			jne loop
		stop:
			nop
	`
			hRun, _, resRun := traceExec(t, (*Machine).Run, src, 3)
			hStep, _, resStep := traceExec(t, stepRun, src, 3)
			if hRun.m.TraceStats().Dispatches == 0 {
				t.Fatalf("%s loop never promoted: %+v", cc, hRun.m.TraceStats())
			}
			traceCompare(t, cc, hRun, hStep, resRun, resStep)
		})
	}
}

// TestTraceByteAccessCOW drives tier 3's byte accesses through the
// dispatch-scoped frame cache across copy-on-write. A warm trace loop
// stores and reloads bytes at page offsets 0 and 4095 of a data frame
// that two clones — one frozen for a rewind — share when the trace next
// dispatches. The first byte load of that dispatch reads the shared
// frame and must not pin it: the store right after it faults the frame
// off, and every later load — in the same dispatch — must read the
// private copy. The shared copies keep their bytes, a reset onto the
// frozen clone brings them back, and the COW copy count, the bytes and
// every simulated metric match single-stepping.
func TestTraceByteAccessCOW(t *testing.T) {
	const src = `
		entry:
			mov ecx, 200
			jmp loop
		loop:
			movb eax, [last]
			add edx, 3
			movb [last], edx
			movb ebx, [last]
			add esi, ebx
			add edi, eax
			movb [first], ecx
			dec ecx
			jne loop
		stop:
			nop
		.data
		first: .byte 0
		.space 4094
		last: .byte 0
	`
	type outcome struct {
		h, frozen          *harness
		bytes              func(p *mem.Physical) (first, last byte)
		res                RunResult
		cow                uint64
		first, last        byte // live bytes after the second run
		cloneF, cloneL     byte // the clone's bytes after the second run
		frozenF, frozenL   byte // the frozen clone's bytes
		sharedF, sharedL   byte // the bytes when the frame was shared
		dispatches, copies uint64
	}
	exec := func(runner func(*Machine, RunLimits) RunResult) outcome {
		h := newHarness(t)
		syms := h.install(0x0001_0000, src)
		if syms["last"]-syms["first"] != 4095 || syms["first"]&0xFFF != 0 {
			t.Fatalf("data layout: first %#x, last %#x; want page offsets 0 and 4095", syms["first"], syms["last"])
		}
		h.startUser(syms["entry"])
		h.m.SetBreak(syms["stop"])
		h.m.TraceThreshold = 3
		m := h.m
		if res := runner(m, RunLimits{}); res.Reason != StopBreak {
			t.Fatalf("warm run stop = %v (%v)", res.Reason, res.Err)
		}
		pa := func(p *mem.Physical, lin uint32) byte {
			a, ok := m.MMU.PeekPage(lin)
			if !ok {
				t.Fatalf("%#x unmapped", lin)
			}
			return p.Read8(a)
		}
		var o outcome
		o.sharedF, o.sharedL = pa(m.Phys, syms["first"]), pa(m.Phys, syms["last"])

		frozen := h.clone()
		phys2 := m.Phys.Clone()
		clock2 := m.Clock.Clone()
		mu2 := m.MMU.Clone(phys2, clock2)
		mu2.AdoptSpace(mmu.AdoptAddressSpace(phys2, h.alloc.Clone(), h.as.CR3()))
		m.Clone(phys2, mu2, clock2)

		_, cow0, _ := m.Phys.COWStats()
		d0 := m.TraceStats().Dispatches
		m.EIP = syms["entry"]
		o.res = runner(m, RunLimits{})
		_, cow1, _ := m.Phys.COWStats()
		o.h, o.frozen = h, frozen
		o.bytes = func(p *mem.Physical) (byte, byte) { return pa(p, syms["first"]), pa(p, syms["last"]) }
		o.copies, o.dispatches = cow1-cow0, m.TraceStats().Dispatches-d0
		o.first, o.last = pa(m.Phys, syms["first"]), pa(m.Phys, syms["last"])
		o.cloneF, o.cloneL = pa(phys2, syms["first"]), pa(phys2, syms["last"])

		o.frozenF, o.frozenL = pa(frozen.m.Phys, syms["first"]), pa(frozen.m.Phys, syms["last"])
		return o
	}
	run, step := exec((*Machine).Run), exec(stepRun)

	if run.dispatches == 0 {
		t.Fatal("the second run never dispatched the trace")
	}
	if run.copies == 0 {
		t.Fatal("the second run faulted no frame off the clones")
	}
	traceCompare(t, "byte COW", run.h, step.h, run.res, step.res)
	if run.copies != step.copies {
		t.Errorf("COW copies: Run %d, Step %d", run.copies, step.copies)
	}
	if run.first != step.first || run.last != step.last {
		t.Errorf("bytes at offsets 0/4095: Run %d/%d, Step %d/%d", run.first, run.last, step.first, step.last)
	}
	if run.last == run.sharedL {
		t.Fatalf("the second run left byte 4095 at %d; the test needs it to change", run.last)
	}
	for _, o := range []outcome{run, step} {
		if o.cloneF != o.sharedF || o.cloneL != o.sharedL {
			t.Errorf("clone's bytes moved: %d/%d, want %d/%d", o.cloneF, o.cloneL, o.sharedF, o.sharedL)
		}
		if o.frozenF != o.sharedF || o.frozenL != o.sharedL {
			t.Errorf("frozen clone's bytes moved: %d/%d, want %d/%d", o.frozenF, o.frozenL, o.sharedF, o.sharedL)
		}
		o.h.resetTo(o.frozen)
		o.frozen.m.Phys.Release()
		if f, l := o.bytes(o.h.m.Phys); f != o.sharedF || l != o.sharedL {
			t.Errorf("bytes after the reset onto the frozen clone: %d/%d, want %d/%d", f, l, o.sharedF, o.sharedL)
		}
	}
}

// TestTraceSegmentLimitBoundary pins the segment-limit compare a warm
// trace access makes. A loop walks one memory operand up to the DS
// limit inside a single trace dispatch, so its last access is checked
// against the operand cache (opCache) the earlier iterations filled on
// that page. An access ending exactly at the limit succeeds;
// one ending a byte past it raises #GP; under a flat 4 GiB limit so
// does a dword whose end wraps past 2^32. Every outcome, fault identity
// included, matches single-stepping.
func TestTraceSegmentLimitBoundary(t *testing.T) {
	const (
		dataPage = 0x0040_0000
		limit    = dataPage + 0x7FF // mid-page, so the byte past it is mapped
		iters    = 64
		selDS    = 8
	)
	cases := []struct {
		name   string
		access string // the instruction through esi
		size   uint32
		limit  uint32
		last   uint32 // offset of the final access
		fault  bool
	}{
		{"read-dword-at-limit", "mov eax, [esi]", 4, limit, limit - 3, false},
		{"read-dword-past-limit", "mov eax, [esi]", 4, limit, limit - 2, true},
		{"write-dword-at-limit", "mov [esi], eax", 4, limit, limit - 3, false},
		{"write-dword-past-limit", "mov [esi], eax", 4, limit, limit - 2, true},
		{"read-byte-at-limit", "movb eax, [esi]", 1, limit, limit, false},
		{"read-byte-past-limit", "movb eax, [esi]", 1, limit, limit + 1, true},
		{"write-byte-at-limit", "movb [esi], eax", 1, limit, limit, false},
		{"write-byte-past-limit", "movb [esi], eax", 1, limit, limit + 1, true},
		{"read-dword-at-4g", "mov eax, [esi]", 4, 0xFFFF_FFFF, 0xFFFF_FFFC, false},
		{"read-dword-wraps", "mov eax, [esi]", 4, 0xFFFF_FFFF, 0xFFFF_FFFD, true},
		{"write-dword-at-4g", "mov [esi], eax", 4, 0xFFFF_FFFF, 0xFFFF_FFFC, false},
		{"write-dword-wraps", "mov [esi], eax", 4, 0xFFFF_FFFF, 0xFFFF_FFFD, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "entry:\nloop:\n\t" + c.access + fmt.Sprintf("\n\tadd esi, %d\n\tdec ecx\n\tjne loop\nstop:\n\tnop\n", c.size)
			exec := func(runner func(*Machine, RunLimits) RunResult) (*harness, RunResult) {
				h := newHarness(t)
				syms := h.install(0x0001_0000, src)
				h.mapAt(c.last&^uint32(mem.PageMask), true, true)
				h.m.MMU.GDT.Set(selDS, mmu.Descriptor{Kind: mmu.SegData, Base: 0, Limit: c.limit, DPL: 3, Present: true, Writable: true})
				h.startUser(syms["entry"])
				h.m.DS = gsel(selDS, 3)
				h.m.SetBreak(syms["stop"])
				h.m.TraceThreshold = 2
				h.m.Regs[isa.ECX] = iters
				h.m.Regs[isa.ESI] = c.last - (iters-1)*c.size
				h.m.Regs[isa.EAX] = 0x5A5A_5A5A
				return h, runner(h.m, RunLimits{})
			}
			hRun, resRun := exec((*Machine).Run)
			hStep, resStep := exec(stepRun)
			want := StopBreak
			if c.fault {
				want = StopFault
			}
			if resRun.Reason != want {
				t.Fatalf("stop = %v (%v), want %v", resRun.Reason, resRun.Err, want)
			}
			if c.fault && (resRun.Fault.Kind != mmu.GP || resRun.Fault.Off != c.last) {
				t.Fatalf("fault = %+v, want #GP at offset %#x", resRun.Fault, c.last)
			}
			// One dispatch runs the whole loop, so the final access hits
			// the inline cache its earlier iterations filled.
			st := hRun.m.TraceStats()
			if st.Dispatches != 1 || (st.DeoptFault == 1) != c.fault {
				t.Fatalf("trace stats %+v: want one dispatch, a fault deopt only when faulting", st)
			}
			traceCompare(t, c.name, hRun, hStep, resRun, resStep)
		})
	}
}
