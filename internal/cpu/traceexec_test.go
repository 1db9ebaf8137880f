package cpu

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/mmu"
)

// execLoopSrc is a loop built only from forms the trace has no op of
// its own for and runs through opExec: a byte register move, nop, and
// xchg, imul, add, shl and neg on memory operands. The last xchg
// addresses its memory through esi and writes its register before its
// memory, so pointing esi at a read-only page faults it half done.
const execLoopSrc = `
	entry:
		mov eax, 3
		mov ecx, 1000
		mov esi, cell2
		mov edi, 4660
	loop:
		movb edx, ecx
		nop
		xchg [cell], edx
		imul eax, [cell]
		add [acc], 7
		shl [acc], 1
		neg [acc2]
		xchg edi, [esi]
		dec ecx
		jne loop
	stop:
		nop
	.data
	cell: .long 5
	cell2: .long 85
	acc: .long 1
	acc2: .long 9
`

// TestTraceExecFormsStayInTrace: a loop of opExec forms must fuse into
// one trace that runs every iteration in-trace — one side exit, at the
// loop's end, however many iterations — and match Step in registers,
// flags, memory, clock, instructions and TLB statistics. The ticking
// variant runs the deadline proof against charges execute makes live;
// the faulting one strikes an opExec mid-trace, which must commit the
// partial state Step leaves.
func TestTraceExecFormsStayInTrace(t *testing.T) {
	for _, v := range []struct {
		name  string
		tick  float64
		fault bool
	}{{"plain", 0, false}, {"ticking", 50, false}, {"fault", 0, true}} {
		t.Run(v.name, func(t *testing.T) {
			exec := func(runner func(*Machine, RunLimits) RunResult) (*harness, RunResult, []float64, map[string]uint32) {
				h := newHarness(t)
				syms := h.install(0x0001_0000, execLoopSrc)
				h.startUser(syms["entry"])
				h.m.SetBreak(syms["stop"])
				h.m.TraceThreshold = 4
				var ticks []float64
				if v.tick > 0 {
					h.m.TickCycles = v.tick
					h.m.OnTick = func(m *Machine) error { ticks = append(ticks, m.Clock.Cycles()); return nil }
				}
				if v.fault {
					// Warm up for 20 iterations, stopping at loop (4 + 20×10
					// instructions), then aim the last xchg at the
					// read-only code page: its read passes, its register
					// write lands, its memory write faults.
					if res := runner(h.m, RunLimits{MaxInstructions: 204}); res.Reason != StopBudget || h.m.EIP != syms["loop"] {
						t.Fatalf("warm-up stop = %+v", res)
					}
					h.m.Regs[isa.ESI] = syms["loop"]
				}
				return h, runner(h.m, RunLimits{}), ticks, syms
			}
			hR, resR, ticksR, syms := exec((*Machine).Run)
			hS, resS, ticksS, _ := exec(stepRun)
			traceCompare(t, v.name, hR, hS, resR, resS)
			if r, s := readRange(t, hR, syms["cell"], 16), readRange(t, hS, syms["cell"], 16); string(r) != string(s) {
				t.Errorf("memory: Run % x, Step % x", r, s)
			}
			if fmt.Sprint(ticksR) != fmt.Sprint(ticksS) {
				t.Errorf("ticks at %v, Step %v", ticksR, ticksS)
			}
			ts := hR.m.TraceStats()
			if ts.Dispatches == 0 {
				t.Fatalf("the loop never ran as a trace: %+v", ts)
			}
			if ts.SideExits > 1 {
				t.Errorf("%d side exits, want at most 1 (the loop's end): an opExec left the trace", ts.SideExits)
			}
			switch {
			case v.fault:
				if resR.Reason != StopFault || resR.Fault.Kind != mmu.PF || ts.DeoptFault == 0 {
					t.Errorf("stop = %+v, deopt faults %d: want a #PF inside the trace", resR, ts.DeoptFault)
				}
			case resR.Reason != StopBreak:
				t.Errorf("stop = %+v, want the breakpoint at stop", resR)
			}
			if v.tick > 0 && (len(ticksR) == 0 || ts.DeoptTick == 0) {
				t.Errorf("%d ticks, %d tick deopts: want both > 0", len(ticksR), ts.DeoptTick)
			}
		})
	}
}

// TestTraceExecTerminalExits: a direct jmp, call or Jcc whose
// continuation cannot be fused (every target here carries a breakpoint,
// so no block is ever cached there) ends its trace as an opExec. Each
// must leave the trace exactly where Step leaves EIP, with exactly one
// side exit, whether the transfer is taken or not and also when its
// target is the fall-through.
func TestTraceExecTerminalExits(t *testing.T) {
	for _, c := range []struct {
		name, term string
		eax        uint32
	}{
		{"jmp", "jmp tgt", 0},
		{"jmp fall-through", "jmp fall", 0},
		{"call", "call tgt", 0},
		{"call fall-through", "call fall", 0},
		{"jcc taken", "je tgt", 1},
		{"jcc not taken", "je tgt", 0},
		{"jcc fall-through taken", "je fall", 1},
		{"jcc fall-through not taken", "je fall", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := `
				entry:
					add ebx, eax
					cmp eax, 1
					` + c.term + `
				fall:
					nop
				tgt:
					nop
			`
			hR, hS := newHarness(t), newHarness(t)
			var syms map[string]uint32
			for _, h := range []*harness{hR, hS} {
				syms = h.install(0x0001_0000, src)
				h.startUser(syms["entry"])
				h.m.SetBreak(syms["fall"])
				h.m.SetBreak(syms["tgt"])
				h.m.TraceThreshold = 2
				h.m.Regs[isa.EAX] = c.eax
			}
			// Two cold runs promote the block; the third runs its trace.
			for round := range 3 {
				for _, h := range []*harness{hR, hS} {
					h.m.EIP = syms["entry"]
					h.m.Regs[isa.ESP] = 0x0008_1000
				}
				ts0 := hR.m.TraceStats()
				// The budget turns a trace that runs past its exit into a
				// failure rather than a hang.
				resR := hR.m.Run(RunLimits{MaxInstructions: 64})
				resS := stepRun(hS.m, RunLimits{MaxInstructions: 64})
				if resR.Reason != StopBreak {
					t.Fatalf("round %d: stop = %+v, want a breakpoint", round, resR)
				}
				traceCompare(t, fmt.Sprintf("round %d", round), hR, hS, resR, resS)
				ts := hR.m.TraceStats()
				d, x := ts.Dispatches-ts0.Dispatches, ts.SideExits-ts0.SideExits
				if want := uint64(min(round, 1)); d != want || x != want {
					t.Errorf("round %d: %d trace dispatches, %d side exits: want %d of each", round, d, x, want)
				}
			}
		})
	}
}
