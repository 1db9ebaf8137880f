package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// traceOpEdges are the operand values every fused form runs on.
var traceOpEdges = []uint32{0, 1, 0x7F, 0x80, 0xFF, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF}

// traceOpSrc wraps form in a loop that the trace tier fuses whole.
// Every iteration loads eax from va, ebx from vb and the form's memory
// operand (the dword at buf, or the byte at buf+1 for byte forms) from
// vb, so the form runs on whatever the test stores there; a Jcc form
// first compares eax with ebx. Nothing in the loop but the form writes
// EFLAGS.
func traceOpSrc(form string, jcc bool) string {
	init := "mov [buf], ecx"
	if strings.Contains(form, "[buf+1]") {
		init = "mov [buf+1], ecx"
	}
	if jcc {
		form = "cmp eax, ebx\n" + form
	}
	return `
entry:
loop:
	mov eax, [va]
	mov ebx, [vb]
	mov ecx, [vb]
	` + init + `
	` + form + `
back:
	jmp loop
.data
buf: .space 16
ptr: .word back
va: .long 0
vb: .long 0
`
}

// traceOpCase is one loop program and the values of vb to run its
// form on (va takes every edge value).
type traceOpCase struct {
	name  string
	src   string
	bvals []uint32
}

// traceOpCases covers every form TestWorstChargeBoundsStep enumerates
// that the trace tier fuses — each opcode against register, immediate
// and memory operands, dword and byte, every Jcc, near jmp/call/ret —
// on the edge values, plus register-addressed memory forms whose
// address is an edge value, a page-straddling dword or a segment-limit
// violation. Far transfers, indirect transfers and hlt are never fused
// (the trace exits before them), so they are not trace ops.
func traceOpCases() []traceOpCase {
	var cases []traceOpCase
	seen := map[string]bool{}
	for _, c := range chargeForms() {
		if c.setup != nil || c.fault || seen[c.src] {
			continue
		}
		switch c.name {
		case "jmp r", "jmp m", "call r", "call m",
			"lret same-privilege", "lret imm same-privilege", "iret same-privilege":
			continue
		}
		seen[c.src] = true
		jcc := strings.HasPrefix(c.name, "j") && !strings.HasPrefix(c.name, "jmp")
		name := c.name
		if jcc {
			name = strings.Fields(c.name)[0]
		}
		cases = append(cases, traceOpCase{name: name, src: traceOpSrc(c.src, jcc), bvals: traceOpEdges})
	}
	// Register-addressed forms: ebx is the address. Besides the edge
	// values (unmapped pages, and 0xFFFF_FFFF past the 0xBFFF_FFFF
	// segment limit), the addresses include a dword straddling two
	// mapped data pages, one straddling the stack page into an unmapped
	// page, and one straddling the segment limit.
	for _, f := range []string{"mov eax, [ebx]", "mov [ebx], eax", "movb eax, [ebx]", "movb [ebx], eax",
		"add eax, [ebx]", "add [ebx], eax", "inc [ebx]", "shl [ebx], 3", "imul eax, [ebx]",
		"xchg eax, [ebx]", "xchg [ebx], eax", "push [ebx]", "pop [ebx]"} {
		if f == "pop [ebx]" {
			f = "push eax\nat: pop [ebx]"
		} else {
			f = "at: " + f
		}
		src := `
entry:
loop:
	mov eax, [va]
	mov ebx, [vb]
	` + f + `
back:
	jmp loop
.data
buf: .space 16
ptr: .word back
va: .long 0
vb: .long 0
`
		bvals := append([]uint32{straddleData, straddleStack, 0xBFFF_FFFE}, traceOpEdges...)
		cases = append(cases, traceOpCase{name: strings.TrimPrefix(f, "at: "), src: src, bvals: bvals})
	}
	return cases
}

// Straddling addresses for the register-addressed forms: resolved
// against the installed layout by traceOpMachine.
const (
	straddleData  = 0xD000_0001 // last 2 bytes of the data page + 2 of the next
	straddleStack = 0xD000_0002 // last 2 bytes of the stack page + 2 unmapped
)

// traceOpMachine loads a case's program at threshold 1 (Step never
// builds traces) with a second data page mapped after the first, so a
// dword can straddle two mapped pages.
func traceOpMachine(t *testing.T, src string) (*harness, map[string]uint32) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, src)
	h.mapAt(syms["buf"]&^uint32(mem.PageMask)+mem.PageSize, true, true)
	h.startUser(syms["loop"])
	h.m.TraceThreshold = 1
	return h, syms
}

// poke stores v at lin through the live translation, charging nothing.
func poke(t *testing.T, h *harness, lin, v uint32) {
	pa, ok := h.m.MMU.PeekPage(lin)
	if !ok {
		t.Fatalf("poke: %#x not mapped", lin)
	}
	h.m.Phys.Write32(pa, v)
}

// TestTraceOpMatchesExecute runs every fused form, on every pair of
// edge values, through a trace op and through execute (Step), and
// requires the same registers, flags, memory bytes, cycles, TLB
// statistics, instret and fault identity. The loop heats up for 20
// iterations; then the inputs change and execution stops right after
// the form's second run on them, by which time the trace runs the
// whole loop — so the form's last run is a trace op, and a fault
// deoptimizes the trace at it.
func TestTraceOpMatchesExecute(t *testing.T) {
	var ran, inTrace, faults, gpFaults, straddles int
	for _, c := range traceOpCases() {
		hR, syms := traceOpMachine(t, c.src)
		hS, _ := traceOpMachine(t, c.src)
		dataPage := syms["buf"] &^ uint32(mem.PageMask)
		addr := func(b uint32) uint32 {
			switch b {
			case straddleData:
				return dataPage + mem.PageSize - 2
			case straddleStack:
				return 0x0008_1000 - 2
			}
			return b
		}
		for _, a := range traceOpEdges {
			for _, b := range c.bvals {
				label := fmt.Sprintf("%s a=%#x b=%#x", c.name, a, addr(b))
				for _, h := range []*harness{hR, hS} {
					h.m.EIP = syms["loop"]
					h.m.Regs[isa.ESP] = 0x0008_1000 // pushes would accumulate across pairs
					poke(t, h, syms["va"], 0)
					poke(t, h, syms["vb"], syms["buf"])
				}
				// Warm-up: 20 iterations from loop, counted on Step.
				var warm uint64
				for visits := 0; visits < 20; {
					if stop, _ := hS.m.Step(); stop != nil {
						t.Fatalf("%s: warm-up stopped: %+v", label, stop)
					}
					warm++
					if hS.m.EIP == syms["loop"] {
						visits++
					}
				}
				if res := hR.m.Run(RunLimits{MaxInstructions: warm}); res.Reason != StopBudget || hR.m.EIP != syms["loop"] {
					t.Fatalf("%s: warm-up Run = %+v at %#x", label, res, hR.m.EIP)
				}
				for _, h := range []*harness{hR, hS} {
					poke(t, h, syms["va"], a)
					poke(t, h, syms["vb"], addr(b))
				}
				// Measured leg: Step until the form has run twice (or
				// faulted); Run retires the same instructions.
				resS := RunResult{Reason: StopBudget}
				var k uint64
				for passes := 0; passes < 2; {
					atForm := hS.m.EIP == syms["at"]
					stop, done := hS.m.Step()
					if done {
						k++
					}
					if stop != nil {
						resS = *stop
						k++ // the faulting instruction, which the budget must admit
						break
					}
					if atForm {
						passes++
					}
				}
				ts0 := hR.m.TraceStats()
				resR := hR.m.Run(RunLimits{MaxInstructions: k})
				ts := hR.m.TraceStats()
				traceCompare(t, label, hR, hS, resR, resS)
				for _, w := range []struct {
					lin uint32
					n   int
				}{{syms["buf"], 32}, {dataPage + mem.PageSize - 8, 16}, {0x0008_1000 - 64, 64}} {
					if r, s := readRange(t, hR, w.lin, w.n), readRange(t, hS, w.lin, w.n); string(r) != string(s) {
						t.Errorf("%s: memory at %#x: Run % x, Step % x", label, w.lin, r, s)
					}
				}
				if t.Failed() {
					t.FailNow()
				}
				ran++
				if ts.DeoptBudget+ts.DeoptFault > ts0.DeoptBudget+ts0.DeoptFault {
					inTrace++ // stopped by the trace itself, right after the form
				}
				if resR.Fault != nil {
					faults++
					if ts.DeoptFault == ts0.DeoptFault {
						t.Errorf("%s: fault %v did not deoptimize a trace", label, resR.Fault)
					}
					if resR.Fault.Kind == mmu.GP {
						gpFaults++
					}
				} else if b == straddleData {
					straddles++
				}
			}
		}
	}
	if inTrace < ran*9/10 {
		t.Errorf("only %d of %d runs ended inside a trace dispatch", inTrace, ran)
	}
	if faults == 0 || gpFaults == 0 || straddles == 0 {
		t.Errorf("faults %d (segment-limit #GP %d), straddling accesses %d: want each > 0", faults, gpFaults, straddles)
	}
}

// TestTraceTickSweepAcrossIteration sweeps the timer period across a
// loop iteration: every TickCycles from 1 to 3× the loop body's
// worst-case charge, so the deadline lands on every op boundary of one,
// two and three iterations after a proof. Run (whose trace carries the
// deadline proof across back-edges) and Step must fire the same ticks
// at the same clock readings and end in the same state. The loops are
// the canonical five-op loop and a one-op loop, whose back-edge jumps
// to itself. Under the zero-cost TLB-miss model the worst-case charges
// are exact (no page-head or walk allowance), so a back-edge that
// spends less slack than its iteration can charge lets a deadline pass
// unchecked.
func TestTraceTickSweepAcrossIteration(t *testing.T) {
	loops := []struct {
		name   string
		src    string
		budget uint64
	}{
		{"five-op loop", traceLoopSrc, 0},
		{"one-op loop", "entry:\nloop:\n\tjmp loop\nstop:\n\tnop\n", 2000},
	}
	for _, model := range []*cycles.Model{cycles.Measured(), cycles.Measured().WithCost(cycles.TLBMiss, 0)} {
		for _, l := range loops {
			var body float64 // worst-case charge of one loop iteration
			{
				h := newHarnessModel(t, model)
				syms := h.install(0x0001_0000, l.src)
				for lin := syms["loop"]; lin < syms["stop"]; lin += isa.InstrSlot {
					pa, _ := h.m.MMU.PeekPage(lin)
					body += worstCharge(h.m.code[pa], model)
				}
			}
			var deopts uint64
			for tick := 1.0; tick <= 3*body; tick++ {
				exec := func(runner func(*Machine, RunLimits) RunResult) (*harness, RunResult, []float64) {
					h := newHarnessModel(t, model)
					syms := h.install(0x0001_0000, l.src)
					h.startUser(syms["entry"])
					h.m.SetBreak(syms["stop"])
					h.m.TraceThreshold = 4
					h.m.TickCycles = tick
					var at []float64
					h.m.OnTick = func(m *Machine) error { at = append(at, m.Clock.Cycles()); return nil }
					return h, runner(h.m, RunLimits{MaxInstructions: l.budget}), at
				}
				hR, resR, atR := exec((*Machine).Run)
				hS, resS, atS := exec(stepRun)
				label := fmt.Sprintf("%s, tlb miss %v, tick %v", l.name, model.Cost(cycles.TLBMiss), tick)
				if len(atR) != len(atS) {
					t.Errorf("%s: %d ticks, Step %d", label, len(atR), len(atS))
				}
				for i := range min(len(atR), len(atS)) {
					if atR[i] != atS[i] {
						t.Errorf("%s: tick %d at cycle %v, Step %v", label, i, atR[i], atS[i])
						break
					}
				}
				traceCompare(t, label, hR, hS, resR, resS)
				if ts := hR.m.TraceStats(); ts.Dispatches == 0 {
					t.Errorf("%s: trace tier never engaged: %+v", label, ts)
				} else {
					deopts += ts.DeoptTick
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			if deopts == 0 {
				t.Errorf("%s, tlb miss %v: no deadline ever deoptimized a trace", l.name, model.Cost(cycles.TLBMiss))
			}
		}
	}
}
