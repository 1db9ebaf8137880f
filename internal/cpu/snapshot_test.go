package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mmu"
)

// snapMetrics gathers every simulated metric a rewind promises to
// preserve: instructions, cycles, TLB statistics,
// registers, flags, memory and the final stop result (faults
// included).
type snapMetrics struct {
	instret      uint64
	cycles       float64
	hits, misses uint64
	flushes      uint64
	regs         [8]uint32
	eip          uint32
	flags        Flags
	memFP        uint64
	reason       StopReason
}

func capture(m *Machine, stop RunResult) snapMetrics {
	h, ms, fl := m.MMU.TLB().Stats()
	return snapMetrics{
		instret: m.Instructions(),
		cycles:  m.Clock.Cycles(),
		hits:    h, misses: ms, flushes: fl,
		regs: m.Regs, eip: m.EIP, flags: m.Flags,
		memFP:  m.Phys.Fingerprint(),
		reason: stop.Reason,
	}
}

const snapRetBreak = 0x7000 // sentinel return address armed as a breakpoint

// prepRun points the machine at start with a mapped stack and the
// sentinel return address on it.
func prepRun(t *testing.T, h *harness, start uint32) {
	t.Helper()
	m := h.m
	m.CS, m.DS, m.SS = gsel(selACode, 2), gsel(selAData, 2), gsel(selAData, 2)
	m.EIP = start
	m.Regs[isa.ESP] = 0xB000
	if f := m.Push(snapRetBreak); f != nil {
		t.Fatal(f)
	}
	m.SetBreak(snapRetBreak)
}

// TestSnapshotRestoreRunBitIdentical is the machine-level determinism
// anchor: running to completion after a reset onto a clone frozen
// mid-run is bit-identical — instructions, cycles, TLB statistics,
// registers, flags, memory and the final stop — to running through
// uninterrupted.
func TestSnapshotRestoreRunBitIdentical(t *testing.T) {
	build := func() *harness {
		h := newHarness(t)
		h.mapAt(0x8000, false, true)
		h.mapAt(0x9000, true, true)
		h.mapAt(0xA000, true, true) // stack
		syms := h.install(0x8000, `
			.global start
			start:
				mov ecx, 200
				mov eax, 0
			loop:
				add eax, ecx
				mov [0x9000], eax
				mov edx, [0x9000]
				dec ecx
				cmp ecx, 0
				jne loop
				mov [0x9ffc], eax    ; second word dirtied near the end
				ret
		`)
		prepRun(t, h, syms["start"])
		return h
	}

	// Uninterrupted reference run.
	ref := build()
	refStop := ref.m.Run(RunLimits{})
	if refStop.Reason != StopBreak {
		t.Fatalf("reference run stopped with %v (%v)", refStop.Reason, refStop.Err)
	}
	want := capture(ref.m, refStop)

	// Interrupted run: execute ~half, freeze a clone, finish once,
	// reset onto the clone, finish again. Both finishes must equal the
	// reference.
	h := build()
	mid := h.m.Run(RunLimits{MaxInstructions: 300})
	if mid.Reason != StopBudget {
		t.Fatalf("mid run stopped with %v", mid.Reason)
	}
	frozen := h.clone()
	defer frozen.m.Phys.Release()

	stop1 := h.m.Run(RunLimits{})
	if got1 := capture(h.m, stop1); got1 != want {
		t.Errorf("first finish diverged:\n got %+v\nwant %+v", got1, want)
	}

	h.resetTo(frozen)
	stop2 := h.m.Run(RunLimits{})
	if got2 := capture(h.m, stop2); got2 != want {
		t.Errorf("post-reset finish diverged:\n got %+v\nwant %+v", got2, want)
	}
}

// TestRestoreUndoesCodeAndBreakpointChanges pins the staleness
// contract: code installed after a clone is frozen vanishes on a reset
// onto it, and decoded blocks from the abandoned timeline never
// execute (a reset over a different code map drops them).
func TestRestoreUndoesCodeAndBreakpointChanges(t *testing.T) {
	h := newHarness(t)
	h.mapAt(0x8000, false, true)
	h.mapAt(0xA000, true, true) // stack
	syms := h.install(0x8000, `
		.global start
		start:
			mov eax, 1
			ret
	`)
	m := h.m
	prepRun(t, h, syms["start"])

	frozen := h.clone()
	defer frozen.m.Phys.Release()

	// Divergent timeline: overwrite the first instruction and run.
	pa, ok := m.MMU.PeekPage(syms["start"])
	if !ok {
		t.Fatal("start page not mapped")
	}
	m.InstallCode(pa, []isa.Instr{{Op: isa.MOV, Dst: isa.R(isa.EAX), Src: isa.I(42), Size: 4}})
	res := m.Run(RunLimits{})
	if res.Reason != StopBreak {
		t.Fatalf("divergent run: %v (%v), want breakpoint", res.Reason, res.Err)
	}
	if m.Reg(isa.EAX) != 42 {
		t.Fatalf("divergent run EAX = %d, want 42", m.Reg(isa.EAX))
	}

	h.resetTo(frozen)
	res = m.Run(RunLimits{})
	if res.Reason != StopBreak {
		t.Fatalf("reset run: %v (%v), want breakpoint", res.Reason, res.Err)
	}
	if m.Reg(isa.EAX) != 1 {
		t.Errorf("reset run EAX = %d, want 1 (original code)", m.Reg(isa.EAX))
	}
}

// TestCloneMachineRunsIndependently checks a cloned machine executes
// from the clone point with identical results while the source stays
// untouched, and that their memories diverge independently.
func TestCloneMachineRunsIndependently(t *testing.T) {
	h := newHarness(t)
	h.mapAt(0x8000, false, true)
	h.mapAt(0x9000, true, true)
	h.mapAt(0xA000, true, true) // stack
	syms := h.install(0x8000, `
		.global start
		start:
			mov eax, [0x9000]
			add eax, 5
			mov [0x9000], eax
			ret
	`)
	prepRun(t, h, syms["start"])
	m := h.m

	phys2 := m.Phys.Clone()
	clock2 := m.Clock.Clone()
	mu2 := m.MMU.Clone(phys2, clock2)
	mu2.AdoptSpace(mmu.AdoptAddressSpace(phys2, h.alloc.Clone(), h.as.CR3()))
	m2 := m.Clone(phys2, mu2, clock2)

	if res := m2.Run(RunLimits{}); res.Reason != StopBreak {
		t.Fatalf("clone run: %v (%v)", res.Reason, res.Err)
	}
	if res := m.Run(RunLimits{}); res.Reason != StopBreak {
		t.Fatalf("source run: %v (%v)", res.Reason, res.Err)
	}
	if m.Reg(isa.EAX) != m2.Reg(isa.EAX) {
		t.Errorf("EAX diverged: source %d clone %d", m.Reg(isa.EAX), m2.Reg(isa.EAX))
	}
	if m.Instructions() != m2.Instructions() || m.Clock.Cycles() != m2.Clock.Cycles() {
		t.Errorf("counters diverged: %d/%v vs %d/%v",
			m.Instructions(), m.Clock.Cycles(), m2.Instructions(), m2.Clock.Cycles())
	}
	if m.Phys.Fingerprint() != m2.Phys.Fingerprint() {
		t.Errorf("memory fingerprints diverged after identical runs")
	}
}
