package cpu

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/mmu"
)

// stepRun drives the machine with the uncached single-step path under
// the same stop conditions as Run, for equivalence comparisons.
func stepRun(m *Machine, lim RunLimits) RunResult {
	var res RunResult
	for {
		if lim.MaxInstructions > 0 && res.Instructions >= lim.MaxInstructions {
			res.Reason = StopBudget
			return res
		}
		stop, done := m.Step()
		if stop != nil {
			stop.Instructions += res.Instructions
			return *stop
		}
		if done {
			res.Instructions++
		}
	}
}

const equivalenceSrc = `
	entry:
		mov eax, 0
		mov ecx, 25
	loop:
		add eax, ecx
		mov [scratch], eax
		mov ebx, [scratch]
		call bump
		dec ecx
		jne loop
	stop:
		nop
	bump:
		inc edx
		ret
	.data
	scratch: .long 0
`

// TestRunMatchesStep pins the decoded-block cache to the uncached
// interpreter: the same program on two identical machines — one driven
// by Run, one by single Steps — must retire the same instruction
// count, charge the same simulated cycles, produce the same TLB
// hit/miss/flush statistics, fire the same number of timer ticks and
// end in the same architectural state.
func TestRunMatchesStep(t *testing.T) {
	exec := func(runner func(*Machine, RunLimits) RunResult) (*Machine, RunResult, int) {
		h := newHarness(t)
		syms := h.install(0x0001_0000, equivalenceSrc)
		h.startUser(syms["entry"])
		h.m.SetBreak(syms["stop"])
		ticks := 0
		h.m.TickCycles = 75
		h.m.OnTick = func(*Machine) error { ticks++; return nil }
		res := runner(h.m, RunLimits{MaxInstructions: 1000})
		return h.m, res, ticks
	}
	mRun, resRun, ticksRun := exec((*Machine).Run)
	mStep, resStep, ticksStep := exec(stepRun)

	if resRun.Reason != StopBreak || resStep.Reason != StopBreak {
		t.Fatalf("reasons = %v / %v, want breakpoint", resRun.Reason, resStep.Reason)
	}
	if resRun.Instructions != resStep.Instructions {
		t.Errorf("instructions: Run %d, Step %d", resRun.Instructions, resStep.Instructions)
	}
	if mRun.Instructions() != mStep.Instructions() {
		t.Errorf("instret: Run %d, Step %d", mRun.Instructions(), mStep.Instructions())
	}
	if a, b := mRun.Clock.Cycles(), mStep.Clock.Cycles(); a != b {
		t.Errorf("cycles: Run %v, Step %v", a, b)
	}
	rh, rm, rf := mRun.MMU.TLB().Stats()
	sh, sm, sf := mStep.MMU.TLB().Stats()
	if rh != sh || rm != sm || rf != sf {
		t.Errorf("TLB stats: Run %d/%d/%d, Step %d/%d/%d", rh, rm, rf, sh, sm, sf)
	}
	if ticksRun != ticksStep {
		t.Errorf("ticks: Run %d, Step %d", ticksRun, ticksStep)
	}
	if mRun.Regs != mStep.Regs || mRun.EIP != mStep.EIP || mRun.Flags != mStep.Flags {
		t.Errorf("state diverged: Run regs=%v eip=%#x, Step regs=%v eip=%#x",
			mRun.Regs, mRun.EIP, mStep.Regs, mStep.EIP)
	}
}

// runToStop executes from entry to the armed stop break and returns
// EAX.
func runToStop(t *testing.T, h *harness, entry uint32) uint32 {
	t.Helper()
	h.m.EIP = entry
	res := h.m.Run(RunLimits{MaxInstructions: 1000})
	if res.Reason != StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	return h.m.Reg(isa.EAX)
}

// TestBlockCacheSeesCodeMutation: rewriting an instruction that sits
// inside an already-executed (hence cached) block must be visible to
// the next run.
func TestBlockCacheSeesCodeMutation(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
			mov ebx, 2
		stop:
			nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	if got := runToStop(t, h, syms["entry"]); got != 1 {
		t.Fatalf("eax = %d, want 1", got)
	}
	pa, f := h.m.MMU.Translate(gsel(selXCode, 3), syms["entry"], 4, mmu.Execute, 3)
	if f != nil {
		t.Fatal(f)
	}
	h.m.InstallCode(pa, []isa.Instr{{Op: isa.MOV, Dst: isa.R(isa.EAX), Src: isa.I(42), Size: 4}})
	if got := runToStop(t, h, syms["entry"]); got != 42 {
		t.Errorf("eax after code mutation = %d, want 42", got)
	}
	h.m.RemoveCode(pa, 1)
	h.m.EIP = syms["entry"]
	if res := h.m.Run(RunLimits{MaxInstructions: 10}); res.Reason != StopFault || res.Fault.Kind != mmu.UD {
		t.Errorf("after RemoveCode: %+v, want #UD", res)
	}
}

// TestBlockCacheSeesNewBreakpoint: arming a breakpoint in the middle
// of a cached block must stop the very next run there.
func TestBlockCacheSeesNewBreakpoint(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
		mid:
			mov eax, 2
		stop:
			nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	runToStop(t, h, syms["entry"])

	h.m.SetBreak(syms["mid"])
	h.m.EIP = syms["entry"]
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopBreak || h.m.EIP != syms["mid"] {
		t.Fatalf("stop = %+v at %#x, want breakpoint at %#x", res, h.m.EIP, syms["mid"])
	}
	if got := h.m.Reg(isa.EAX); got != 1 {
		t.Errorf("eax = %d, want 1 (mid not executed)", got)
	}

	h.m.ClearBreak(syms["mid"])
	if got := runToStop(t, h, syms["entry"]); got != 2 {
		t.Errorf("eax after ClearBreak = %d, want 2", got)
	}
}

// TestBlockCacheSeesNewService: installing a trusted endpoint at an
// address inside a cached block must dispatch it on the next run.
func TestBlockCacheSeesNewService(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
		mid:
			mov eax, 2
		stop:
			nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	runToStop(t, h, syms["entry"])

	sentinel := errors.New("service ran")
	h.m.RegisterService(syms["mid"], &Service{
		Name: "probe", Kind: ServiceCallGate,
		Handler: func(*Machine) error { return sentinel },
	})
	h.m.EIP = syms["entry"]
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopError || !errors.Is(res.Err, sentinel) {
		t.Fatalf("stop = %+v err=%v, want service sentinel", res, res.Err)
	}

	h.m.UnregisterService(syms["mid"])
	if got := runToStop(t, h, syms["entry"]); got != 2 {
		t.Errorf("eax after UnregisterService = %d, want 2", got)
	}
}

// TestBlockCacheSeesInvalidatePage: remapping an executed code page is
// honoured lazily (stale TLB, as on hardware) and becomes visible to
// the next run after InvalidatePage.
func TestBlockCacheSeesInvalidatePage(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
		stop:
			nop
	`)
	// A second frame holding "mov eax, 99; nop" for the same linear
	// page, installed up front so only the remap is under test.
	alt, err := h.alloc.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	h.m.InstallCode(alt, []isa.Instr{
		{Op: isa.MOV, Dst: isa.R(isa.EAX), Src: isa.I(99), Size: 4},
		{Op: isa.NOP},
	})
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	if got := runToStop(t, h, syms["entry"]); got != 1 {
		t.Fatalf("eax = %d, want 1", got)
	}

	// Remap without invlpg: the stale translation keeps executing the
	// old frame, exactly as a hardware TLB would.
	if err := h.as.Map(0x0001_0000, alt, false, true); err != nil {
		t.Fatal(err)
	}
	if got := runToStop(t, h, syms["entry"]); got != 1 {
		t.Errorf("eax after remap without invlpg = %d, want stale 1", got)
	}

	h.m.MMU.InvalidatePage(0x0001_0000)
	if got := runToStop(t, h, syms["entry"]); got != 99 {
		t.Errorf("eax after InvalidatePage = %d, want 99", got)
	}
}

// TestBlockCacheSeesLoadCR3: switching address spaces must be visible
// to the next run even when the linear addresses coincide.
func TestBlockCacheSeesLoadCR3(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
		stop:
			nop
	`)
	as2, err := mmu.NewAddressSpace(h.m.Phys, h.alloc)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := h.alloc.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	h.m.InstallCode(alt, []isa.Instr{
		{Op: isa.MOV, Dst: isa.R(isa.EAX), Src: isa.I(7), Size: 4},
		{Op: isa.NOP},
	})
	if err := as2.Map(0x0001_0000, alt, false, true); err != nil {
		t.Fatal(err)
	}
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	if got := runToStop(t, h, syms["entry"]); got != 1 {
		t.Fatalf("eax = %d, want 1", got)
	}

	h.m.MMU.LoadCR3(as2)
	if got := runToStop(t, h, syms["entry"]); got != 7 {
		t.Errorf("eax after LoadCR3 = %d, want 7", got)
	}

	h.m.MMU.LoadCR3(h.as)
	if got := runToStop(t, h, syms["entry"]); got != 1 {
		t.Errorf("eax after switching back = %d, want 1", got)
	}
}

// TestBlockCacheSeesDescriptorMutation: rewriting the code-segment
// descriptor (here: shrinking its limit below EIP) must invalidate
// cached decode state.
func TestBlockCacheSeesDescriptorMutation(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
		stop:
			nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	runToStop(t, h, syms["entry"])

	h.m.MMU.GDT.Set(selXCode, mmu.Descriptor{
		Kind: mmu.SegCode, Base: 0, Limit: 0x100, DPL: 3, Present: true, Readable: true,
	})
	h.m.EIP = syms["entry"]
	res := h.m.Run(RunLimits{MaxInstructions: 10})
	if res.Reason != StopFault || res.Fault.Kind != mmu.GP {
		t.Fatalf("stop after descriptor shrink = %+v, want #GP", res)
	}
}

// TestFirstTickDeferred is the regression test for the tick scheduler:
// the first OnTick must not fire before TickCycles simulated cycles
// have elapsed (it used to fire on the very first instruction, because
// the first deadline was left at cycle zero).
func TestFirstTickDeferred(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
		spin:
			jmp spin
	`)
	h.startUser(syms["entry"])
	ticks := 0
	var firstTickAt float64
	h.m.TickCycles = 50
	h.m.OnTick = func(m *Machine) error {
		if ticks == 0 {
			firstTickAt = m.Clock.Cycles()
		}
		ticks++
		return errors.New("stop")
	}
	start := h.m.Clock.Cycles()

	// One instruction retires without a tick.
	if res := h.m.Run(RunLimits{MaxInstructions: 1}); res.Reason != StopBudget {
		t.Fatalf("stop = %+v", res)
	}
	if ticks != 0 {
		t.Fatalf("tick fired after the first instruction (%d ticks)", ticks)
	}

	// Spin until the hook fires; a full period must have elapsed.
	if res := h.m.Run(RunLimits{MaxInstructions: 100000}); res.Reason != StopError {
		t.Fatalf("stop = %+v", res)
	}
	if ticks != 1 {
		t.Fatalf("ticks = %d, want 1", ticks)
	}
	if elapsed := firstTickAt - start; elapsed < h.m.TickCycles {
		t.Errorf("first tick after %.0f cycles, want >= %.0f", elapsed, h.m.TickCycles)
	}
}

// BenchmarkRunHotLoop measures the interpreter's sustained
// instructions-per-second on a tight compute loop — the path the
// decoded-block cache accelerates.
func BenchmarkRunHotLoop(b *testing.B) {
	h := newHarness(b)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 0
			mov ecx, 1000
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
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	b.ResetTimer()
	var instr uint64
	chains0, fast0 := h.m.ChainStats()
	for i := 0; i < b.N; i++ {
		h.m.EIP = syms["entry"]
		res := h.m.Run(RunLimits{})
		if res.Reason != StopBreak {
			b.Fatalf("stop = %+v", res)
		}
		instr += res.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	chains, fast := h.m.ChainStats()
	b.ReportMetric(float64(chains-chains0)/float64(b.N), "chain-hits/op")
	b.ReportMetric(float64(fast-fast0)/float64(instr)*100, "fastpath-pct")
}

// TestBlockIndexSeparatesNearbyStarts: any two block starts fewer than
// 987 instruction slots apart map to different cache slots, wherever
// they sit in the linear address space.
func TestBlockIndexSeparatesNearbyStarts(t *testing.T) {
	for _, base := range []uint32{0, 0x0001_0000, 0xC400_0000, 0xC801_0000, 0xFFFF_F000} {
		for d := uint32(1); d < 987; d++ {
			a, b := base, base+d*isa.InstrSlot
			if blockIndex(a) == blockIndex(b) {
				t.Fatalf("blocks at %#x and %#x (%d slots apart) share cache slot %d", a, b, d, blockIndex(a))
			}
		}
	}
}

// TestBlockCacheNoAliasAt8KiB pins the hashed block-cache index. A
// protected kernel-extension call runs the kernel's Prepare stub at
// linear 0xC4000000 (kernel CS), then the extension's entry at
// 0xC8010000 and its next page at 0xC8012000 (extension CS). All three
// are congruent mod 8 KiB, so a low-bits index put them in one slot
// and every call rebuilt all three blocks. Run alternately, they must
// stay cached: after the first round the build count is flat.
func TestBlockCacheNoAliasAt8KiB(t *testing.T) {
	h := newHarness(t)
	const selExt = 9 // extension code segment, selector 0x49 at RPL 1
	h.m.MMU.GDT.Set(selExt, mmu.Descriptor{Kind: mmu.SegCode, Base: 0xC801_0000,
		Limit: 0x3FFF, DPL: 1, Present: true, Readable: true})
	kcs, xcs := gsel(selKCode, 0), gsel(selExt, 1)

	type site struct {
		cs  mmu.Selector
		eip uint32 // segment-relative entry
		lin uint32
	}
	sites := []site{
		{kcs, 0x0400_0000, 0xC400_0000},
		{xcs, 0x0000_0000, 0xC801_0000},
		{xcs, 0x0000_2000, 0xC801_2000},
	}
	for i, s := range sites {
		pa := h.mapAt(s.lin, false, false)
		h.m.InstallCode(pa, []isa.Instr{
			{Op: isa.ADD, Dst: isa.R(isa.EAX), Src: isa.I(int32(i + 1)), Size: 4},
			{Op: isa.NOP},
			{Op: isa.NOP}, // stop: armed below
		})
		h.m.SetBreak(s.lin + 2*isa.InstrSlot)
	}

	builds := func() uint64 { _, b, _ := h.m.BlockCacheStats(); return b }
	var afterFirst uint64
	for round := range 50 {
		for _, s := range sites {
			h.m.CS, h.m.EIP = s.cs, s.eip
			if res := h.m.Run(RunLimits{MaxInstructions: 100}); res.Reason != StopBreak {
				t.Fatalf("round %d at %#x: stop = %+v err=%v", round, s.lin, res, res.Err)
			}
		}
		if round == 0 {
			afterFirst = builds()
		}
	}
	if got, want := h.m.Reg(isa.EAX), uint32(50*(1+2+3)); got != want {
		t.Errorf("eax = %d, want %d", got, want)
	}
	if got := builds(); got != afterFirst {
		t.Errorf("blocks at 8 KiB-congruent addresses evict each other: %d builds after round 1, %d after 50",
			afterFirst, got)
	}
}
