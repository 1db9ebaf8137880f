package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mmu"
)

// hotLoopSrc is a small compute loop whose body block exits through a
// taken conditional branch back to itself, so Run dispatches the same
// cached block once per iteration.
const hotLoopSrc = `
	entry:
		mov eax, 0
		mov ecx, 50
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

// TestColdBlocksRunThroughStep: below TraceThreshold, Run executes
// each dispatched block's slots through Step, so the hot loop's 50
// dispatches of its body block leave exactly what a Step-only run
// leaves (result, clock, retired instructions, TLB statistics,
// registers), with no trace dispatch and no guaranteed-hit fetch.
// Warmed past the threshold, the same loop runs through its trace.
func TestColdBlocksRunThroughStep(t *testing.T) {
	hRun, syms, resRun := traceExec(t, (*Machine).Run, hotLoopSrc, defaultTraceThreshold)
	hStep, _, resStep := traceExec(t, stepRun, hotLoopSrc, defaultTraceThreshold)
	if resRun.Reason != StopBreak {
		t.Fatalf("stop = %+v", resRun)
	}
	traceCompare(t, "cold", hRun, hStep, resRun, resStep)
	if got, want := hRun.m.Reg(isa.EAX), uint32(50*51/2); got != want {
		t.Errorf("eax = %d, want %d", got, want)
	}
	if ts := hRun.m.TraceStats(); ts.Built != 0 || ts.Dispatches != 0 {
		t.Errorf("cold loop engaged the trace tier: %+v", ts)
	}
	if _, fast := hRun.m.ChainStats(); fast != 0 {
		t.Errorf("cold loop counted %d guaranteed-hit fetches, want 0", fast)
	}

	// Two more runs carry the body block past the threshold.
	for range 2 {
		if got, want := runToStop(t, hRun, syms["entry"]), uint32(50*51/2); got != want {
			t.Errorf("warm eax = %d, want %d", got, want)
		}
	}
	if ts := hRun.m.TraceStats(); ts.Dispatches == 0 {
		t.Errorf("warmed loop never dispatched a trace: %+v", ts)
	}
}

// TestBlockDispatchHonoursSetBreak: arming a breakpoint at the entry of
// a cached block must stop the very next run there — dispatching the
// warm block may not skip the entry checks.
func TestBlockDispatchHonoursSetBreak(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, hotLoopSrc)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	runToStop(t, h, syms["entry"]) // builds the loop's blocks

	h.m.SetBreak(syms["loop"])
	h.m.EIP = syms["entry"]
	res := h.m.Run(RunLimits{MaxInstructions: 10_000})
	if res.Reason != StopBreak || h.m.EIP != syms["loop"] {
		t.Fatalf("stop = %+v at %#x, want breakpoint at %#x", res, h.m.EIP, syms["loop"])
	}

	h.m.ClearBreak(syms["loop"])
	if got, want := runToStop(t, h, syms["entry"]), uint32(50*51/2); got != want {
		t.Errorf("eax after ClearBreak = %d, want %d", got, want)
	}
}

// TestBlockSeesInstallCodeOnSuccessor: rewriting the first instruction
// of a cached jump target must be honoured by the next run even though
// the old block for that target was cached.
func TestBlockSeesInstallCodeOnSuccessor(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
			mov eax, 1
			jmp next
		next:
			mov ebx, 2
		stop:
			nop
	`)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	runToStop(t, h, syms["entry"]) // caches the entry and next blocks

	pa, f := h.m.MMU.Translate(gsel(selXCode, 3), syms["next"], 4, mmu.Execute, 3)
	if f != nil {
		t.Fatal(f)
	}
	h.m.InstallCode(pa, []isa.Instr{{Op: isa.MOV, Dst: isa.R(isa.EBX), Src: isa.I(77), Size: 4}})
	runToStop(t, h, syms["entry"])
	if got := h.m.Reg(isa.EBX); got != 77 {
		t.Errorf("ebx after InstallCode over cached successor = %d, want 77", got)
	}
}

// TestBlockSurvivesInvalidatePage pins the generation split: a pure
// paging event (invlpg) must NOT rebuild cached blocks — the live
// page-level check follows it — so a serving loop that flips page
// privileges per request keeps its decoded blocks.
func TestBlockSurvivesInvalidatePage(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, hotLoopSrc)
	h.startUser(syms["entry"])
	h.m.SetBreak(syms["stop"])
	want := runToStop(t, h, syms["entry"])
	_, builds0, _ := h.m.BlockCacheStats()

	h.m.MMU.InvalidatePage(syms["loop"])
	if got := runToStop(t, h, syms["entry"]); got != want {
		t.Errorf("eax after InvalidatePage = %d, want %d", got, want)
	}
	if _, builds1, _ := h.m.BlockCacheStats(); builds1 != builds0 {
		t.Errorf("InvalidatePage rebuilt blocks (%d -> %d builds); paging events must not flush the block cache",
			builds0, builds1)
	}
}

// TestBlockBailsOnLoadCR3MidRun: a CR3 load fired from the timer hook
// while a cached block runs must be honoured — the next fetch executes
// whatever the new address space maps, exactly as stepping uncached
// would.
func TestBlockBailsOnLoadCR3MidRun(t *testing.T) {
	h := newHarness(t)
	syms := h.install(0x0001_0000, `
		entry:
		spin:
			add eax, 1
			jmp spin
	`)
	// A second address space mapping different code at the same linear
	// page: "mov ebx, 9; hlt-substitute" — use a self-loop that sets
	// EBX so the redirect is observable.
	as2, err := mmu.NewAddressSpace(h.m.Phys, h.alloc)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := h.alloc.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	h.m.InstallCode(alt, []isa.Instr{
		{Op: isa.MOV, Dst: isa.R(isa.EBX), Src: isa.I(9), Size: 4},
		{Op: isa.JMP, Dst: isa.I(int32(syms["entry"]) + 4)},
	})
	if err := as2.Map(0x0001_0000, alt, false, true); err != nil {
		t.Fatal(err)
	}

	h.startUser(syms["entry"])
	fired := false
	h.m.TickCycles = 200
	h.m.OnTick = func(m *Machine) error {
		if !fired {
			fired = true
			m.MMU.LoadCR3(as2)
		}
		return nil
	}
	res := h.m.Run(RunLimits{MaxInstructions: 2_000})
	if res.Reason != StopBudget {
		t.Fatalf("stop = %+v", res)
	}
	if !fired {
		t.Fatal("tick hook never fired")
	}
	if got := h.m.Reg(isa.EBX); got != 9 {
		t.Errorf("ebx = %d, want 9 (CR3 switch mid-run not honoured)", got)
	}
}

// TestSubstitutedSlotTickParity: when a code page is remapped under a
// cached block (invlpg'd, so the live page check sees the new frame
// while the block survives — pa != slot.pa per slot), the substituted
// instructions' charges are NOT bounded by the cached slots' worst
// case, so the batched deadline horizon must be discarded: timer ticks
// must fire at exactly the instruction boundaries the uncached
// interpreter fires them at. Regression test for a stale-horizon bug
// found in review.
func TestSubstitutedSlotTickParity(t *testing.T) {
	const codePage = uint32(0x0001_0000)
	exec := func(runner func(*Machine, RunLimits) RunResult) (*Machine, int) {
		h := newHarness(t)
		syms := h.install(codePage, `
			entry:
				nop
				nop
				nop
				nop
				nop
				nop
				nop
				nop
				nop
				nop
				nop
				nop
				jmp stop
			stop:
				nop
		`)
		h.startUser(syms["entry"])
		h.m.SetBreak(syms["stop"])
		res := runner(h.m, RunLimits{MaxInstructions: 1000})
		if res.Reason != StopBreak {
			t.Fatalf("warm run stop = %+v", res)
		}
		// Remap the code page to an expensive variant (imul charges 10
		// cycles where the cached slot budgeted a 1-cycle nop) and
		// invlpg, so the next run substitutes live instructions into
		// the surviving block.
		alt, err := h.alloc.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		expensive := make([]isa.Instr, 13)
		for i := 0; i < 12; i++ {
			expensive[i] = isa.Instr{Op: isa.IMUL, Dst: isa.R(isa.EBX), Src: isa.R(isa.EBX), Size: 4}
		}
		expensive[12] = isa.Instr{Op: isa.JMP, Dst: isa.I(int32(syms["stop"]))}
		h.m.InstallCode(alt, expensive)
		if err := h.as.Map(codePage, alt, false, true); err != nil {
			t.Fatal(err)
		}
		h.m.MMU.InvalidatePage(codePage)

		ticks := 0
		h.m.TickCycles = 15
		h.m.OnTick = func(*Machine) error { ticks++; return nil }
		h.m.EIP = syms["entry"]
		if res := runner(h.m, RunLimits{MaxInstructions: 1000}); res.Reason != StopBreak {
			t.Fatalf("substituted run stop = %+v", res)
		}
		return h.m, ticks
	}
	mRun, ticksRun := exec((*Machine).Run)
	mStep, ticksStep := exec(stepRun)
	if ticksRun != ticksStep {
		t.Errorf("ticks: Run %d, Step %d", ticksRun, ticksStep)
	}
	if a, b := mRun.Clock.Cycles(), mStep.Clock.Cycles(); a != b {
		t.Errorf("cycles: Run %v, Step %v", a, b)
	}
	if a, b := mRun.Instructions(), mStep.Instructions(); a != b {
		t.Errorf("instret: Run %d, Step %d", a, b)
	}
}

// TestColdTLBTickParity: the batched deadline horizon must account
// for the fetch-side TLB-miss walk a page-run head can charge. With a
// cold TLB (flushed by a CR3 reload) the block head's CheckPage
// charges a 24-cycle walk the compiled instruction charges alone
// would not predict; ticks must still fire at exactly the boundaries
// the uncached interpreter fires them at. Regression test for a
// stale-horizon bug found in review.
func TestColdTLBTickParity(t *testing.T) {
	for _, tick := range []float64{5, 27, 53, 121} {
		exec := func(runner func(*Machine, RunLimits) RunResult) (*Machine, int) {
			h := newHarness(t)
			syms := h.install(0x0001_0000, hotLoopSrc)
			h.startUser(syms["entry"])
			h.m.SetBreak(syms["stop"])
			if res := runner(h.m, RunLimits{MaxInstructions: 10_000}); res.Reason != StopBreak {
				t.Fatalf("warm run stop = %+v", res)
			}
			// Flush the TLB under the surviving block cache, then run
			// with a tick period that lands inside the refill walks.
			h.m.MMU.LoadCR3(h.as)
			ticks := 0
			h.m.TickCycles = tick
			h.m.OnTick = func(*Machine) error { ticks++; return nil }
			h.m.EIP = syms["entry"]
			if res := runner(h.m, RunLimits{MaxInstructions: 10_000}); res.Reason != StopBreak {
				t.Fatalf("cold run stop = %+v", res)
			}
			return h.m, ticks
		}
		mRun, ticksRun := exec((*Machine).Run)
		mStep, ticksStep := exec(stepRun)
		if ticksRun != ticksStep {
			t.Errorf("tick=%v: ticks: Run %d, Step %d", tick, ticksRun, ticksStep)
		}
		if a, b := mRun.Clock.Cycles(), mStep.Clock.Cycles(); a != b {
			t.Errorf("tick=%v: cycles: Run %v, Step %v", tick, a, b)
		}
		if a, b := mRun.Instructions(), mStep.Instructions(); a != b {
			t.Errorf("tick=%v: instret: Run %d, Step %d", tick, a, b)
		}
	}
}

// TestChainHostileRegressionSeeds deterministically selects seeds
// whose scripted event streams contain each block-hostile event kind
// (4 = LoadCR3 from the tick hook mid-block, 5 = RemoveCode over a
// cached jump target, 6 = InstallCode over a cached jump target) and
// replays the full Run-vs-Step differential on them. Since diffExec
// runs with a hair-trigger TraceThreshold, the same events are also
// trace-hostile: each strikes while fused superblocks are live, so
// these replays pin the trace tier's invalidation and deopt paths too.
// The replays leave reset events out, so no reset moves a hostile
// event. (The name, and its seeded subtests', is kept from when these
// events struck chained blocks.)
func TestChainHostileRegressionSeeds(t *testing.T) {
	const base, span, perKind = int64(59990000), int64(4000), 2
	found := map[int][]int64{}
	covered := func() bool {
		return len(found[4]) >= perKind && len(found[5]) >= perKind && len(found[6]) >= perKind
	}
	for seed := base; seed < base+span && !covered(); seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, nblocks := genProgram(rng)
		for _, ev := range genEvents(rng, nblocks) {
			if ev.kind >= 4 && len(found[ev.kind]) < perKind {
				found[ev.kind] = append(found[ev.kind], seed)
				break
			}
		}
	}
	if !covered() {
		t.Fatalf("seed scan did not cover every block-hostile kind: %v", found)
	}
	for kind := 4; kind <= 6; kind++ {
		for _, seed := range found[kind] {
			t.Run(fmt.Sprintf("kind%d/seed%d", kind, seed), func(t *testing.T) {
				diffCheck(t, seed, false)
			})
		}
	}
}
