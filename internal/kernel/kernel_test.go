package kernel

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

func boot(t *testing.T) *Kernel {
	t.Helper()
	k, err := New(cycles.Measured())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func bootWithProc(t *testing.T) (*Kernel, *Process) {
	t.Helper()
	k := boot(t)
	p, err := k.CreateProcess()
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

// installUser assembles src, resolves symbols at textBase (text) and
// the page after text (data), maps the pages PPL1 and installs the
// code. A minimal stand-in for the loader, keeping this package's
// tests self-contained.
func installUser(t *testing.T, k *Kernel, p *Process, textBase uint32, src string) map[string]uint32 {
	t.Helper()
	obj := isa.MustAssemble("t", src).Clone()
	dataBase := textBase + ((obj.TextBytes() + 0xFFF) &^ 0xFFF)
	addrOf := func(name string) uint32 {
		s := obj.Symbol(name)
		if s == nil || s.Section == isa.SecUndef {
			t.Fatalf("undefined symbol %q", name)
		}
		if s.Section == isa.SecText {
			return textBase + s.Off
		}
		return dataBase + s.Off
	}
	for _, r := range obj.Relocs {
		v := int32(addrOf(r.Sym)) + r.Addend
		switch r.Slot {
		case isa.RelDstDisp:
			obj.Text[r.Index].Dst.Disp += v
		case isa.RelSrcDisp:
			obj.Text[r.Index].Src.Disp += v
		case isa.RelDstImm:
			obj.Text[r.Index].Dst.Imm += v
		case isa.RelSrcImm:
			obj.Text[r.Index].Src.Imm += v
		}
	}
	if _, err := p.MmapPPL1(k, textBase, obj.TextBytes(), false, "text"); err != nil {
		t.Fatal(err)
	}
	if err := p.Touch(k, textBase, obj.TextBytes()); err != nil {
		t.Fatal(err)
	}
	for i := range obj.Text {
		lin := textBase + uint32(i)*isa.InstrSlot
		e := p.AS.Lookup(lin)
		k.Machine.InstallCode(e.Frame()|lin&mem.PageMask, obj.Text[i:i+1])
	}
	dlen := uint32(len(obj.Data)) + obj.BSSSize
	if dlen > 0 {
		if _, err := p.MmapPPL1(k, dataBase, dlen, true, "data"); err != nil {
			t.Fatal(err)
		}
		if err := k.CopyToUser(p, dataBase, append(obj.Data, make([]byte, obj.BSSSize)...)); err != nil {
			t.Fatal(err)
		}
	}
	syms := map[string]uint32{}
	for n, s := range obj.Symbols {
		if s.Section != isa.SecUndef {
			syms[n] = addrOf(n)
		}
	}
	return syms
}

// startUser points the machine at user code for process p.
func startUser(t *testing.T, k *Kernel, p *Process, entry uint32) {
	t.Helper()
	if err := p.Touch(k, StackTop-mem.PageSize, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	m := k.Machine
	m.CS = UCodeSel
	m.DS = UDataSel
	m.SS = UDataSel
	m.EIP = entry
	m.Regs[isa.ESP] = StackTop
}

func TestBootLayout(t *testing.T) {
	k := boot(t)
	kc := k.MMU.GDT.Get(SelKCode)
	if kc.Base != KernelBase || kc.Limit != KernelLimit || kc.DPL != 0 {
		t.Errorf("kernel code descriptor = %+v", kc)
	}
	uc := k.MMU.GDT.Get(SelUCode)
	if uc.Base != 0 || uc.Limit != UserLimit || uc.DPL != 3 {
		t.Errorf("user code descriptor = %+v", uc)
	}
	ac := k.MMU.GDT.Get(SelACode)
	if ac.DPL != 2 {
		t.Errorf("app code DPL = %d, want 2 (Palladium SPL 2)", ac.DPL)
	}
	if _, ok := k.Machine.IDT[VecSyscall]; !ok {
		t.Error("syscall gate missing")
	}
	if g := k.Machine.IDT[VecKernelSvc]; g.DPL != 1 {
		t.Errorf("kernel-service gate DPL = %d, want 1 (extensions only)", g.DPL)
	}
}

func TestProcessCreationAndDemandPaging(t *testing.T) {
	k, p := bootWithProc(t)
	if p.TaskSPL != 3 {
		t.Errorf("new process taskSPL = %d, want 3", p.TaskSPL)
	}
	addr, err := p.Mmap(k, 0, 3*mem.PageSize, true, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if p.AS.Lookup(addr).Present() {
		t.Error("mmap must not eagerly map pages (demand paging)")
	}
	ok, err := p.FaultIn(k, addr+mem.PageSize)
	if !ok || err != nil {
		t.Fatalf("FaultIn = %v, %v", ok, err)
	}
	e := p.AS.Lookup(addr + mem.PageSize)
	if !e.Present() || !e.Writable() || !e.User() {
		t.Errorf("faulted page = %+v, want present+writable+PPL1 (taskSPL 3)", e)
	}
}

func TestMmapPPLRuleAtSPL2(t *testing.T) {
	k, p := bootWithProc(t)
	if err := k.InitPL(p); err != nil {
		t.Fatal(err)
	}
	// Writable pages of an SPL-2 process fault in at PPL 0.
	addr, _ := p.Mmap(k, 0, mem.PageSize, true, "secret")
	p.FaultIn(k, addr)
	if p.AS.Lookup(addr).User() {
		t.Error("writable page of SPL-2 process must be PPL 0")
	}
	// Read-only regions stay PPL 1 (e.g. shared library text).
	ro, _ := p.Mmap(k, 0, mem.PageSize, false, "libtext")
	p.FaultIn(k, ro)
	if !p.AS.Lookup(ro).User() {
		t.Error("read-only page must stay PPL 1")
	}
	// ForcePPL1 regions stay PPL 1 even when writable (shared areas).
	sh, _ := p.MmapPPL1(k, 0, mem.PageSize, true, "shared")
	p.FaultIn(k, sh)
	if !p.AS.Lookup(sh).User() {
		t.Error("ForcePPL1 page must stay PPL 1")
	}
}

func TestInitPLDemotesExistingWritablePages(t *testing.T) {
	k, p := bootWithProc(t)
	addr, _ := p.Mmap(k, 0, 2*mem.PageSize, true, "data")
	p.Touch(k, addr, 2*mem.PageSize)
	ro, _ := p.Mmap(k, 0, mem.PageSize, false, "text")
	p.Touch(k, ro, mem.PageSize)
	if !p.AS.Lookup(addr).User() {
		t.Fatal("pre-init_PL writable page should be PPL 1")
	}
	before := k.Clock.Cycles()
	if err := k.InitPL(p); err != nil {
		t.Fatal(err)
	}
	cost := k.Clock.Cycles() - before
	if p.TaskSPL != 2 {
		t.Error("taskSPL not promoted")
	}
	if p.AS.Lookup(addr).User() || p.AS.Lookup(addr+mem.PageSize).User() {
		t.Error("writable pages must be demoted to PPL 0")
	}
	if !p.AS.Lookup(ro).User() {
		t.Error("read-only page must stay PPL 1")
	}
	// PPL marking cost: startup 3000-5000 plus 45/page (paper 5.1),
	// plus the syscall round trip.
	if cost < 3000 || cost > 7000 {
		t.Errorf("init_PL cost = %v cycles, expected within [3000,7000]", cost)
	}
	if err := k.InitPL(p); err == nil {
		t.Error("double init_PL must fail")
	}
}

func TestSetRange(t *testing.T) {
	k, p := bootWithProc(t)
	k.InitPL(p)
	addr, _ := p.Mmap(k, 0, 4*mem.PageSize, true, "toshare")
	p.Touch(k, addr, 4*mem.PageSize)
	if p.AS.Lookup(addr).User() {
		t.Fatal("SPL-2 writable pages start at PPL 0")
	}
	before := k.Clock.Cycles()
	if err := k.SetRange(p, addr, 4, true); err != nil {
		t.Fatal(err)
	}
	perPage := k.Costs.PPLMarkPerPage
	if got := k.Clock.Cycles() - before; got < k.Costs.PPLMarkStart+4*perPage {
		t.Errorf("set_range cost = %v, want >= start+4*45", got)
	}
	for i := uint32(0); i < 4; i++ {
		if !p.AS.Lookup(addr + i*mem.PageSize).User() {
			t.Errorf("page %d not exposed", i)
		}
	}
	// And back.
	if err := k.SetRange(p, addr, 4, false); err != nil {
		t.Fatal(err)
	}
	if p.AS.Lookup(addr).User() {
		t.Error("page not hidden again")
	}
	// Errors.
	if err := k.SetRange(p, addr+1, 1, true); err == nil {
		t.Error("unaligned set_range must fail")
	}
	q, _ := k.CreateProcess()
	if err := k.SetRange(q, addr, 1, true); err == nil {
		t.Error("set_range on SPL-3 process must fail")
	}
}

func TestForkInheritsPrivilegeLevels(t *testing.T) {
	k, p := bootWithProc(t)
	k.InitPL(p)
	addr, _ := p.Mmap(k, 0, mem.PageSize, true, "d")
	p.Touch(k, addr, mem.PageSize)
	sh, _ := p.MmapPPL1(k, 0, mem.PageSize, true, "s")
	p.Touch(k, sh, mem.PageSize)

	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	if child.TaskSPL != 2 {
		t.Error("fork must inherit taskSPL 2")
	}
	if child.AS.Lookup(addr).User() {
		t.Error("child PPL 0 page not inherited")
	}
	if !child.AS.Lookup(sh).User() {
		t.Error("child PPL 1 page not inherited")
	}
	if child.Region(sh) == nil || !child.Region(sh).ForcePPL1 {
		t.Error("region table not inherited")
	}
}

func TestExecResetsPrivilege(t *testing.T) {
	k, p := bootWithProc(t)
	k.InitPL(p)
	if err := k.Exec(p); err != nil {
		t.Fatal(err)
	}
	if p.TaskSPL != 3 {
		t.Error("exec must reset taskSPL to 3")
	}
	if len(p.Regions) != 1 || p.Regions[0].Name != "stack" {
		t.Errorf("exec regions = %+v", p.Regions)
	}
}

func TestSimulatedSyscallGetpid(t *testing.T) {
	k, p := bootWithProc(t)
	syms := installUser(t, k, p, 0x0001_0000, `
		entry:
			mov eax, 20
			int 0x80
			mov ebx, eax
		stop: nop
	`)
	startUser(t, k, p, syms["entry"])
	k.Machine.SetBreak(syms["stop"])
	res := k.Machine.Run(cpu.RunLimits{MaxInstructions: 100})
	if res.Reason != cpu.StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	if got := k.Machine.Reg(isa.EBX); got != uint32(p.PID) {
		t.Errorf("getpid = %d, want %d", got, p.PID)
	}
	if k.Machine.CPL() != 3 {
		t.Errorf("CPL after syscall = %d", k.Machine.CPL())
	}
}

func TestSyscallRejectionForUserExtensions(t *testing.T) {
	// The Section 4.5.2 check: a taskSPL-2 process trapping from
	// SPL-3 code gets EPERM; a plain SPL-3 process (taskSPL 3) works.
	k, p := bootWithProc(t)
	syms := installUser(t, k, p, 0x0001_0000, `
		entry:
			mov eax, 20
			int 0x80
			mov ebx, eax
		stop: nop
	`)
	k.InitPL(p) // taskSPL = 2; the code below still runs at SPL 3
	startUser(t, k, p, syms["entry"])
	k.Machine.SetBreak(syms["stop"])
	res := k.Machine.Run(cpu.RunLimits{MaxInstructions: 100})
	if res.Reason != cpu.StopBreak {
		t.Fatalf("stop = %+v", res)
	}
	if got := int32(k.Machine.Reg(isa.EBX)); got != -EPERM {
		t.Errorf("syscall from SPL-3 code in taskSPL-2 process = %d, want -EPERM", got)
	}
}

func TestSimulatedWriteSyscall(t *testing.T) {
	k, p := bootWithProc(t)
	syms := installUser(t, k, p, 0x0001_0000, `
		entry:
			mov eax, 4
			mov ebx, 1
			mov ecx, msg
			mov edx, 5
			int 0x80
		stop: nop
		.data
		msg: .asciz "hello"
	`)
	startUser(t, k, p, syms["entry"])
	k.Machine.SetBreak(syms["stop"])
	res := k.Machine.Run(cpu.RunLimits{MaxInstructions: 100})
	if res.Reason != cpu.StopBreak {
		t.Fatalf("stop = %+v err=%v", res, res.Err)
	}
	if got := string(k.ConsoleOut); got != "hello" {
		t.Errorf("console = %q", got)
	}
}

func TestUnknownSyscallReturnsENOSYS(t *testing.T) {
	k, p := bootWithProc(t)
	syms := installUser(t, k, p, 0x0001_0000, `
		entry:
			mov eax, 9999
			int 0x80
			mov ebx, eax
		stop: nop
	`)
	startUser(t, k, p, syms["entry"])
	k.Machine.SetBreak(syms["stop"])
	k.Machine.Run(cpu.RunLimits{MaxInstructions: 100})
	if got := int32(k.Machine.Reg(isa.EBX)); got != -ENOSYS {
		t.Errorf("ret = %d, want -ENOSYS", got)
	}
}

func TestSIGSEGVDeliveryCostAnchor(t *testing.T) {
	// Paper 5.1: "The latency from detecting an offending access to
	// completing the delivery of the associated SIGSEGV signal takes
	// 3,325 cycles on the average."
	k, p := bootWithProc(t)
	k.InitPL(p)
	secret, _ := p.Mmap(k, 0, mem.PageSize, true, "secret")
	p.Touch(k, secret, mem.PageSize)
	var delivered *SignalInfo
	p.SignalHandler = func(si SignalInfo) { delivered = &si }

	f := &mmu.Fault{Kind: mmu.PF, Linear: secret, Access: mmu.Write, CPL: 3,
		Reason: "page privilege violation"}
	before := k.Clock.Cycles()
	disp := k.HandleFault(p, f)
	cost := k.Clock.Cycles() - before
	if disp != SignalDelivered {
		t.Fatalf("disposition = %v", disp)
	}
	if delivered == nil || delivered.Sig != SIGSEGV {
		t.Fatal("SIGSEGV not delivered to handler")
	}
	if cost != 3325 {
		t.Errorf("fault-to-delivery = %v cycles, paper reports 3,325", cost)
	}
}

func TestKernelExtensionGPFaultCostAnchor(t *testing.T) {
	// Paper 5.1: "The average cost of processing such an exception is
	// 1,020 cycles."
	k, p := bootWithProc(t)
	f := &mmu.Fault{Kind: mmu.GP, CPL: 1, Reason: "segment limit violation"}
	before := k.Clock.Cycles()
	disp := k.HandleFault(p, f)
	cost := k.Clock.Cycles() - before
	if disp != KernelExtensionFault {
		t.Fatalf("disposition = %v", disp)
	}
	if cost != 1020 {
		t.Errorf("GP processing = %v cycles, paper reports 1,020", cost)
	}
}

func TestDemandPageFaultRetryFlow(t *testing.T) {
	k, p := bootWithProc(t)
	addr, _ := p.Mmap(k, 0, mem.PageSize, true, "lazy")
	f := &mmu.Fault{Kind: mmu.PF, Linear: addr, Access: mmu.Write, CPL: 3, Reason: "page not present"}
	if disp := k.HandleFault(p, f); disp != Retry {
		t.Fatalf("disposition = %v, want retry (demand paging)", disp)
	}
	if !p.AS.Lookup(addr).Present() {
		t.Error("page not faulted in")
	}
}

func TestSIGSEGVOnUnmappedAccess(t *testing.T) {
	k, p := bootWithProc(t)
	var got *SignalInfo
	p.SignalHandler = func(si SignalInfo) { got = &si }
	f := &mmu.Fault{Kind: mmu.PF, Linear: 0x7000_0000, Access: mmu.Read, CPL: 3, Reason: "page not present"}
	if disp := k.HandleFault(p, f); disp != SignalDelivered {
		t.Fatalf("disposition = %v", disp)
	}
	if got == nil || got.Sig != SIGSEGV {
		t.Error("expected SIGSEGV")
	}
}

func TestCopyToFromUser(t *testing.T) {
	k, p := bootWithProc(t)
	addr, _ := p.Mmap(k, 0, 2*mem.PageSize, true, "buf")
	msg := []byte("cross-page payload spanning boundary")
	target := addr + mem.PageSize - 10
	if err := k.CopyToUser(p, target, msg); err != nil {
		t.Fatal(err)
	}
	got, err := k.CopyFromUser(p, target, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Errorf("round trip = %q", got)
	}
	if _, err := k.CopyFromUser(p, 0x9000_0000, 4); err == nil {
		t.Error("copy from unmapped address must fail")
	}
}

func TestMprotectAndMunmap(t *testing.T) {
	k, p := bootWithProc(t)
	addr, _ := p.Mmap(k, 0, mem.PageSize, true, "x")
	p.Touch(k, addr, mem.PageSize)
	if err := p.Mprotect(k, addr, false); err != nil {
		t.Fatal(err)
	}
	if p.AS.Lookup(addr).Writable() {
		t.Error("page still writable")
	}
	if err := p.Munmap(k, addr); err != nil {
		t.Fatal(err)
	}
	if p.AS.Lookup(addr).Present() {
		t.Error("page still mapped after munmap")
	}
	if p.Region(addr) != nil {
		t.Error("region still present")
	}
}

func TestMmapOverlapRejected(t *testing.T) {
	k, p := bootWithProc(t)
	addr, err := p.Mmap(k, 0x1000_0000, 2*mem.PageSize, true, "a")
	if err != nil || addr != 0x1000_0000 {
		t.Fatal(err)
	}
	if _, err := p.Mmap(k, 0x1000_1000, mem.PageSize, true, "b"); err == nil {
		t.Error("overlapping mmap must fail")
	}
}

func TestKernelAllocAndMapKernelPage(t *testing.T) {
	k, p := bootWithProc(t)
	addr, err := k.KernelAlloc(100, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if addr&mem.PageMask != 0 {
		t.Errorf("aligned alloc = %#x", addr)
	}
	// Kernel mappings are visible through any process AS (shared
	// kernel page tables).
	if !p.AS.Lookup(addr).Present() {
		t.Error("kernel page not visible in process address space")
	}
	if p.AS.Lookup(addr).User() {
		t.Error("kernel page must be PPL 0")
	}
	q, _ := k.CreateProcess()
	if !q.AS.Lookup(addr).Present() {
		t.Error("kernel page not visible in later process")
	}
}

// TestKernelStacksStopBeforeKernelHeap creates live processes until
// the kernel-stack slots run out. The last slot must end below the
// kernel heap, the heap mapping must survive, and the next
// CreateProcess must fail instead of mapping a stack over heap pages;
// once a process exits, its slot serves the next one.
func TestKernelStacksStopBeforeKernelHeap(t *testing.T) {
	k := boot(t)
	heap, err := k.KernelAlloc(mem.PageSize, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	want := k.kernelTemplate.Lookup(heap)
	var last *Process
	for i := 0; i < maxProcesses; i++ {
		p, err := k.CreateProcess()
		if err != nil {
			t.Fatalf("process %d of %d: %v", i+1, maxProcesses, err)
		}
		last = p
	}
	if last.KStackTop > kHeapBase {
		t.Errorf("last kernel stack tops out at %#x, past the kernel heap at %#x", last.KStackTop, uint32(kHeapBase))
	}
	if got := k.kernelTemplate.Lookup(heap); got != want {
		t.Errorf("kernel heap PTE at %#x = %#x, want %#x", heap, got, want)
	}
	pid := k.nextPID
	if _, err := k.CreateProcess(); err == nil {
		t.Fatal("CreateProcess past the last kernel-stack slot succeeded")
	}
	if k.nextPID != pid || k.Process(pid) != nil {
		t.Error("failed CreateProcess left a process behind")
	}
	if got := k.kernelTemplate.Lookup(heap); got != want {
		t.Errorf("kernel heap PTE at %#x = %#x after the failed call, want %#x", heap, got, want)
	}
	k.Exit(last, 0)
	p, err := k.CreateProcess()
	if err != nil {
		t.Fatalf("CreateProcess after an exit: %v", err)
	}
	if p.KStackTop != last.KStackTop {
		t.Errorf("new process's kernel stack tops out at %#x, want the exited one's %#x", p.KStackTop, last.KStackTop)
	}
}

func TestSwitchLoadsCR3AndTSS(t *testing.T) {
	k, p := bootWithProc(t)
	q, _ := k.CreateProcess()
	k.Switch(p)
	_, _, flushesBefore := k.MMU.TLB().Stats()
	k.Switch(q)
	if k.Current() != q {
		t.Error("current not switched")
	}
	_, _, flushesAfter := k.MMU.TLB().Stats()
	if flushesAfter != flushesBefore+1 {
		t.Error("context switch must flush the TLB (CR3 load)")
	}
	if k.Machine.TSS.ESP[0] != q.KStackTop-KernelBase {
		t.Error("TSS kernel stack not updated")
	}
	if k.Switch(q); k.Current() != q {
		t.Error("self-switch broke current")
	}
}

func TestTimerTickSubscribers(t *testing.T) {
	k := boot(t)
	n := 0
	cancel := k.OnTimerTick(func() error { n++; return nil })
	if err := k.timerTick(); err != nil || n != 1 {
		t.Fatalf("tick: err=%v n=%d", err, n)
	}
	cancel()
	if err := k.timerTick(); err != nil || n != 1 {
		t.Errorf("cancelled subscriber ran: n=%d", n)
	}
}

// TestResetToFrozenClone pins a rollback onto a clone frozen from the
// kernel itself: the subscribers registered before the freeze keep
// running, those registered after it are dropped (their removal funcs
// stay safe to call), and a process that exited after the freeze comes
// back in its original struct. A clone reset to its template keeps no
// subscriber, as a fresh clone has none.
func TestResetToFrozenClone(t *testing.T) {
	k, p := bootWithProc(t)
	before, after := 0, 0
	k.OnTimerTick(func() error { before++; return nil })
	frozen, err := k.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cancel := k.OnTimerTick(func() error { after++; return nil })
	k.Exit(p, 1)

	k.ResetTo(frozen)
	frozen.Phys.Release()
	if k.Process(p.PID) != p || p.Exited {
		t.Errorf("process %d after rollback: %p (exited %v), want its original struct %p alive",
			p.PID, k.Process(p.PID), p.Exited, p)
	}
	if err := k.timerTick(); err != nil || before != 1 || after != 0 {
		t.Fatalf("tick after rollback: err=%v before=%d after=%d, want 1 and 0", err, before, after)
	}
	cancel()
	if err := k.timerTick(); err != nil || before != 2 {
		t.Errorf("removing a rolled-back registration disturbed an earlier one: before=%d", before)
	}

	c, err := k.Clone()
	if err != nil {
		t.Fatal(err)
	}
	own := 0
	c.OnTimerTick(func() error { own++; return nil })
	c.ResetTo(k)
	if err := c.timerTick(); err != nil || own != 0 || before != 2 {
		t.Errorf("clone reset to its template ran subscribers: own=%d template's=%d", own, before-2)
	}
}

func TestInstallCallGateAndSegmentPair(t *testing.T) {
	k := boot(t)
	gate, err := k.InstallCallGate(3, ACodeSel, 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	d := k.MMU.Descriptor(gate)
	if d == nil || d.Kind != mmu.SegCallGate || d.DPL != 3 || d.GateOff != 0x1234 {
		t.Errorf("gate descriptor = %+v", d)
	}
	code, data, err := k.InstallSegmentPair(ExtSegBase, 0x00FF_FFFF, 1)
	if err != nil {
		t.Fatal(err)
	}
	cd := k.MMU.Descriptor(code)
	dd := k.MMU.Descriptor(data)
	if cd.Base != ExtSegBase || cd.DPL != 1 || cd.Kind != mmu.SegCode {
		t.Errorf("ext code descriptor = %+v", cd)
	}
	if dd.Kind != mmu.SegData || !dd.Writable {
		t.Errorf("ext data descriptor = %+v", dd)
	}
	if code.RPL() != 1 || data.RPL() != 1 {
		t.Error("selector RPLs should match DPL")
	}
}

func TestExitRemovesProcess(t *testing.T) {
	k, p := bootWithProc(t)
	k.Exit(p, 3)
	if !p.Exited || p.ExitCode != 3 {
		t.Error("exit state wrong")
	}
	if k.Process(p.PID) != nil {
		t.Error("process still registered")
	}
}

func TestDefaultSignalDispositionKills(t *testing.T) {
	k, p := bootWithProc(t)
	k.DeliverSignal(p, SignalInfo{Sig: SIGSEGV, Reason: "no handler"})
	if !p.Exited {
		t.Error("SIGSEGV without handler must kill the process")
	}
}

func TestFaultDispositionString(t *testing.T) {
	for d, want := range map[FaultDisposition]string{
		Retry: "retry", SignalDelivered: "signal-delivered",
		KernelExtensionFault: "kernel-extension-fault", Fatal: "fatal",
	} {
		if !strings.Contains(d.String(), want) {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}
