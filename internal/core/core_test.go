package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(cycles.Measured())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newApp(t *testing.T, s *System) *App {
	t.Helper()
	a, err := NewApp(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InitPL(); err != nil {
		t.Fatal(err)
	}
	return a
}

func mustOpen(t *testing.T, a *App, src string) int {
	t.Helper()
	h, err := a.SegDlopen(isa.MustAssemble("ext", src))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustSym(t *testing.T, a *App, h int, name string) *ProtectedFunc {
	t.Helper()
	pf, err := a.SegDlsym(h, name)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// readShared reads n bytes at off in seg's shared data area straight
// from physical memory, charging nothing.
func readShared(t *testing.T, s *System, seg *ExtSegment, off uint32, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	for i := range buf {
		pa, err := seg.physAt(off + uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		buf[i] = s.K.Phys.Read8(pa)
	}
	return buf
}

// readString reads the NUL-terminated string of at most max bytes at
// addr in a's address space.
func readString(t *testing.T, a *App, addr uint32, max int) string {
	t.Helper()
	b := make([]byte, max)
	if err := a.ReadMemInto(addr, b); err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// ExposeService publishes an application service (Section 4.4.2):
// a call gate whose target is the trusted handler, plus a symbol so
// extensions can `lcall name`. The handler receives the 4-byte
// argument the extension pushed on its own stack and returns a 4-byte
// result (larger structures travel through shared data areas). No
// production path exposes a service, so the mechanism lives with the
// tests that exercise it.
func (a *App) ExposeService(name string, fn func(arg uint32) uint32) error {
	if !a.promoted {
		return fmt.Errorf("palladium: ExposeService before init_PL")
	}
	addr := a.svcNext
	a.svcNext += 16
	k := a.S.K
	k.Machine.RegisterService(addr, &cpu.Service{
		Name: name, Kind: cpu.ServiceCallGate,
		Handler: func(m *cpu.Machine) error {
			// Gate frame (inner stack): [EIP][CS][ESP][SS]. The
			// caller pushed the argument on its own (extension)
			// stack immediately before the lcall, so it sits at
			// [oldESP] — lcall left nothing on the outer stack.
			oldESP, f := m.Peek(8)
			if f != nil {
				return f
			}
			arg, f := m.MMU.Read32(m.DS, oldESP, m.CPL())
			if f != nil {
				return f
			}
			m.SetReg(isa.EAX, fn(arg))
			return nil
		},
	})
	gate, err := k.InstallCallGate(3, kernel.ACodeSel, addr)
	if err != nil {
		return err
	}
	// Publish the gate selector under the service name: extension
	// code assembles `lcall name`.
	a.DL.Define(name, uint32(gate))
	return nil
}

const incSrc = `
	.global inc
	.text
	inc:
		mov eax, [esp+4]
		inc eax
		ret
`

func TestProtectedCallEndToEnd(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, incSrc)
	pf := mustSym(t, a, h, "inc")
	got, err := pf.Call(41)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("inc(41) = %d", got)
	}
	// Repeated calls work (stubs and stacks are reusable).
	for i := uint32(0); i < 5; i++ {
		if got, err := pf.Call(i); err != nil || got != i+1 {
			t.Fatalf("call %d: %d, %v", i, got, err)
		}
	}
}

func TestTable1PhasesProtected(t *testing.T) {
	// The headline result: a protected procedure call and return
	// costs 142 cycles, decomposed 26 + 34 + 75 + 7 (Table 1).
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global nullfn
		.text
		nullfn: ret
	`)
	pf := mustSym(t, a, h, "nullfn")
	ph, err := MeasureProtectedCall(pf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Setup != 26 {
		t.Errorf("setting up stack = %v cycles, paper 26", ph.Setup)
	}
	if ph.Call != 34 {
		t.Errorf("calling function = %v cycles, paper 34", ph.Call)
	}
	if ph.Return != 75 {
		t.Errorf("returning to caller = %v cycles, paper 75", ph.Return)
	}
	if ph.Restore != 7 {
		t.Errorf("restoring state = %v cycles, paper 7", ph.Restore)
	}
	if ph.Total() != 142 {
		t.Errorf("total = %v cycles, paper 142", ph.Total())
	}
}

func TestTable1PhasesIntra(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global nullfn
		.text
		nullfn: ret
	`)
	addr, err := a.Dlsym(h, "nullfn")
	if err != nil {
		t.Fatal(err)
	}
	ph, err := MeasureUnprotectedCall(a, addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Setup != 2 || ph.Call != 3 || ph.Return != 3 || ph.Restore != 2 {
		t.Errorf("intra phases = %v, paper 2/3/3/2", ph)
	}
	if ph.Total() != 10 {
		t.Errorf("intra total = %v, paper 10", ph.Total())
	}
}

func TestTable1ManualModel(t *testing.T) {
	// The "Hardware" column: same instruction sequence priced with
	// the architecture-manual model; the paper quotes lcall=44 there.
	s, err := NewSystem(cycles.Manual())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewApp(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InitPL(); err != nil {
		t.Fatal(err)
	}
	h := mustOpen(t, a, `
		.global nullfn
		.text
		nullfn: ret
	`)
	pf := mustSym(t, a, h, "nullfn")
	ph, err := MeasureProtectedCall(pf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Return != 44 {
		t.Errorf("manual-model lcall = %v, paper 44", ph.Return)
	}
	if ph.Total() >= 142 {
		t.Errorf("manual-model total = %v, must be below the measured 142", ph.Total())
	}
}

func TestExtensionCallsLibcDirectly(t *testing.T) {
	// Non-buffering libc routines are called through the PLT without
	// any domain crossing (Section 4.4.1).
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global lenof
		.text
		lenof:
			push [esp+4]
			call strlen
			add esp, 4
			ret
	`)
	pf := mustSym(t, a, h, "lenof")
	str, err := a.SharedAlloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteString(str, "palladium"); err != nil {
		t.Fatal(err)
	}
	got, err := pf.Call(str)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("strlen via extension = %d", got)
	}
}

func TestExtensionCannotReadHiddenAppData(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	// An app-private (PPL 0) page holding a secret.
	secret, err := a.P.Mmap(s.K, 0, mem.PageSize, true, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteString(secret, "s3cret"); err != nil {
		t.Fatal(err)
	}
	h := mustOpen(t, a, `
		.global snoop
		.text
		snoop:
			mov eax, [esp+4]
			mov eax, [eax]      ; read the secret
			ret
	`)
	pf := mustSym(t, a, h, "snoop")
	var sig *kernel.SignalInfo
	a.P.SignalHandler = func(si kernel.SignalInfo) { sig = &si }
	_, err = pf.Call(secret)
	if !errors.Is(err, ErrExtensionFault) {
		t.Fatalf("err = %v, want ErrExtensionFault", err)
	}
	if sig == nil || sig.Sig != kernel.SIGSEGV {
		t.Fatal("application did not receive SIGSEGV")
	}
	// The application survives and can keep invoking extensions.
	h2 := mustOpen(t, a, incSrc)
	pf2 := mustSym(t, a, h2, "inc")
	if got, err := pf2.Call(1); err != nil || got != 2 {
		t.Errorf("post-fault call = %d, %v", got, err)
	}
}

func TestExtensionCannotWriteAppData(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	target, _ := a.P.Mmap(s.K, 0, mem.PageSize, true, "target")
	a.WriteString(target, "intact")
	h := mustOpen(t, a, `
		.global smash
		.text
		smash:
			mov eax, [esp+4]
			mov [eax], 0
			ret
	`)
	pf := mustSym(t, a, h, "smash")
	if _, err := pf.Call(target); !errors.Is(err, ErrExtensionFault) {
		t.Fatalf("err = %v", err)
	}
	got := readString(t, a, target, 16)
	if got != "intact" {
		t.Errorf("app data corrupted: %q", got)
	}
}

func TestExtensionCannotJumpIntoKernel(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global escape
		.text
		escape:
			jmp 0xC0000000   ; beyond the user segment limit
	`)
	pf := mustSym(t, a, h, "escape")
	if _, err := pf.Call(0); !errors.Is(err, ErrExtensionFault) {
		t.Fatalf("err = %v, want ErrExtensionFault (segment limit)", err)
	}
}

func TestExtensionCannotCallBufferingLibc(t *testing.T) {
	// bufput keeps its buffer in libc's PPL-0 data: a direct call
	// from SPL 3 faults on the buffer write — the fprintf scenario of
	// Section 4.4.1.
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global tryprint
		.text
		tryprint:
			push [esp+4]
			call bufput
			add esp, 4
			ret
	`)
	pf := mustSym(t, a, h, "tryprint")
	if _, err := pf.Call('x'); !errors.Is(err, ErrExtensionFault) {
		t.Fatalf("err = %v, want fault on libc internal buffer", err)
	}
}

func TestApplicationServiceCallGate(t *testing.T) {
	// The application wraps the buffering routine as an application
	// service; the extension reaches it through a call gate.
	s := newSystem(t)
	a := newApp(t, s)
	var collected []byte
	if err := a.ExposeService("svc_putc", func(arg uint32) uint32 {
		collected = append(collected, byte(arg))
		return uint32(len(collected))
	}); err != nil {
		t.Fatal(err)
	}
	h := mustOpen(t, a, `
		.global puts3
		.text
		puts3:
			mov eax, [esp+4]
			push eax
			lcall svc_putc
			pop ecx
			inc eax           ; count returned by the service
			push 'b'
			lcall svc_putc
			pop ecx
			push 'c'
			lcall svc_putc
			pop ecx
			ret
	`)
	pf := mustSym(t, a, h, "puts3")
	got, err := pf.Call('a')
	if err != nil {
		t.Fatal(err)
	}
	if string(collected) != "abc" {
		t.Errorf("service collected %q", collected)
	}
	if got != 3 {
		t.Errorf("final service result = %d", got)
	}
}

func TestSharedDataArea(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	shared, err := a.SharedAlloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SharedAlloc(100); err == nil {
		t.Error("non-page-multiple shared area must be rejected")
	}
	a.WriteString(shared, "abc")
	h := mustOpen(t, a, `
		.global upcase
		.text
		upcase:                  ; uppercase a 3-char string in place
			mov eax, [esp+4]
			mov ecx, 3
		loop:
			movb edx, [eax]
			sub edx, 32
			movb [eax], edx
			inc eax
			dec ecx
			jne loop
			mov eax, [esp+4]
			ret
	`)
	pf := mustSym(t, a, h, "upcase")
	if _, err := pf.Call(shared); err != nil {
		t.Fatal(err)
	}
	got := readString(t, a, shared, 8)
	if got != "ABC" {
		t.Errorf("shared after extension = %q", got)
	}
}

func TestExtensionDirectSyscallRejected(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global trysys
		.text
		trysys:
			mov eax, 20       ; getpid
			int 0x80
			ret
	`)
	pf := mustSym(t, a, h, "trysys")
	got, err := pf.Call(0)
	if err != nil {
		t.Fatal(err)
	}
	if int32(got) != -kernel.EPERM {
		t.Errorf("direct syscall from extension = %d, want -EPERM", int32(got))
	}
}

func TestExtensionTimeLimit(t *testing.T) {
	s := newSystem(t)
	s.K.ExtTimeLimit = 100_000
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global spin
		.text
		spin: jmp spin
	`)
	pf := mustSym(t, a, h, "spin")
	var sig *kernel.SignalInfo
	a.P.SignalHandler = func(si kernel.SignalInfo) { sig = &si }
	if _, err := pf.Call(0); !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
	if sig == nil || sig.Sig != kernel.SIGXCPU {
		t.Error("application did not receive the time-limit signal")
	}
}

func TestLifecycleErrors(t *testing.T) {
	s := newSystem(t)
	a, err := NewApp(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SegDlopen(isa.MustAssemble("x", incSrc)); err == nil {
		t.Error("seg_dlopen before init_PL must fail")
	}
	if err := a.InitPL(); err != nil {
		t.Fatal(err)
	}
	if err := a.InitPL(); err == nil {
		t.Error("double init_PL must fail")
	}
	h := mustOpen(t, a, incSrc)
	if _, err := a.SegDlsym(h, "nosuch"); err == nil {
		t.Error("seg_dlsym of missing symbol must fail")
	}
	if err := a.SegDlclose(h); err != nil {
		t.Error(err)
	}
}

func TestSegDlopenCostSlightlyAboveDlopen(t *testing.T) {
	// Paper 5.1: dlopen 400 us, seg_dlopen 420 us.
	s := newSystem(t)
	a := newApp(t, s)
	obj := isa.MustAssemble("null", `
		.global nullfn
		.text
		nullfn:
			push ebp
			mov ebp, esp
			pop ebp
			ret
	`)
	before := s.Clock().Cycles()
	if _, err := a.SegDlopen(obj); err != nil {
		t.Fatal(err)
	}
	us := s.Clock().Micros(s.Clock().Cycles() - before)
	if us < 380 || us > 480 {
		t.Errorf("seg_dlopen = %.1f us, paper reports ~420 us", us)
	}
}

// --- kernel-level mechanism ---

const kfilterSrc = `
	.global ksum
	.text
	ksum:                      ; sum bytes in the shared area
		mov eax, [esp+4]       ; count
		mov ecx, shared_area
		mov edx, 0
	loop:
		cmp eax, 0
		je done
		movb ebx, [ecx]
		add edx, ebx
		inc ecx
		dec eax
		jmp loop
	done:
		mov eax, edx
		ret
	.data
	.global shared_area
	shared_area: .space 64
`

func TestKernelExtensionEndToEnd(t *testing.T) {
	s := newSystem(t)
	if _, err := s.K.CreateProcess(); err != nil {
		t.Fatal(err)
	}
	seg, err := s.NewExtSegment("filters", 0)
	if err != nil {
		t.Fatal(err)
	}
	im, err := s.Insmod(seg, isa.MustAssemble("kfilter", kfilterSrc))
	if err != nil {
		t.Fatal(err)
	}
	f, ok := s.ExtensionFunction("ksum")
	if !ok {
		t.Fatalf("ksum not in EFT; have %v", slices.Sorted(maps.Keys(s.eft)))
	}
	// Shared data area located by its well-known symbol.
	off, ok := im.Lookup("shared_area")
	if !ok {
		t.Fatal("shared_area symbol missing")
	}
	if err := s.WriteShared(seg, off, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	got, err := f.Invoke(5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Errorf("ksum = %d, want 15", got)
	}
}

func TestKernelExtensionConfinedBySegmentLimit(t *testing.T) {
	s := newSystem(t)
	s.K.CreateProcess()
	seg, _ := s.NewExtSegment("bad", 0)
	_, err := s.Insmod(seg, isa.MustAssemble("bad", `
		.global escape
		.text
		escape:
			mov eax, [0x2000000]   ; 32 MB: beyond the 16 MB segment
			ret
	`))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := s.ExtensionFunction("escape")
	_, err = f.Invoke(0)
	if !errors.Is(err, ErrKernelExtensionAborted) {
		t.Fatalf("err = %v, want aborted", err)
	}
	if !seg.aborted {
		t.Error("segment not marked aborted")
	}
	// Entry points are gone; re-invocation is impossible.
	if _, ok := s.ExtensionFunction("escape"); ok {
		t.Error("aborted extension still registered")
	}
	if _, err := s.Insmod(seg, isa.MustAssemble("m", incSrc)); err == nil {
		t.Error("insmod into aborted segment must fail")
	}
}

func TestKernelExtensionUsesKernelService(t *testing.T) {
	s := newSystem(t)
	s.K.CreateProcess()
	// Expose one core kernel service: number 7 doubles its argument.
	s.K.RegisterKernelService(7, func(k *kernel.Kernel, p *kernel.Process, a1, _, _ uint32) uint32 {
		return a1 * 2
	})
	seg, _ := s.NewExtSegment("svc", 0)
	if _, err := s.Insmod(seg, isa.MustAssemble("m", `
		.global viaservice
		.text
		viaservice:
			mov eax, 7
			mov ebx, [esp+4]
			int 0x81
			ret
	`)); err != nil {
		t.Fatal(err)
	}
	f, _ := s.ExtensionFunction("viaservice")
	got, err := f.Invoke(21)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("service result = %d", got)
	}
}

func TestUserCodeCannotReachKernelServiceGate(t *testing.T) {
	// int 0x81 has gate DPL 1: user code (CPL 3) raising it faults.
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global try81
		.text
		try81:
			mov eax, 7
			int 0x81
			ret
	`)
	pf := mustSym(t, a, h, "try81")
	if _, err := pf.Call(0); !errors.Is(err, ErrExtensionFault) {
		t.Fatalf("err = %v, want fault (gate DPL)", err)
	}
}

func TestKernelExtensionTimeLimit(t *testing.T) {
	s := newSystem(t)
	s.K.CreateProcess()
	s.K.ExtTimeLimit = 100_000
	seg, _ := s.NewExtSegment("spin", 0)
	s.Insmod(seg, isa.MustAssemble("m", `
		.global kspin
		.text
		kspin: jmp kspin
	`))
	f, _ := s.ExtensionFunction("kspin")
	if _, err := f.Invoke(0); !errors.Is(err, ErrKernelExtensionAborted) {
		t.Fatalf("err = %v", err)
	}
}

func TestModulesShareSegmentAndSymbols(t *testing.T) {
	s := newSystem(t)
	s.K.CreateProcess()
	seg, _ := s.NewExtSegment("multi", 0)
	if _, err := s.Insmod(seg, isa.MustAssemble("m1", `
		.global helper
		.text
		helper:
			mov eax, [esp+4]
			add eax, 100
			ret
	`)); err != nil {
		t.Fatal(err)
	}
	// Module 2 links against module 1's export (same segment).
	if _, err := s.Insmod(seg, isa.MustAssemble("m2", `
		.global caller
		.text
		caller:
			push [esp+4]
			call helper
			add esp, 4
			ret
	`)); err != nil {
		t.Fatal(err)
	}
	f, _ := s.ExtensionFunction("caller")
	got, err := f.Invoke(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 101 {
		t.Errorf("cross-module call = %d", got)
	}
}

func TestAsyncKernelExtensions(t *testing.T) {
	s := newSystem(t)
	s.K.CreateProcess()
	seg, _ := s.NewExtSegment("async", 0)
	s.Insmod(seg, isa.MustAssemble("m", `
		.global tally
		.text
		tally:
			mov eax, [counter]
			add eax, [esp+4]
			mov [counter], eax
			ret
		.data
		.global counter
		counter: .word 0
	`))
	f, _ := s.ExtensionFunction("tally")
	for _, arg := range []uint32{5, 7, 30} {
		if err := f.InvokeAsync(arg); err != nil {
			t.Fatal(err)
		}
	}
	if seg.Pending() != 3 {
		t.Fatalf("pending = %d", seg.Pending())
	}
	n, err := seg.RunPending()
	if err != nil || n != 3 {
		t.Fatalf("RunPending = %d, %v", n, err)
	}
	im := seg.modules[0]
	off, _ := im.Lookup("counter")
	b := readShared(t, s, seg, off, 4)
	got := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	if got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
}

func TestSharedAccessChargesSegRegLoad(t *testing.T) {
	s := newSystem(t)
	s.K.CreateProcess()
	seg, _ := s.NewExtSegment("x", 0)
	im, err := s.Insmod(seg, isa.MustAssemble("m", `
		.global f
		.text
		f: ret
		.data
		.global shared_area
		shared_area: .space 16
	`))
	if err != nil {
		t.Fatal(err)
	}
	off, ok := im.Lookup("shared_area")
	if !ok {
		t.Fatal("shared_area not exported")
	}
	before := s.Clock().Cycles()
	if err := s.WriteShared(seg, off, []byte{1}); err != nil {
		t.Fatal(err)
	}
	cost := s.Clock().Cycles() - before
	// Must include the 12-cycle segment register load of Section 5.1.
	if cost < 12 {
		t.Errorf("cross-segment write cost = %v, must include the 12-cycle segment register load", cost)
	}
}

func TestKernelInvokeOverheadNearTable1(t *testing.T) {
	// The kernel mechanism uses the same Figure-6 sequence; a warm
	// null invocation should cost close to the 142-cycle figure
	// (slightly more: the kernel-side harness push/pop and TLB
	// effects).
	s := newSystem(t)
	s.K.CreateProcess()
	seg, _ := s.NewExtSegment("n", 0)
	s.Insmod(seg, isa.MustAssemble("m", `
		.global knull
		.text
		knull: ret
	`))
	f, _ := s.ExtensionFunction("knull")
	if _, err := f.Invoke(0); err != nil { // warm
		t.Fatal(err)
	}
	before := s.Clock().Cycles()
	if _, err := f.Invoke(0); err != nil {
		t.Fatal(err)
	}
	cost := s.Clock().Cycles() - before
	if cost < 142 || cost > 220 {
		t.Errorf("kernel null invocation = %v cycles, want within [142,220]", cost)
	}
}

func TestPhasesString(t *testing.T) {
	ph := Phases{Setup: 26, Call: 34, Return: 75, Restore: 7}
	sstr := ph.String()
	if !strings.Contains(sstr, "142") {
		t.Errorf("Phases.String() = %q", sstr)
	}
}

func TestAsyncQueueBoundBackpressureAndDrainOnRelease(t *testing.T) {
	// Regression for the unbounded async queue: InvokeAsync used to
	// grow Seg.queue without limit and nothing drained it on release.
	s := newSystem(t)
	s.K.CreateProcess()
	seg, err := s.NewExtSegment("bounded", 0)
	if err != nil {
		t.Fatal(err)
	}
	seg.QueueBound = 3
	im, err := s.Insmod(seg, isa.MustAssemble("m", `
		.global tally
		.text
		tally:
			mov eax, [counter]
			add eax, [esp+4]
			mov [counter], eax
			ret
		.data
		.global counter
		counter: .word 0
	`))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := s.ExtensionFunction("tally")
	for i := 1; i <= 3; i++ {
		if err := f.InvokeAsync(uint32(i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	// The bound refuses the fourth request with the typed error.
	err = f.InvokeAsync(99)
	if !errors.Is(err, ErrAsyncBackpressure) {
		t.Fatalf("overflow error = %v, want ErrAsyncBackpressure", err)
	}
	if seg.Pending() != 3 {
		t.Fatalf("pending = %d after refused enqueue, want 3", seg.Pending())
	}

	// Release drains every accepted request (none dropped), then
	// reclaims the segment's entry points.
	if err := seg.Release(); err != nil {
		t.Fatal(err)
	}
	if seg.Pending() != 0 {
		t.Errorf("pending = %d after release", seg.Pending())
	}
	off, _ := im.Lookup("counter")
	b := readShared(t, s, seg, off, 4)
	got := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	if got != 1+2+3 {
		t.Errorf("counter = %d after drain-on-release, want 6", got)
	}
	if _, ok := s.ExtensionFunction("tally"); ok {
		t.Error("released extension still registered")
	}
	if err := f.InvokeAsync(1); !errors.Is(err, ErrKernelExtensionAborted) {
		t.Errorf("post-release InvokeAsync = %v, want ErrKernelExtensionAborted", err)
	}
	// Release is idempotent.
	if err := seg.Release(); err != nil {
		t.Errorf("second release: %v", err)
	}
}

func TestAsyncDefaultBound(t *testing.T) {
	s := newSystem(t)
	s.K.CreateProcess()
	seg, err := s.NewExtSegment("defbound", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insmod(seg, isa.MustAssemble("m", "\t.global nop\n\t.text\nnop: ret\n")); err != nil {
		t.Fatal(err)
	}
	f, _ := s.ExtensionFunction("nop")
	for i := 0; i < DefaultAsyncQueueBound; i++ {
		if err := f.InvokeAsync(0); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := f.InvokeAsync(0); !errors.Is(err, ErrAsyncBackpressure) {
		t.Fatalf("default bound not enforced: %v", err)
	}
}
