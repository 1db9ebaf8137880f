package core

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// TestExtensibleApplicationScenario drives a realistic extensible-
// application session end to end, in the spirit of the paper's
// motivating examples (extensible databases, Apache modules): one host
// application, two third-party extensions with different quality, an
// application service, shared data areas, a protection incident, and
// continued operation afterwards.
func TestExtensibleApplicationScenario(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)

	// The application keeps private state and exposes a logging
	// service (its stand-in for the fprintf-style buffering API).
	private, err := a.P.Mmap(s.K, 0, mem.PageSize, true, "db-state")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteString(private, "customer records"); err != nil {
		t.Fatal(err)
	}
	var logCount int
	if err := a.ExposeService("svc_log", func(arg uint32) uint32 {
		logCount++
		return uint32(logCount)
	}); err != nil {
		t.Fatal(err)
	}

	// Extension #1: a well-behaved "data blade" that checksums a
	// record placed in the shared area and logs through the service.
	h1 := mustOpen(t, a, `
		.global blade
		.text
		blade:
			mov edx, [esp+4]     ; shared record
			mov ecx, 16
			mov eax, 0
		sum:
			movb ebx, [edx]
			add eax, ebx
			inc edx
			dec ecx
			jne sum
			push eax
			lcall svc_log
			pop ecx
			ret
	`)
	blade := mustSym(t, a, h1, "blade")
	shared, err := a.SharedAlloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	record := make([]byte, 16)
	var want uint32
	for i := range record {
		record[i] = byte(i + 1)
		want += uint32(i + 1)
	}
	if err := a.WriteMem(shared, record); err != nil {
		t.Fatal(err)
	}
	got, err := blade.Call(shared)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 { // the log service returns its call count
		t.Errorf("blade returned %d (service count), want 1", got)
	}
	if logCount != 1 {
		t.Errorf("service invoked %d times", logCount)
	}

	// Extension #2: buggy — it walks past the shared record into the
	// application's private pages.
	h2 := mustOpen(t, a, `
		.global rogue
		.text
		rogue:
			mov edx, [esp+4]
		scan:
			movb eax, [edx]
			inc edx
			jmp scan
	`)
	rogue := mustSym(t, a, h2, "rogue")
	var incidents []kernel.SignalInfo
	a.P.SignalHandler = func(si kernel.SignalInfo) { incidents = append(incidents, si) }
	if _, err := rogue.Call(private); !errors.Is(err, ErrExtensionFault) {
		t.Fatalf("rogue scan of private data: err = %v", err)
	}
	if len(incidents) != 1 || incidents[0].Sig != kernel.SIGSEGV {
		t.Fatalf("incidents = %+v", incidents)
	}

	// Quarantine the buggy component (CBSD pitch from the intro: the
	// fault is attributable to the module, so unload just it)...
	if err := a.SegDlclose(h2); err != nil {
		t.Fatal(err)
	}
	// ...and the good one keeps serving.
	if got, err := blade.Call(shared); err != nil || got != 2 {
		t.Fatalf("blade after quarantine: %d, %v", got, err)
	}
	// Private state was never touched.
	state := readString(t, a, private, 32)
	if state != "customer records" {
		t.Errorf("private state = %q", state)
	}
	_ = want
}

// TestMixedUserAndKernelExtensions runs both mechanisms in one system
// simultaneously: the web-server style user extension and the packet-
// filter style kernel extension share the machine and the clock.
func TestMixedUserAndKernelExtensions(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)

	h := mustOpen(t, a, incSrc)
	userFn := mustSym(t, a, h, "inc")

	seg, err := s.NewExtSegment("mixed", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insmod(seg, isa.MustAssemble("k", `
		.global kdouble
		.text
		kdouble:
			mov eax, [esp+4]
			add eax, eax
			ret
	`)); err != nil {
		t.Fatal(err)
	}
	kernFn, _ := s.ExtensionFunction("kdouble")

	// Interleave invocations across the two privilege structures.
	for i := uint32(1); i <= 8; i++ {
		u, err := userFn.Call(i)
		if err != nil || u != i+1 {
			t.Fatalf("user call %d: %d, %v", i, u, err)
		}
		k, err := kernFn.Invoke(i)
		if err != nil || k != 2*i {
			t.Fatalf("kernel call %d: %d, %v", i, k, err)
		}
	}

	// A kernel-extension fault must not disturb the user mechanism,
	// and vice versa.
	seg2, _ := s.NewExtSegment("bad", 0)
	s.Insmod(seg2, isa.MustAssemble("b", `
		.global kbad
		.text
		kbad:
			mov eax, [0x3000000]
			ret
	`))
	bad, _ := s.ExtensionFunction("kbad")
	if _, err := bad.Invoke(0); !errors.Is(err, ErrKernelExtensionAborted) {
		t.Fatalf("kbad: %v", err)
	}
	if u, err := userFn.Call(10); err != nil || u != 11 {
		t.Fatalf("user mechanism damaged by kernel fault: %d, %v", u, err)
	}
	if k, err := kernFn.Invoke(10); err != nil || k != 20 {
		t.Fatalf("good kernel segment damaged: %d, %v", k, err)
	}
}

// TestManyProtectedFunctions stresses stub generation: dozens of
// extension functions, each with its own Prepare/Transfer pair, all
// dispatching correctly.
func TestManyProtectedFunctions(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	src := ".global f0, f1, f2, f3, f4, f5, f6, f7, f8, f9\n.text\n"
	for i := 0; i < 10; i++ {
		src += stubFn(i)
	}
	h := mustOpen(t, a, src)
	for i := 0; i < 10; i++ {
		pf := mustSym(t, a, h, fn(i))
		got, err := pf.Call(100)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint32(100+i) {
			t.Errorf("%s(100) = %d, want %d", fn(i), got, 100+i)
		}
	}
}

func fn(i int) string { return string(rune('f')) + string(rune('0'+i)) }

func stubFn(i int) string {
	return fn(i) + ":\n\tmov eax, [esp+4]\n\tadd eax, " +
		string(rune('0'+i)) + "\n\tret\n"
}
