package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// TestGOTAttackBlockedBySealing demonstrates the Section 4.4.2 hazard
// and its fix: with the GOT writable, an extension can redirect the
// application's next library call; with the sealed (read-only,
// page-aligned) GOT that Palladium requires, the same store faults.
func TestGOTAttackBlockedBySealing(t *testing.T) {
	build := func(seal bool) (*App, *loader.Image, *ProtectedFunc, uint32) {
		s := newSystem(t)
		a := newApp(t, s)
		// A "victim" library whose function the app calls through its
		// GOT, plus a gadget the attacker wants to run instead.
		lib := isa.MustAssemble("victim", `
			.global victim, gadget
			.text
			victim:
				mov eax, 1
				ret
			gadget:
				mov eax, 666
				ret
		`)
		_, libIm, err := a.DL.Dlopen(lib, loader.LibraryOptions())
		if err != nil {
			t.Fatal(err)
		}
		// The application's own module calls victim via PLT/GOT.
		appObj := isa.MustAssemble("appmod", `
			.global appcall
			.text
			appcall:
				call victim
				ret
		`)
		opt := loader.LibraryOptions()
		opt.SealGOT = seal
		_, im, err2 := a.DL.Dlopen(appObj, opt)
		if err2 != nil {
			t.Fatal(err2)
		}
		// The attacker extension writes [got] = gadget.
		h := mustOpen(t, a, `
			.global smash
			.text
			smash:
				mov edx, [esp+4]     ; argument block
				mov eax, [edx]       ; GOT slot address
				mov ecx, [edx+4]     ; gadget address
				mov [eax], ecx
				ret
		`)
		pf := mustSym(t, a, h, "smash")
		return a, im, pf, libIm.Syms["gadget"]
	}

	// Unsealed: the attack succeeds and hijacks the app's call.
	a, im, pf, gadget := build(false)
	args, err := a.SharedAlloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	a.WriteMem(args, leBytes(im.GOTBase, gadget))
	if _, err := pf.Call(args); err != nil {
		t.Fatalf("unsealed GOT write should succeed: %v", err)
	}
	got, err := a.CallUnprotected(im.Syms["appcall"], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 666 {
		t.Errorf("hijack demo: appcall = %d, expected gadget's 666", got)
	}

	// Sealed: the same attack faults and the app's call is intact.
	a, im, pf, gadget = build(true)
	if args, err = a.SharedAlloc(mem.PageSize); err != nil {
		t.Fatal(err)
	}
	a.WriteMem(args, leBytes(im.GOTBase, gadget))
	if _, err := pf.Call(args); !errors.Is(err, ErrExtensionFault) {
		t.Fatalf("sealed GOT write: err = %v, want fault", err)
	}
	got, err = a.CallUnprotected(im.Syms["appcall"], 0)
	if err != nil || got != 1 {
		t.Errorf("appcall after blocked attack = %d, %v; want 1", got, err)
	}
}

func leBytes(vals ...uint32) []byte {
	out := make([]byte, 0, len(vals)*4)
	for _, v := range vals {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return out
}

// TestForkedAppInheritsProtection checks Section 4.5.2: a promoted
// application's fork stays at SPL 2 with its page privileges intact.
func TestForkedAppInheritsProtection(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	secret, _ := a.P.Mmap(s.K, 0, mem.PageSize, true, "secret")
	if err := a.P.Touch(s.K, secret, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	child, err := s.K.Fork(a.P)
	if err != nil {
		t.Fatal(err)
	}
	if child.TaskSPL != 2 {
		t.Error("forked clone must continue at SPL 2")
	}
	if child.AS.Lookup(secret).User() {
		t.Error("forked clone's secret page must stay PPL 0")
	}
	// Exec resets (new processes "by default should start at SPL 3").
	if err := s.K.Exec(child); err != nil {
		t.Fatal(err)
	}
	if child.TaskSPL != 3 {
		t.Error("exec must reset the clone to SPL 3")
	}
}

// TestExtensionUsesLibcMemcpyOnSharedArea exercises a realistic
// extension: it memcpy's between two shared buffers via the PLT.
func TestExtensionUsesLibcMemcpyOnSharedArea(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, `
		.global copy16
		.text
		copy16:
			mov eax, [esp+4]     ; arg block: [dst][src]
			push 16
			push [eax+4]
			push [eax]
			call memcpy
			add esp, 12
			ret
	`)
	pf := mustSym(t, a, h, "copy16")
	shared, err := a.SharedAlloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	src, dst, args := shared, shared+256, shared+512
	if err := a.WriteString(src, "segmentation+pg"); err != nil {
		t.Fatal(err)
	}
	a.WriteMem(args, leBytes(dst, src))
	if _, err := pf.Call(args); err != nil {
		t.Fatal(err)
	}
	got := readString(t, a, dst, 32)
	if got != "segmentation+pg" {
		t.Errorf("memcpy result = %q", got)
	}
}

// TestTwoExtensionModulesNoMutualProtection documents the stated
// non-goal: "among extension modules, the protection is only for
// safety but not for security" — two user extensions of one app can
// touch each other's PPL-1 data.
func TestTwoExtensionModulesNoMutualProtection(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	h1 := mustOpen(t, a, `
		.global get
		.text
		get:
			mov eax, [stash]
			ret
		.data
		.global stash
		stash: .word 7
	`)
	stashAddr, err := a.Dlsym(h1, "stash")
	if err != nil {
		t.Fatal(err)
	}
	h2 := mustOpen(t, a, `
		.global poke
		.text
		poke:
			mov eax, [esp+4]
			mov [eax], 99
			ret
	`)
	poke := mustSym(t, a, h2, "poke")
	if _, err := poke.Call(stashAddr); err != nil {
		t.Fatalf("cross-extension write should be allowed: %v", err)
	}
	get := mustSym(t, a, h1, "get")
	if got, _ := get.Call(0); got != 99 {
		t.Errorf("stash = %d, want 99 (modules share the PPL-1 domain)", got)
	}
}

// TestProtectedCallGapConstantAcrossArgs pins the Table 2 observation
// that the protected-unprotected difference is constant (~142 cycles)
// regardless of the argument value.
func TestProtectedCallGapConstantAcrossArgs(t *testing.T) {
	s := newSystem(t)
	a := newApp(t, s)
	h := mustOpen(t, a, incSrc)
	pf := mustSym(t, a, h, "inc")
	raw, _ := a.Dlsym(h, "inc")
	pf.Call(0)                // warm
	a.CallUnprotected(raw, 0) // warm
	clock := s.Clock()
	var gaps []float64
	for _, arg := range []uint32{0, 1, 1 << 20, 0xFFFF_FFFF} {
		var protErr error
		prot := clock.Span(func() { _, protErr = pf.Call(arg) })
		unprot := clock.Span(func() { _, _ = a.CallUnprotected(raw, arg) })
		if protErr != nil {
			t.Fatal(protErr)
		}
		gaps = append(gaps, prot-unprot)
	}
	for _, g := range gaps[1:] {
		if g != gaps[0] {
			t.Fatalf("gap varies with argument: %v", gaps)
		}
	}
	if gaps[0] < 130 || gaps[0] > 160 {
		t.Errorf("protected-unprotected gap = %v cycles, paper ~118-153", gaps[0])
	}
}

// TestKernelServiceRunsOnCallersKernelStack checks the Section 4.3
// statement that kernel services invoked by extensions execute on the
// kernel stack of the triggering user process.
func TestKernelServiceRunsOnCallersKernelStack(t *testing.T) {
	s := newSystem(t)
	p, _ := s.K.CreateProcess()
	var sawESP uint32
	s.K.RegisterKernelService(9, func(k *kernel.Kernel, proc *kernel.Process, _, _, _ uint32) uint32 {
		sawESP = k.Machine.Reg(isa.ESP)
		return 0
	})
	seg, _ := s.NewExtSegment("svc", 0)
	s.Insmod(seg, isa.MustAssemble("m", `
		.global callsvc
		.text
		callsvc:
			mov eax, 9
			int 0x81
			ret
	`))
	f, _ := s.ExtensionFunction("callsvc")
	if _, err := f.Invoke(0); err != nil {
		t.Fatal(err)
	}
	top := p.KStackTop - kernel.KernelBase
	if sawESP == 0 || sawESP > top || top-sawESP > mem.PageSize {
		t.Errorf("service ESP = %#x, expected within the caller's kernel stack (top %#x)", sawESP, top)
	}
}

// ---------------------------------------------------------------------------
// Adversarial escape attempts. Each case is an extension that tries to
// break out of its Palladium domain through a specific hole the paper
// claims is closed; the test asserts the exact hardware fault, that
// the protected bytes never changed, and that the trusted side keeps
// working afterwards.

const secretPattern = "\xDE\xAD\xBE\xEF\x50\x4C\x44\x4D"

// userEscapeCase is one SPL-3 (user extension) escape attempt. The
// source is generated against the concrete secret address the app
// hides at PPL 0.
type userEscapeCase struct {
	name string
	src  func(secret uint32) string
	// wantKind/wantReason pin the exact fault the MMU/CPU must raise.
	wantKind   mmu.FaultKind
	wantReason string
	// wantLinear, when true, requires the faulting linear address to
	// be the secret itself.
	wantLinear bool
}

func userEscapeCases() []userEscapeCase {
	return []userEscapeCase{
		{
			// Section 4.4.1: the application's writable pages are PPL 0
			// after init_PL; an SPL-3 store to one that was never
			// exposed via set_range must page-fault.
			name: "spl3 write to hidden PPL-0 page",
			src: func(secret uint32) string {
				return fmt.Sprintf(`
					.global escape
					.text
					escape:
						mov eax, 1
						mov [%d], eax
						ret
				`, int32(secret))
			},
			wantKind:   mmu.PF,
			wantReason: "page privilege violation (PPL 0 page at CPL 3)",
			wantLinear: true,
		},
		{
			// Figure 2: the user segments stop at 3 GB, so a jump at a
			// kernel linear address trips the segment limit before any
			// kernel byte is fetched.
			name: "spl3 jump into the kernel bypassing the call gate",
			src: func(uint32) string {
				kernelTarget := uint32(0xC000_1000)
				return fmt.Sprintf(`
					.global escape
					.text
					escape:
						mov eax, %d
						jmp eax
				`, int32(kernelTarget))
			},
			wantKind:   mmu.GP,
			wantReason: "segment limit violation",
		},
		{
			// Section 4.3: kernel entry points are call gates; an lcall
			// straight at the kernel code descriptor is rejected.
			name: "spl3 lcall directly at the kernel code segment",
			src: func(uint32) string {
				return `
					.global escape
					.text
					escape:
						lcall 0x08
						ret
				`
			},
			wantKind:   mmu.GP,
			wantReason: "lcall: not a call gate",
		},
		{
			// Figure 6's downhill transfer is an lret; forging a frame
			// whose CS names a more privileged segment must not raise
			// privilege.
			name: "spl3 lret to a forged ring-0 selector",
			src: func(uint32) string {
				return `
					.global escape
					.text
					escape:
						push 0x08
						push 0
						lret
				`
			},
			wantKind:   mmu.GP,
			wantReason: "lret to more privileged level",
		},
	}
}

func TestAdversarialUserEscapeAttempts(t *testing.T) {
	for _, tc := range userEscapeCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := newSystem(t)
			a := newApp(t, s)

			// The application's secret: a writable (hence PPL 0) page
			// holding a known pattern.
			secret, err := a.P.Mmap(s.K, 0, mem.PageSize, true, "secret")
			if err != nil {
				t.Fatal(err)
			}
			if err := a.P.Touch(s.K, secret, mem.PageSize); err != nil {
				t.Fatal(err)
			}
			if err := a.WriteMem(secret, []byte(secretPattern)); err != nil {
				t.Fatal(err)
			}

			var delivered []kernel.SignalInfo
			a.P.SignalHandler = func(si kernel.SignalInfo) { delivered = append(delivered, si) }

			h := mustOpen(t, a, tc.src(secret))
			pf := mustSym(t, a, h, "escape")
			_, err = pf.Call(0)
			if !errors.Is(err, ErrExtensionFault) {
				t.Fatalf("escape returned %v, want ErrExtensionFault", err)
			}

			// Exactly one SIGSEGV with exactly the expected fault.
			if len(delivered) != 1 || delivered[0].Sig != kernel.SIGSEGV {
				t.Fatalf("signals delivered = %+v, want one SIGSEGV", delivered)
			}
			f := delivered[0].Fault
			if f == nil {
				t.Fatal("SIGSEGV carried no fault")
			}
			if f.Kind != tc.wantKind {
				t.Errorf("fault kind = %v, want %v (%v)", f.Kind, tc.wantKind, f)
			}
			if !strings.Contains(f.Reason, tc.wantReason) {
				t.Errorf("fault reason = %q, want %q", f.Reason, tc.wantReason)
			}
			if f.CPL != 3 {
				t.Errorf("fault CPL = %d, want 3 (the extension, not the app)", f.CPL)
			}
			if tc.wantLinear && f.Linear != secret {
				t.Errorf("fault linear = %#x, want the secret %#x", f.Linear, secret)
			}

			// Not a single protected byte changed.
			got := make([]byte, len(secretPattern))
			if err := a.ReadMemInto(secret, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != secretPattern {
				t.Errorf("secret after attack = % x, want % x", got, secretPattern)
			}

			// The application still works: a benign protected call
			// succeeds after the attack was aborted.
			h2 := mustOpen(t, a, incSrc)
			inc := mustSym(t, a, h2, "inc")
			if got, err := inc.Call(41); err != nil || got != 42 {
				t.Errorf("post-attack protected call = %d, %v; want 42", got, err)
			}
		})
	}
}

// TestAdversarialKernelEscapeAttempts is the SPL-1 side: kernel
// extensions trying to escape their extension segment. The victim is a
// second extension segment holding a known byte; the paper's claim is
// that the segment limit check stops the attacker before the victim
// (or any other kernel byte) is touched.
func TestAdversarialKernelEscapeAttempts(t *testing.T) {
	cases := []struct {
		name string
		src  func(escapeOff int32) string
		want string // substring of the aborted-extension error
	}{
		{
			// The Section 4.2 scenario: a store whose segment-relative
			// offset lands in another extension's segment, far past the
			// attacker's limit.
			name: "spl1 write past the segment limit",
			src: func(escapeOff int32) string {
				return fmt.Sprintf(`
					.global attack
					.text
					attack:
						mov eax, 255
						mov [%d], eax
						ret
				`, escapeOff)
			},
			want: "segment limit violation",
		},
		{
			// Jumping out of the code segment is caught the same way.
			name: "spl1 jump past the segment limit",
			src: func(escapeOff int32) string {
				return fmt.Sprintf(`
					.global attack
					.text
					attack:
						mov eax, %d
						jmp eax
				`, escapeOff)
			},
			want: "segment limit violation",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSystem(t)
			if _, err := s.K.CreateProcess(); err != nil {
				t.Fatal(err)
			}

			attacker, err := s.NewExtSegment("attacker", 0)
			if err != nil {
				t.Fatal(err)
			}
			victim, err := s.NewExtSegment("victim", 0)
			if err != nil {
				t.Fatal(err)
			}
			vim, err := s.Insmod(victim, isa.MustAssemble("victim", `
				.global vget
				.text
				vget:
					mov eax, [vstash]
					ret
				.data
				.global vstash
				vstash: .word 90
			`))
			if err != nil {
				t.Fatal(err)
			}
			stashOff, ok := vim.Lookup("vstash")
			if !ok {
				t.Fatal("vstash not found")
			}
			// The attacker's segment-relative view of the victim's
			// stash: beyond the attacker's limit by construction.
			escapeOff := int32(victim.Base + stashOff - attacker.Base)
			if uint32(escapeOff) <= attacker.Limit {
				t.Fatalf("test setup: escape offset %#x within attacker limit %#x", escapeOff, attacker.Limit)
			}
			if _, err := s.Insmod(attacker, isa.MustAssemble("attacker", tc.src(escapeOff))); err != nil {
				t.Fatal(err)
			}

			fn, ok := s.ExtensionFunction("attack")
			if !ok {
				t.Fatal("attack not registered")
			}
			_, err = fn.Invoke(0)
			if !errors.Is(err, ErrKernelExtensionAborted) {
				t.Fatalf("attack returned %v, want ErrKernelExtensionAborted", err)
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "#GP") {
				t.Errorf("abort error = %q, want #GP with %q", err, tc.want)
			}
			if !attacker.aborted {
				t.Error("attacker segment not aborted")
			}

			// The victim's byte never changed and the victim still runs.
			vget, ok := s.ExtensionFunction("vget")
			if !ok {
				t.Fatal("victim was deregistered by the attacker's abort")
			}
			if got, err := vget.Invoke(0); err != nil || got != 90 {
				t.Errorf("victim stash after attack = %d, %v; want 90", got, err)
			}
			raw := readShared(t, s, victim, stashOff, 1)
			if raw[0] != 90 {
				t.Errorf("victim byte = %d, want 90", raw[0])
			}

			// The attacker's entry point is gone (resource reclamation).
			if _, ok := s.ExtensionFunction("attack"); ok {
				t.Error("aborted extension still registered")
			}
		})
	}
}
