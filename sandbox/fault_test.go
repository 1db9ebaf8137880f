package sandbox

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sfi"
)

// faultProbe is one failure mode exercised under one backend.
type faultProbe struct {
	name string
	// run loads and/or invokes whatever triggers the failure and
	// returns its error.
	run  func(t *testing.T, h *Host) error
	want Class
	// hwKind, when set, requires the *Fault to carry a hardware fault
	// of this kind.
	hwKind mmu.FaultKind
	wantHw bool
}

// loadErr loads src under the backend and returns the load error.
func loadErr(backend, src, entry string, opts LoadOptions) func(*testing.T, *Host) error {
	return func(t *testing.T, h *Host) error {
		b, err := Open(backend, h)
		if err != nil {
			t.Fatal(err)
		}
		opts.Entry = entry
		var obj *isa.Object
		if src != "" {
			obj = isa.MustAssemble("probe", src)
		}
		_, err = b.Load(obj, opts)
		return err
	}
}

// invokeErr loads src and returns the error of one invocation.
func invokeErr(backend, src, entry string, arg uint32, opts ...InvokeOption) func(*testing.T, *Host) error {
	return func(t *testing.T, h *Host) error {
		ext := load(t, h, backend, src, entry, LoadOptions{})
		_, err := ext.Invoke(arg, opts...)
		return err
	}
}

// oobHighSrc writes far above the 3 GB user limit: a segment-limit
// violation at any user-level privilege.
const oobHighSrc = `
	.global probe
	.text
	probe:
		mov ecx, 2013265920   ; 0x78000000
		add ecx, ecx          ; 0xF0000000, beyond the user segments
		mov [ecx], eax
		ret
`

// oobUserSrc touches an unmapped user address: a page-level fault.
const oobUserSrc = `
	.global probe
	.text
	probe:
		mov ecx, 134217728    ; 0x08000000, never mapped
		mov [ecx], eax
		ret
`

// jmpOutSrc jumps to an unmapped user address: SFI guards data, not
// control flow that lands outside mapped code, so the fetch faults.
const jmpOutSrc = `
	.global probe
	.text
	probe:
		mov ecx, 134217728
		jmp ecx
`

// TestFaultTaxonomy: the same four failure modes — segment violation,
// page violation, time-limit overrun, validation reject — surface as
// the same sandbox.Fault class under every backend that can express
// them.
func TestFaultTaxonomy(t *testing.T) {
	probes := map[string][]faultProbe{
		"direct": {
			{name: "segment violation", run: invokeErr("direct", oobHighSrc, "probe", 0),
				want: SegmentViolation, wantHw: true, hwKind: mmu.GP},
			{name: "page violation", run: invokeErr("direct", oobUserSrc, "probe", 0),
				want: PageViolation, wantHw: true, hwKind: mmu.PF},
			{name: "time limit", run: invokeErr("direct", spinSrc, "spin", 0, WithTimeLimit(40_000)),
				want: TimeLimit},
			{name: "validation reject", run: loadErr("direct", doubleSrc, "missing_entry", LoadOptions{}),
				want: ValidationReject},
		},
		"palladium-user": {
			{name: "segment violation", run: invokeErr("palladium-user", oobHighSrc, "probe", 0),
				want: SegmentViolation, wantHw: true, hwKind: mmu.GP},
			{name: "page violation", run: invokeErr("palladium-user", oobUserSrc, "probe", 0),
				want: PageViolation, wantHw: true, hwKind: mmu.PF},
			{name: "time limit", run: invokeErr("palladium-user", spinSrc, "spin", 0, WithTimeLimit(40_000)),
				want: TimeLimit},
			{name: "validation reject", run: loadErr("palladium-user", doubleSrc, "missing_entry", LoadOptions{}),
				want: ValidationReject},
		},
		"palladium-kernel": {
			{name: "segment violation", run: invokeErr("palladium-kernel", `
				.global probe
				.text
				probe:
					mov ecx, 1073741824   ; 0x40000000, far past the segment limit
					mov [ecx], eax
					ret
			`, "probe", 0), want: SegmentViolation, wantHw: true, hwKind: mmu.GP},
			{name: "page violation", run: invokeErr("palladium-kernel", `
				.global probe
				.text
				probe:
					mov ecx, 32768        ; 0x8000: inside the limit, never mapped
					mov [ecx], eax
					ret
			`, "probe", 0), want: PageViolation, wantHw: true, hwKind: mmu.PF},
			{name: "time limit", run: invokeErr("palladium-kernel", spinSrc, "spin", 0, WithTimeLimit(40_000)),
				want: TimeLimit},
			{name: "validation reject", run: loadErr("palladium-kernel", doubleSrc, "missing_entry", LoadOptions{}),
				want: ValidationReject},
		},
		"sfi": {
			{name: "page violation", run: invokeErr("sfi", jmpOutSrc, "probe", 0),
				want: PageViolation, wantHw: true, hwKind: mmu.PF},
			{name: "time limit", run: invokeErr("sfi", spinSrc, "spin", 0, WithTimeLimit(40_000)),
				want: TimeLimit},
			{name: "validation reject: dedicated register used", run: loadErr("sfi", `
				.global probe
				.text
				probe:
					mov edi, 1
					ret
			`, "probe", LoadOptions{}), want: ValidationReject},
			{name: "validation reject: region not a power of two", run: loadErr("sfi", doubleSrc, "double",
				LoadOptions{SFI: sfi.Config{DataBase: 0x2000_0000, DataSize: 0x3000}}),
				want: ValidationReject},
		},
		"bpf": {
			{name: "validation reject: no program", run: loadErr("bpf", "", "", LoadOptions{}),
				want: ValidationReject},
			{name: "validation reject: jump out of bounds", run: loadErr("bpf", "", "", LoadOptions{
				BPF: bpf.Program{{Op: bpf.JEq, K: 1, Jt: 9, Jf: 9}, {Op: bpf.RetK, K: 0}}}),
				want: ValidationReject},
			{name: "validation reject: no trailing return", run: loadErr("bpf", "", "", LoadOptions{
				BPF: bpf.Program{{Op: bpf.LdImm, K: 1}}}),
				want: ValidationReject},
			{name: "time limit", run: func(t *testing.T, h *Host) error {
				b, err := Open("bpf", h)
				if err != nil {
					t.Fatal(err)
				}
				ext, err := b.Load(nil, LoadOptions{BPF: bpf.Program{{Op: bpf.RetK, K: 1}}})
				if err != nil {
					t.Fatal(err)
				}
				_, err = ext.Invoke(0, WithTimeLimit(1))
				return err
			}, want: TimeLimit},
		},
	}
	for backend, cases := range probes {
		t.Run(backend, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					err := tc.run(t, newHost(t))
					var f *Fault
					if !errors.As(err, &f) {
						t.Fatalf("err = %v, want *sandbox.Fault", err)
					}
					if f.Class != tc.want {
						t.Fatalf("class = %v, want %v (%v)", f.Class, tc.want, err)
					}
					if f.Backend != backend {
						t.Errorf("fault backend = %q, want %q", f.Backend, backend)
					}
					if tc.wantHw {
						if f.Hw == nil {
							t.Fatalf("fault carries no hardware fault: %v", err)
						}
						if f.Hw.Kind != tc.hwKind {
							t.Errorf("hw kind = %v, want %v", f.Hw.Kind, tc.hwKind)
						}
					}
				})
			}
		})
	}
}

// TestAdversarialFaultsPreservedThroughAdapters re-runs the PR-2
// adversarial escape suite's canonical attacks through the sandbox
// adapters and asserts the adapters change nothing: the same
// SignalInfo is delivered with the same hardware fault, the
// mechanism sentinels still match errors.Is, the protected bytes are
// untouched and the victim keeps serving.
func TestAdversarialFaultsPreservedThroughAdapters(t *testing.T) {
	const secretPattern = "\xDE\xAD\xBE\xEF\x50\x4C\x44\x4D"

	t.Run("spl3 write to hidden PPL-0 page", func(t *testing.T) {
		h := newHost(t)
		a, err := h.App()
		if err != nil {
			t.Fatal(err)
		}
		k := h.Sys.K
		secret, err := a.P.Mmap(k, 0, mem.PageSize, true, "secret")
		if err != nil {
			t.Fatal(err)
		}
		if err := a.P.Touch(k, secret, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := a.WriteMem(secret, []byte(secretPattern)); err != nil {
			t.Fatal(err)
		}
		var signals []string
		var hwFaults []*mmu.Fault
		a.P.SignalHandler = func(si kernel.SignalInfo) {
			signals = append(signals, si.Reason)
			hwFaults = append(hwFaults, si.Fault)
		}

		ext := load(t, h, "palladium-user", fmt.Sprintf(`
			.global escape
			.text
			escape:
				mov eax, 1
				mov [%d], eax
				ret
		`, int32(secret)), "escape", LoadOptions{})
		_, err = ext.Invoke(0)

		if !errors.Is(err, core.ErrExtensionFault) {
			t.Fatalf("ErrExtensionFault not preserved: %v", err)
		}
		var f *Fault
		if !errors.As(err, &f) || f.Class != PageViolation {
			t.Fatalf("err = %v, want PageViolation fault", err)
		}
		if len(signals) != 1 || signals[0] != "user extension protection violation" {
			t.Fatalf("signals = %v, want exactly the PR-2 SIGSEGV reason", signals)
		}
		hw := hwFaults[0]
		if hw == nil || hw.Kind != mmu.PF || hw.Linear != secret || hw.CPL != 3 {
			t.Fatalf("delivered fault = %+v, want PF at the secret from CPL 3", hw)
		}
		if f.Hw != hw {
			t.Errorf("sandbox fault carries %+v, signal carried %+v — not the same fault", f.Hw, hw)
		}
		got := make([]byte, len(secretPattern))
		if err := a.ReadMemInto(secret, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != secretPattern {
			t.Errorf("secret after attack = % x, want % x", got, secretPattern)
		}
		// The application still works: a benign extension loaded and
		// invoked after the abort succeeds.
		benign := load(t, h, "palladium-user", doubleSrc, "double", LoadOptions{})
		if v, err := benign.Invoke(21); err != nil || v != 42 {
			t.Errorf("post-attack protected call = %d, %v; want 42", v, err)
		}
	})

	t.Run("spl1 write past the segment limit", func(t *testing.T) {
		h := newHost(t)
		s := h.Sys
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

		b, err := Open("palladium-kernel", h)
		if err != nil {
			t.Fatal(err)
		}
		attacker, err := b.Load(isa.MustAssemble("attacker", `
			.global attack
			.text
			attack:
				mov eax, 255
				mov [escape_off], eax
				ret
			.data
			.global escape_off
			escape_off: .word 0
		`), LoadOptions{Entry: "attack"})
		if err != nil {
			t.Fatal(err)
		}
		// Overwrite the attack's operand with the victim's stash as
		// seen from the attacker's segment: beyond its limit by
		// construction. Simpler: attack through an absolute store
		// rebuilt against the live layout.
		aseg := attacker.(interface{ Segment() *core.ExtSegment }).Segment()
		escapeOff := victim.Base + stashOff - aseg.Base
		if escapeOff <= aseg.Limit {
			t.Fatalf("setup: escape offset %#x within attacker limit %#x", escapeOff, aseg.Limit)
		}
		attacker2, err := b.Load(isa.MustAssemble("attacker2", fmt.Sprintf(`
			.global attack2
			.text
			attack2:
				mov eax, 255
				mov [%d], eax
				ret
		`, int32(escapeOff))), LoadOptions{Entry: "attack2"})
		if err != nil {
			t.Fatal(err)
		}

		_, err = attacker2.Invoke(0)
		if !errors.Is(err, core.ErrKernelExtensionAborted) {
			t.Fatalf("ErrKernelExtensionAborted not preserved: %v", err)
		}
		var f *Fault
		if !errors.As(err, &f) || f.Class != SegmentViolation {
			t.Fatalf("err = %v, want SegmentViolation fault", err)
		}
		if f.Hw == nil || f.Hw.Kind != mmu.GP || f.Hw.CPL != 1 {
			t.Fatalf("hw fault = %+v, want #GP from SPL 1", f.Hw)
		}

		// The victim's byte never changed and the victim still runs.
		vget, ok := s.ExtensionFunction("vget")
		if !ok {
			t.Fatal("victim was deregistered by the attacker's abort")
		}
		if got, err := vget.Invoke(0); err != nil || got != 90 {
			t.Errorf("victim stash after attack = %d, %v; want 90", got, err)
		}
		// The attacker is revoked: its entry point is gone.
		if _, ok := s.ExtensionFunction("attack2"); ok {
			t.Error("aborted extension still registered")
		}
		var f2 *Fault
		if _, err := attacker2.Invoke(0); !errors.As(err, &f2) || f2.Class != Revoked {
			t.Errorf("post-abort invoke = %v, want Revoked", err)
		}
	})
}
