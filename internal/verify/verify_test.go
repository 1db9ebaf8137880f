package verify

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

// userLayout mirrors the palladium-user adapter's layout: no absolute
// regions (everything the extension owns arrives via relocated
// symbols), 16 stack pages below the entry pointer, the syscall
// vector, and PLT externs.
func userLayout() Layout {
	return Layout{
		Backend:      "palladium-user",
		StackBelow:   16*4096 - 8,
		StackAbove:   8,
		AllowedInts:  []uint8{0x80},
		AllowExterns: true,
	}
}

// kernelLayout mirrors the palladium-kernel adapter: the segment's
// scratch+stack pages are one absolute RW region, the service gate
// vector is provided, and externs resolve to published services.
func kernelLayout() Layout {
	return Layout{
		Backend:    "palladium-kernel",
		Regions:    []Region{{Name: "scratch+stack", Lo: 0, Hi: 0x5000 - 1, Perm: PermRW}},
		StackBelow: 0x3FF8,
		StackAbove: 8,
		// The region contains the stack: entry ESP is absolute 0x4FF8
		// and the stack window spans [0x1000, 0x5000).
		StackAbs:      0x5000 - 8,
		StackAbsKnown: true,
		AllowedInts:   []uint8{0x81},
		AllowExterns:  true,
	}
}

func mustCheck(t *testing.T, name, src string, lay Layout) *Report {
	t.Helper()
	obj := isa.MustAssemble(name, src)
	return Check(obj, lay)
}

// reportLine flattens a finding for pinning.
func reportLine(f Finding) string {
	s := fmt.Sprintf("#%d %s", f.Index, f.Reason)
	if f.Range != "" {
		s += " (" + f.Range + ")"
	}
	return s
}

func pinFindings(t *testing.T, got []Finding, want []string) {
	t.Helper()
	var lines []string
	for _, f := range got {
		lines = append(lines, reportLine(f))
	}
	if len(lines) != len(want) {
		t.Fatalf("findings = %q, want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("finding[%d] = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestEscapeSuiteRejected pins the exact verifier report for every
// PR-2 adversarial escape program: each is flagged statically, before
// it would ever run.
func TestEscapeSuiteRejected(t *testing.T) {
	secret := uint32(0x0040_3000) // a hidden PPL-0 page address
	kernelTarget := uint32(0xC000_1000)
	escapeOff := int32(0x0003_0000) // a victim segment offset beyond the attacker's limit

	cases := []struct {
		name string
		src  string
		lay  Layout
		want []string
	}{
		{
			name: "user abs write to hidden page",
			src: fmt.Sprintf(`
				.global escape
				.text
				escape:
					mov eax, 1
					mov [%d], eax
					ret
			`, int32(secret)),
			lay: userLayout(),
			want: []string{
				"#1 absolute write outside the declared regions (abs[0x403000,0x403003])",
			},
		},
		{
			name: "user indirect jump into the kernel",
			src: fmt.Sprintf(`
				.global escape
				.text
				escape:
					mov eax, %d
					jmp eax
			`, int32(kernelTarget)),
			lay: userLayout(),
			want: []string{
				"#1 indirect jump outside module text (abs[0xc0001000,0xc0001000])",
			},
		},
		{
			name: "user lcall at the kernel code descriptor",
			src: `
				.global escape
				.text
				escape:
					lcall 0x08
					ret
			`,
			lay: userLayout(),
			want: []string{
				"#0 far call at a literal selector bypasses the published gates",
			},
		},
		{
			name: "user lret to a forged ring-0 selector",
			src: `
				.global escape
				.text
				escape:
					push 0x08
					push 0
					lret
			`,
			lay: userLayout(),
			want: []string{
				"#2 far return forges a privilege transition",
			},
		},
		{
			name: "kernel abs write beyond the segment",
			src: fmt.Sprintf(`
				.global attack
				.text
				attack:
					mov eax, 255
					mov [%d], eax
					ret
			`, escapeOff),
			lay: kernelLayout(),
			want: []string{
				"#1 absolute write outside the declared regions (abs[0x30000,0x30003])",
			},
		},
		{
			name: "kernel indirect jump beyond the segment",
			src: fmt.Sprintf(`
				.global attack
				.text
				attack:
					mov eax, %d
					jmp eax
			`, escapeOff),
			lay: kernelLayout(),
			want: []string{
				"#1 indirect jump outside module text (abs[0x30000,0x30000])",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustCheck(t, "escape", tc.src, tc.lay)
			if rep.Status != Rejected {
				t.Fatalf("status = %v, want rejected; report: %+v", rep.Status, rep)
			}
			if rep.Accepted() {
				t.Error("Accepted() = true for a rejected report")
			}
			if err := rep.Err(); err == nil {
				t.Error("Err() = nil for a rejected report")
			}
			pinFindings(t, rep.Violations, tc.want)
		})
	}
}

// hotLoopSrc is a counted compute loop: both scratch accesses are
// anchored data operands, so they verify Clean, and the dec/jne latch
// proves the step bound.
const hotLoopSrc = `
	.global hotloop
	.text
	hotloop:
		mov eax, 0
		mov ecx, 1000
	loop:
		add eax, ecx
		mov [scratch], eax
		mov ebx, [scratch]
		dec ecx
		jne loop
		ret
	.data
	scratch: .long 0
`

func TestHotLoopClean(t *testing.T) {
	rep := mustCheck(t, "hotloop", hotLoopSrc, kernelLayout())
	if rep.Status != Clean {
		t.Fatalf("status = %v, want clean; violations %v unproven %v", rep.Status, rep.Violations, rep.Unproven)
	}
	if !rep.Bounded {
		t.Fatal("hot loop must have a proven step bound")
	}
	// 8 straight-line nodes + 1000 iterations of the 5-instruction body.
	if rep.MaxSteps != 8+1000*5 {
		t.Errorf("MaxSteps = %d, want %d", rep.MaxSteps, 8+1000*5)
	}
	if rep.Proven == 0 {
		t.Error("no proven accesses")
	}
}

func TestNullFnClean(t *testing.T) {
	rep := mustCheck(t, "null", `
		.global nullfn
		.text
		nullfn: ret
	`, userLayout())
	if rep.Status != Clean {
		t.Fatalf("status = %v, want clean; %v %v", rep.Status, rep.Violations, rep.Unproven)
	}
	if !rep.Bounded || rep.MaxSteps != 1 {
		t.Errorf("Bounded=%v MaxSteps=%d, want bounded 1 step", rep.Bounded, rep.MaxSteps)
	}
}

// TestStrrevGuarded: data-dependent loops and pointer-chasing reads
// cannot be discharged statically, but nothing is provably wrong —
// the runtime checks carry the burden (the paper's own design point).
func TestStrrevGuarded(t *testing.T) {
	src := `
		.global strrev
		.text
		strrev:
			push ebx
			push esi
			push edi
			mov esi, [esp+16]
			mov ecx, esi
		len:
			movb edx, [ecx]
			inc ecx
			cmp edx, 0
			jne len
			sub ecx, 2
			mov edi, esi
			mov eax, esi
		rev:
			cmp edi, ecx
			jae done
			movb edx, [edi]
			movb ebx, [ecx]
			movb [edi], ebx
			movb [ecx], edx
			inc edi
			dec ecx
			jmp rev
		done:
			pop edi
			pop esi
			pop ebx
			ret
	`
	rep := mustCheck(t, "strrev", src, userLayout())
	if rep.Status != Guarded {
		t.Fatalf("status = %v, want guarded; violations: %v", rep.Status, rep.Violations)
	}
	if rep.Bounded {
		t.Error("strrev's loops must not get a proven bound")
	}
	if len(rep.Violations) != 0 {
		t.Errorf("violations = %v, want none", rep.Violations)
	}
}

// TestArgPointerProven: dereferences through the typed entry argument
// are proved against the declared shared-area size.
func TestArgPointerProven(t *testing.T) {
	src := `
		.global fn
		.text
		fn:
			mov eax, [esp+4]
			mov ecx, [eax]
			mov edx, [eax+4]
			add ecx, edx
			mov [eax+8], ecx
			ret
	`
	lay := userLayout()
	lay.Arg = ArgSpec{Pointer: true, Size: 1024, Perm: PermRW}
	rep := mustCheck(t, "argfn", src, lay)
	if rep.Status != Clean {
		t.Fatalf("status = %v, want clean; %v %v", rep.Status, rep.Violations, rep.Unproven)
	}

	// The same program with a 8-byte argument area cannot discharge
	// the [eax+8] store.
	lay.Arg.Size = 8
	rep = mustCheck(t, "argfn", src, lay)
	if rep.Status != Guarded {
		t.Fatalf("small-arg status = %v, want guarded; %v", rep.Status, rep.Violations)
	}
}

// TestDataBounds: anchored data accesses verify against the module's
// data+bss extent; out-of-bounds ones are definite violations.
func TestDataBounds(t *testing.T) {
	rep := mustCheck(t, "oob", `
		.global fn
		.text
		fn:
			mov eax, [scratch+64]
			ret
		.data
		scratch: .long 0
	`, kernelLayout())
	if rep.Status != Rejected {
		t.Fatalf("status = %v, want rejected", rep.Status)
	}
	pinFindings(t, rep.Violations, []string{
		"#0 module data read out of bounds (data[64,67])",
	})
}

// TestStoreIntoText is rejected outright.
func TestStoreIntoText(t *testing.T) {
	rep := mustCheck(t, "smash", `
		.global fn
		.text
		fn:
			mov [fn], eax
			ret
	`, kernelLayout())
	if rep.Status != Rejected {
		t.Fatalf("status = %v, want rejected; %v", rep.Status, rep.Unproven)
	}
	pinFindings(t, rep.Violations, []string{
		"#0 store into module text (text[0,3])",
	})
}

// TestBudget: a provably huge counted loop is rejected against the
// layout budget, while a modest one passes.
func TestBudget(t *testing.T) {
	src := func(n int) string {
		return fmt.Sprintf(`
			.global fn
			.text
			fn:
				mov ecx, %d
			loop:
				dec ecx
				jne loop
				ret
		`, n)
	}
	lay := kernelLayout()
	lay.Budget = 10_000
	if rep := mustCheck(t, "small", src(1000), lay); rep.Status != Clean {
		t.Fatalf("small loop status = %v, want clean; %v %v", rep.Status, rep.Violations, rep.Unproven)
	}
	rep := mustCheck(t, "big", src(1_000_000), lay)
	if rep.Status != Rejected {
		t.Fatalf("big loop status = %v, want rejected", rep.Status)
	}
	if !strings.Contains(rep.Violations[0].Reason, "exceeds the layout budget") {
		t.Errorf("reason = %q", rep.Violations[0].Reason)
	}
}

// TestRequireBounded turns unprovable termination from Guarded into
// Rejected.
func TestRequireBounded(t *testing.T) {
	src := `
		.global fn
		.text
		fn:
			mov eax, [esp+4]
		spin:
			dec eax
			jne spin
			ret
	`
	lay := kernelLayout()
	if rep := mustCheck(t, "spin", src, lay); rep.Status != Guarded {
		t.Fatalf("status = %v, want guarded; %v", rep.Status, rep.Violations)
	}
	lay.RequireBounded = true
	rep := mustCheck(t, "spin", src, lay)
	if rep.Status != Rejected {
		t.Fatalf("strict status = %v, want rejected", rep.Status)
	}
	pinFindings(t, rep.Violations, []string{"#2 loop bound not provable"})
}

// TestIntVectors: only the environment's vectors are allowed.
func TestIntVectors(t *testing.T) {
	src := `
		.global fn
		.text
		fn:
			int 0x80
			ret
	`
	if rep := mustCheck(t, "sys", src, userLayout()); rep.Status == Rejected {
		t.Fatalf("int 0x80 under user layout rejected: %v", rep.Violations)
	}
	rep := mustCheck(t, "sys", src, kernelLayout())
	if rep.Status != Rejected {
		t.Fatalf("int 0x80 under kernel layout = %v, want rejected", rep.Status)
	}
	pinFindings(t, rep.Violations, []string{"#0 int 0x80: vector not provided by the environment"})
}

// TestExternPolicy: extern calls ride the PLT when the layout allows
// them and reject otherwise.
func TestExternPolicy(t *testing.T) {
	src := `
		.global fn
		.text
		fn:
			push 3
			call helper
			add esp, 4
			ret
	`
	if rep := mustCheck(t, "ext", src, userLayout()); rep.Status == Rejected {
		t.Fatalf("extern call under permissive layout rejected: %v", rep.Violations)
	}
	lay := userLayout()
	lay.AllowExterns = false
	rep := mustCheck(t, "ext", src, lay)
	if rep.Status != Rejected {
		t.Fatalf("status = %v, want rejected", rep.Status)
	}
	pinFindings(t, rep.Violations, []string{`#1 call to extern "helper" not permitted by layout`})
}

// TestStackDiscipline: frame traffic within the declared window is
// proven; under-runs are violations.
func TestStackDiscipline(t *testing.T) {
	rep := mustCheck(t, "frame", `
		.global fn
		.text
		fn:
			push ebx
			mov ebx, [esp+8]
			mov [esp], ebx
			pop ebx
			ret
	`, kernelLayout())
	if rep.Status != Clean {
		t.Fatalf("status = %v, want clean; %v %v", rep.Status, rep.Violations, rep.Unproven)
	}

	// Reading far above the entry frame leaves the read window.
	rep = mustCheck(t, "peek", `
		.global fn
		.text
		fn:
			mov eax, [esp+64]
			ret
	`, kernelLayout())
	if rep.Status != Rejected {
		t.Fatalf("status = %v, want rejected; %v", rep.Status, rep.Unproven)
	}
	pinFindings(t, rep.Violations, []string{
		"#0 stack-relative read outside the extension stack (stack[64,67])",
	})

	// An unbalanced return is left to the runtime (Guarded).
	rep = mustCheck(t, "unbal", `
		.global fn
		.text
		fn:
			push eax
			ret
	`, kernelLayout())
	if rep.Status != Guarded {
		t.Fatalf("status = %v, want guarded; %v", rep.Status, rep.Violations)
	}
}

// TestAbsStoreStackAliasHavoc pins the fix for a soundness hole: the
// kernel layout's declared scratch+stack region contains the extension
// stack, so a proven absolute store can alias a tracked stack slot.
// The verifier must forget the slot's abstract value — otherwise the
// popped "pointer" below would keep its pushed safe constant, and the
// store through it would be proven although the absolute store
// replaced that address at run time.
func TestAbsStoreStackAliasHavoc(t *testing.T) {
	// kernelLayout entry ESP is absolute 0x4FF8; after the push the
	// tracked slot lives at absolute 0x4FF4 (= 20468) — exactly where
	// the absolute store lands.
	src := `
		.global fn
		.text
		fn:
			push 1280
			mov ecx, [esp+8]
			mov [20468], ecx
			pop ebx
			mov [ebx], ecx
			ret
	`
	rep := mustCheck(t, "alias", src, kernelLayout())
	if rep.Status != Guarded {
		t.Fatalf("status = %v, want guarded; violations %v unproven %v",
			rep.Status, rep.Violations, rep.Unproven)
	}
	var demoted bool
	for _, f := range rep.Unproven {
		if f.Index == 4 && strings.Contains(f.Reason, "unresolved address") {
			demoted = true
		}
	}
	if !demoted {
		t.Errorf("store through the clobbered slot not demoted: %v", rep.Unproven)
	}

	// The same program with the absolute store below the stack window
	// (scratch area at 0x500) cannot alias the slot: the popped
	// constant survives and everything is proven.
	clean := `
		.global fn
		.text
		fn:
			push 1280
			mov ecx, [esp+8]
			mov [1280], ecx
			pop ebx
			mov [ebx], ecx
			ret
	`
	rep = mustCheck(t, "scratch", clean, kernelLayout())
	if rep.Status != Clean {
		t.Fatalf("scratch-store status = %v, want clean; %v %v",
			rep.Status, rep.Violations, rep.Unproven)
	}
}

// TestNestedLoopBound: an inner counted loop runs in full once per
// outer iteration, so the proven step bound must multiply the trip
// counts. A budget sized between the (formerly reported) additive
// undercount and the true multiplicative bound must reject.
func TestNestedLoopBound(t *testing.T) {
	src := `
		.global fn
		.text
		fn:
			mov edx, 100
		outer:
			mov ecx, 50
		inner:
			dec ecx
			jne inner
			dec edx
			jne outer
			ret
	`
	rep := mustCheck(t, "nest", src, kernelLayout())
	if rep.Status != Clean {
		t.Fatalf("status = %v, want clean; %v %v", rep.Status, rep.Violations, rep.Unproven)
	}
	if !rep.Bounded {
		t.Fatal("nested counted loops must have a proven bound")
	}
	// 7 straight-line nodes + 100 outer iterations x (3 own body
	// nodes + 50 inner iterations x 2 inner body nodes).
	const want = 7 + 100*(3+50*2)
	if rep.MaxSteps != want {
		t.Errorf("MaxSteps = %d, want %d", rep.MaxSteps, want)
	}

	// The additive undercount was 7 + 100*5 + 50*2 = 607: a budget of
	// 5000 would have passed it while the true bound is 10307.
	lay := kernelLayout()
	lay.Budget = 5000
	rep = mustCheck(t, "nest", src, lay)
	if rep.Status != Rejected {
		t.Fatalf("budget status = %v, want rejected", rep.Status)
	}
	if !strings.Contains(rep.Violations[0].Reason, "exceeds the layout budget") {
		t.Errorf("reason = %q", rep.Violations[0].Reason)
	}
}

// TestSharedSiteMixedDomains: an instruction shared by two entry
// points can be proven absolute in one context and stack-relative in
// the other; the site is proven in both and the program is Clean.
func TestSharedSiteMixedDomains(t *testing.T) {
	src := `
		.global a
		.global b
		.text
		a:
			mov ebx, 640
			jmp common
		b:
			mov ebx, esp
			sub ebx, 8
			jmp common
		common:
			mov [ebx], ecx
			ret
	`
	rep := mustCheck(t, "shared", src, kernelLayout())
	if rep.Status != Clean {
		t.Fatalf("status = %v, want clean; %v %v", rep.Status, rep.Violations, rep.Unproven)
	}
}

// TestSFIMaskSequence: the rewriter's and/or mask-and-rebase sequence
// proves the store into the SFI region — the interval domain's
// raison d'être for the SFI backend.
func TestSFIMaskSequence(t *testing.T) {
	base, size := uint32(0x2000_0000), uint32(0x0001_0000)
	src := fmt.Sprintf(`
		.global fn
		.text
		fn:
			mov edi, [esp+4]
			and edi, %d
			or edi, %d
			mov [edi], eax
			ret
	`, int32(size-1), int32(base))
	// The region carries the classic SFI guard slack: a 4-byte access
	// masked to the last region byte spills up to 3 bytes past it, and
	// guard pages (not the mask) absorb that in the original design.
	lay := Layout{
		Backend:      "sfi",
		Regions:      []Region{{Name: "sfi", Lo: base, Hi: base + size + 2, Perm: PermW}},
		StackBelow:   16*4096 - 8,
		StackAbove:   8,
		AllowExterns: true,
	}
	rep := mustCheck(t, "sfi", src, lay)
	if rep.Status != Clean {
		t.Fatalf("status = %v, want clean; %v %v", rep.Status, rep.Violations, rep.Unproven)
	}
}

// TestReportJSON keeps the report's JSON shape stable.
func TestReportJSON(t *testing.T) {
	rep := mustCheck(t, "hotloop", hotLoopSrc, kernelLayout())
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"status":"clean"`, `"bounded":true`, `"proven_accesses":`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON %s missing %q", b, want)
		}
	}
}

// TestNoEntry: an object with no global text symbol is rejected.
func TestNoEntry(t *testing.T) {
	rep := mustCheck(t, "empty", `
		.text
		local: ret
	`, userLayout())
	if rep.Status != Rejected {
		t.Fatalf("status = %v, want rejected", rep.Status)
	}
	pinFindings(t, rep.Violations, []string{"#0 no global text symbol to verify"})
}
