package sandbox

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bpf"
	"repro/internal/isa"
	"repro/internal/verify"
)

// verifyReporter is the accessor every adapter's extension exposes.
type verifyReporter interface {
	VerifyReport() *verify.Report
}

// TestVerifyGateRejectsEscapes runs PR-2-style escape programs
// through the load-time verifier gate of each native-code backend:
// with LoadOptions.Verify the load is refused (ValidationReject
// carrying the structured report) before the program ever runs, while
// the same object still loads fine without the opt-in — the escape is
// then only caught by the runtime mechanism.
func TestVerifyGateRejectsEscapes(t *testing.T) {
	absWrite := fmt.Sprintf(`
		.global escape
		.text
		escape:
			mov eax, 1
			mov [%d], eax
			ret
	`, int32(0x0040_3000))
	indirectJmp := fmt.Sprintf(`
		.global escape
		.text
		escape:
			mov eax, %d
			jmp eax
	`, int32(-0x3FFF_F000)) // 0xC0001000 as the assembler's signed immediate
	forgedLret := `
		.global escape
		.text
		escape:
			push 0x08
			push 0
			lret
	`
	lcallKernel := `
		.global escape
		.text
		escape:
			lcall 0x08
			ret
	`
	// 0x30000 is beyond a kernel extension segment's limit.
	kernelOOB := fmt.Sprintf(`
		.global escape
		.text
		escape:
			mov eax, 255
			mov [%d], eax
			ret
	`, int32(0x0003_0000))
	cases := []struct {
		name    string
		backend string
		src     string
	}{
		{"paluser abs write", "palladium-user", absWrite},
		{"paluser forged lret", "palladium-user", forgedLret},
		{"paluser indirect jmp", "palladium-user", indirectJmp},
		{"paluser lcall kernel code", "palladium-user", lcallKernel},
		{"kernel abs write", "palladium-kernel", absWrite},
		{"kernel abs write beyond segment", "palladium-kernel", kernelOOB},
		{"kernel indirect jmp", "palladium-kernel", indirectJmp},
		{"direct abs write", "direct", absWrite},
		// The sfi rewriter masks the store, so the write variants
		// verify as confined; control flow is what SFI does not guard
		// and the verifier still rejects.
		{"sfi indirect jmp", "sfi", indirectJmp},
		{"sfi forged lret", "sfi", forgedLret},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHost(t)
			b, err := Open(tc.backend, h)
			if err != nil {
				t.Fatal(err)
			}
			obj := isa.MustAssemble("escape", tc.src)
			_, err = b.Load(obj, WithVerify(LoadOptions{Entry: "escape"}))
			var f *Fault
			if !errors.As(err, &f) || f.Class != ValidationReject {
				t.Fatalf("verified load = %v, want ValidationReject", err)
			}
			if f.Report == nil || f.Report.Status != verify.Rejected {
				t.Fatalf("fault report = %+v, want a Rejected verify.Report", f.Report)
			}
			if len(f.Report.Violations) == 0 {
				t.Fatal("rejected report carries no violations")
			}
			// Without the opt-in the object loads: the escape is the
			// runtime mechanism's problem (that path is pinned by the
			// adversarial fault suite).
			ext, err := b.Load(obj, LoadOptions{Entry: "escape"})
			if err != nil {
				t.Fatalf("unverified load: %v", err)
			}
			if rep := ext.(verifyReporter).VerifyReport(); rep != nil {
				t.Fatalf("unverified load has report %+v, want nil", rep)
			}
		})
	}
}

// hotLoopSrc is a counted compute loop whose two scratch accesses are
// anchored data operands. It verifies Clean under every layout.
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

// TestVerifyGateAcceptsHotLoop: the paper-shaped workload verifies
// Clean and runs correctly under both palladium backends.
func TestVerifyGateAcceptsHotLoop(t *testing.T) {
	for _, backend := range []string{"palladium-kernel", "palladium-user"} {
		t.Run(backend, func(t *testing.T) {
			h := newHost(t)
			ext := load(t, h, backend, hotLoopSrc, "hotloop", WithVerify(LoadOptions{}))
			rep := ext.(verifyReporter).VerifyReport()
			if rep == nil || rep.Status != verify.Clean {
				t.Fatalf("report = %+v, want Clean", rep)
			}
			v, err := ext.Invoke(0)
			if err != nil {
				t.Fatalf("invoke: %v", err)
			}
			if v != 500500 {
				t.Fatalf("result = %d, want 500500", v)
			}
		})
	}
}

// TestVerifyElisionMetricsIdentical is the differential check at the
// adapter level: the same workload on two fresh hosts, loaded with and
// without verification, must produce bit-identical results and
// simulated cycles, and neither run skips a segment check — the
// verifier is a load-time gate and changes nothing the access path
// executes.
func TestVerifyElisionMetricsIdentical(t *testing.T) {
	run := func(backend string, verifyOn bool) (uint32, float64, uint64) {
		h := newHost(t)
		opts := LoadOptions{}
		if verifyOn {
			opts = WithVerify(opts)
		}
		ext := load(t, h, backend, hotLoopSrc, "hotloop", opts)
		start := h.Sys.K.Clock.Cycles()
		v, err := ext.Invoke(0)
		if err != nil {
			t.Fatalf("invoke (%s, verify=%v): %v", backend, verifyOn, err)
		}
		return v, h.Sys.K.Clock.Cycles() - start, h.Sys.K.Machine.MMU.ElidedChecks()
	}
	for _, backend := range []string{"palladium-kernel", "palladium-user"} {
		v1, cyc1, el1 := run(backend, false)
		v2, cyc2, el2 := run(backend, true)
		if v1 != v2 {
			t.Fatalf("%s: results differ: %d vs %d", backend, v1, v2)
		}
		if cyc1 != cyc2 {
			t.Fatalf("%s: simulated cycles differ: %v vs %v", backend, cyc1, cyc2)
		}
		if el1 != 0 || el2 != 0 {
			t.Fatalf("%s: elided checks = %d (unverified), %d (verified), want 0", backend, el1, el2)
		}
	}
}

// TestVerifyGateSFIMaskedStoreClean: after the rewriter inserts the
// and/or mask sequence, the verifier proves the guarded store lands in
// the sandbox region (with its guard slack) — the SFI load verifies
// clean rather than being rejected for the raw out-of-bounds address.
func TestVerifyGateSFIMaskedStoreClean(t *testing.T) {
	h := newHost(t)
	src := `
		.global poke
		.text
		poke:
			mov ecx, 305419896   ; 0x12345678, far outside the region
			mov [ecx], eax
			ret
	`
	ext := load(t, h, "sfi", src, "poke", WithVerify(LoadOptions{}))
	rep := ext.(verifyReporter).VerifyReport()
	if rep == nil || !rep.Accepted() {
		t.Fatalf("report = %+v, want accepted", rep)
	}
	if rep.Status != verify.Clean {
		t.Fatalf("status = %v, want Clean (mask proves confinement); unproven %v", rep.Status, rep.Unproven)
	}
	if _, err := ext.Invoke(0); err != nil {
		t.Fatalf("invoke: %v", err)
	}
}

// TestBPFReportRouted: the bpf backend reports through the same
// verify.Report type — on both the accept and the reject side —
// whether or not Verify was requested.
func TestBPFReportRouted(t *testing.T) {
	h := newHost(t)
	b, err := Open("bpf", h)
	if err != nil {
		t.Fatal(err)
	}
	good := bpf.Conjunction([]bpf.Term{{Offset: 0, Size: 1, Value: 7}})
	ext, err := b.Load(nil, LoadOptions{BPF: good})
	if err != nil {
		t.Fatal(err)
	}
	rep := ext.(verifyReporter).VerifyReport()
	if rep == nil || rep.Status != verify.Clean || rep.Backend != "bpf" {
		t.Fatalf("accept-side report = %+v, want Clean bpf report", rep)
	}
	bad := bpf.Program{{Op: bpf.LdImm, K: 1}} // no return
	_, err = b.Load(nil, LoadOptions{BPF: bad})
	var f *Fault
	if !errors.As(err, &f) || f.Class != ValidationReject {
		t.Fatalf("bad program load = %v, want ValidationReject", err)
	}
	if f.Report == nil || f.Report.Status != verify.Rejected {
		t.Fatalf("reject-side report = %+v, want Rejected", f.Report)
	}
}
