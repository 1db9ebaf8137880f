package experiments

import (
	"testing"

	"repro/internal/bpf"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/verify"
	"repro/sandbox"
)

// verifyHotLoopSrc is a constant-trip loop over an in-module data
// word: its step bound and its segment accesses are statically known.
const verifyHotLoopSrc = `
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

// verifiedLoad loads obj under backend on a fresh host with the static
// verifier on and returns the report the accepted load carries.
func verifiedLoad(t *testing.T, backend string, obj *isa.Object, opts sandbox.LoadOptions) *verify.Report {
	t.Helper()
	b, err := sandbox.Open(backend, newSandboxHost(t))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := b.Load(obj, sandbox.WithVerify(opts))
	if err != nil {
		t.Fatalf("verified load under %s refused: %v", backend, err)
	}
	rep := ext.(interface{ VerifyReport() *verify.Report }).VerifyReport()
	if rep == nil {
		t.Fatalf("%s attached no verify report", backend)
	}
	return rep
}

// TestMeasureVerifyReport pins the accepting side of the load-time
// verifier: every paper workload loads through its backend's gate
// clean or guarded, and the constant-trip hot loop and the
// straight-line filters prove a step bound. Data-dependent loops
// (strrev over a NUL-terminated string) are legitimately unbounded
// statically. The rejecting side, and a verified load running
// bit-identically to an unverified one, are pinned by the sandbox
// tests TestVerifyGateRejectsEscapes and TestVerifyGateAcceptsHotLoop.
func TestMeasureVerifyReport(t *testing.T) {
	pkt := filter.MakeUDPPacket(1234, 53, 64)
	terms := filter.TermsTrueFor(pkt, 4)
	filterObj, filterEntry, err := filter.CompileObject(terms)
	if err != nil {
		t.Fatal(err)
	}
	reports := map[string]*verify.Report{
		"hot loop": verifiedLoad(t, "palladium-kernel",
			isa.MustAssemble("hotloop", verifyHotLoopSrc), sandbox.LoadOptions{Entry: "hotloop"}),
		"Table 2 strrev": verifiedLoad(t, "palladium-user",
			isa.MustAssemble("strrev", StrrevSrc), sandbox.LoadOptions{Entry: "strrev", SharedBytes: mem.PageSize}),
		"Table 3 LibCGI script": verifiedLoad(t, "palladium-user",
			isa.MustAssemble("cgiscript", cgiScriptSrc), sandbox.LoadOptions{Entry: "cgi_script", SharedBytes: mem.PageSize}),
		"LibCGI script in a kernel segment": verifiedLoad(t, "palladium-kernel",
			isa.MustAssemble("cgiscript", kernelCGIScriptSrc), sandbox.LoadOptions{Entry: "cgi_script", SharedSymbol: "cgi_env"}),
		"Figure 7 compiled filter": verifiedLoad(t, "palladium-kernel",
			filterObj, sandbox.LoadOptions{Entry: filterEntry, SharedSymbol: "shared_area"}),
		"Figure 7 interpreted filter": verifiedLoad(t, "bpf",
			nil, sandbox.LoadOptions{BPF: bpf.Conjunction(terms)}),
	}
	bounded := 0
	for name, rep := range reports {
		if rep.Status != verify.Clean && rep.Status != verify.Guarded {
			t.Errorf("%s: status %v, want clean or guarded", name, rep.Status)
		}
		if rep.Bounded {
			bounded++
		}
	}
	if bounded < 3 {
		t.Errorf("bounded accepts = %d, want >= 3", bounded)
	}
}
