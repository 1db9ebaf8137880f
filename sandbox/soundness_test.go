package sandbox

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/verify"
)

// Differential soundness of the load-time verifier gate: for every
// generated program the static verifier accepts, loading it with
// verification must be observationally identical to loading it
// without — same result, same error, bit-identical simulated cycles —
// and a program the verifier calls Clean must additionally run
// without any fault.
// The generator emits structurally valid extensions whose memory
// offsets, loop counts and register choices come from the fuzz input,
// so it produces Clean, Guarded and Rejected programs alike.

// genRegs deliberately excludes esp/ebp: the generator emits balanced
// prologues itself and random stack-pointer arithmetic would only
// produce rejects, starving the accept-side comparison.
var genRegs = []string{"eax", "ebx", "ecx", "edx", "esi", "edi"}

// genExtensionSrc builds a deterministic extension from the fuzz
// bytes. The shape is always: optional scratch stores/loads with
// data-relative offsets (some past the symbol's end — those reject),
// optional arithmetic, an optional counted loop, then `mov eax, ...;
// ret`. Every program assembles; acceptance is the verifier's call.
func genExtensionSrc(data []byte) string {
	b := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	var sb strings.Builder
	sb.WriteString(".global fuzzext\n.text\nfuzzext:\n")
	n := 2 + b(0)%6
	for i := 0; i < n; i++ {
		r := genRegs[b(2*i+1)%len(genRegs)]
		r2 := genRegs[b(2*i+2)%len(genRegs)]
		// Offsets reach to 96 while the scratch array holds 64 bytes:
		// roughly a third of memory ops are statically out of bounds.
		off := (b(2*i+3) * 4) % 96
		switch b(2*i) % 6 {
		case 0:
			fmt.Fprintf(&sb, "\tmov %s, %d\n", r, b(2*i+4)%1000)
		case 1:
			fmt.Fprintf(&sb, "\tadd %s, %s\n", r, r2)
		case 2:
			fmt.Fprintf(&sb, "\tmov [scratch+%d], %s\n", off, r)
		case 3:
			fmt.Fprintf(&sb, "\tmov %s, [scratch+%d]\n", r, off)
		case 4:
			fmt.Fprintf(&sb, "\tpush %s\n\tpop %s\n", r, r2)
		case 5:
			fmt.Fprintf(&sb, "\tand %s, 63\n", r)
		}
	}
	if b(n)%2 == 0 {
		// A counted loop; the latch register is rewritten just before,
		// so the trip count is provable unless a body op clobbers it.
		count := 1 + b(n+1)%50
		body := genRegs[b(n+2)%len(genRegs)]
		fmt.Fprintf(&sb, "\tmov ecx, %d\nloop:\n\tadd %s, 3\n\tmov [scratch], %s\n\tdec ecx\n\tjne loop\n", count, body, body)
	}
	sb.WriteString("\tmov eax, 7\n\tret\n.data\nscratch: .space 64\n")
	return sb.String()
}

// soundInvokes is how many times soundRun invokes each program: with
// the lowered trace threshold, enough for straight-line programs to
// reach the trace tier too.
const soundInvokes = 3

// soundRun loads src under palladium-kernel (verified or not) and
// invokes it soundInvokes times, returning the observable outcome (the
// last result, every error) and the trace dispatches the invokes took.
func soundRun(t *testing.T, src string, verified bool) (v uint32, errStr string, cycles float64, traces uint64, rep *verify.Report, loadErr error) {
	t.Helper()
	h := newHost(t)
	b, err := Open("palladium-kernel", h)
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Entry: "fuzzext"}
	if verified {
		opts = WithVerify(opts)
	}
	ext, err := b.Load(isa.MustAssemble("fuzzext", src), opts)
	if err != nil {
		return 0, "", 0, 0, nil, err
	}
	if verified {
		rep = ext.(interface{ VerifyReport() *verify.Report }).VerifyReport()
	}
	// An invoke loops at most 50 times: a hair-trigger threshold
	// promotes the generated code to traces, whose warm accesses take
	// the inline segment-limit check. Traces never alter simulated
	// metrics, so both hosts still compare bit for bit.
	h.Sys.K.Machine.TraceThreshold = 2
	start := h.Sys.K.Clock.Cycles()
	d0 := h.Sys.K.Machine.TraceStats().Dispatches
	var errs []string
	for range soundInvokes {
		var ierr error
		if v, ierr = ext.Invoke(0); ierr != nil {
			errs = append(errs, ierr.Error())
		}
	}
	errStr = strings.Join(errs, "; ")
	return v, errStr, h.Sys.K.Clock.Cycles() - start, h.Sys.K.Machine.TraceStats().Dispatches - d0, rep, nil
}

// checkVerifySound is the property both the fuzz target and the
// regression-seed replay assert. It returns the verifier's verdict
// and the trace dispatches of the verified run (0 for a rejected
// program).
func checkVerifySound(t *testing.T, data []byte) (verify.Status, uint64) {
	src := genExtensionSrc(data)
	vv, verr, vcyc, vtraces, rep, vload := soundRun(t, src, true)
	if vload != nil {
		// Rejected: the gate must have produced a structured report,
		// and the unverified twin must still load (rejection is the
		// verifier's conservatism, not a loader failure).
		f, ok := vload.(*Fault)
		if !ok || f.Class != ValidationReject || f.Report == nil {
			t.Fatalf("verified load failed without a reject report: %v\nprogram:\n%s", vload, src)
		}
		if _, _, _, _, _, uload := soundRun(t, src, false); uload != nil {
			t.Fatalf("unverified twin fails to load: %v\nprogram:\n%s", uload, src)
		}
		return verify.Rejected, 0
	}
	uv, uerr, ucyc, _, _, uload := soundRun(t, src, false)
	if uload != nil {
		t.Fatalf("unverified load failed: %v\nprogram:\n%s", uload, src)
	}
	if vv != uv || verr != uerr || vcyc != ucyc {
		t.Fatalf("verification changed observable behavior:\nverified:   v=%d err=%q cycles=%v\nunverified: v=%d err=%q cycles=%v\nprogram:\n%s",
			vv, verr, vcyc, uv, uerr, ucyc, src)
	}
	if rep.Status == verify.Clean && verr != "" {
		t.Fatalf("Clean program faulted at runtime: %q\nprogram:\n%s", verr, src)
	}
	return rep.Status, vtraces
}

// FuzzVerifySound drives the generator from fuzz input.
func FuzzVerifySound(f *testing.F) {
	for _, seed := range verifySoundSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkVerifySound(t, data)
	})
}

// verifySoundSeeds are the checked-in regression seeds: shapes that
// exercised distinct verifier paths (clean straight-line, clean
// counted loop, guarded loop whose latch register is clobbered in the
// body, out-of-bounds scratch offsets, push/pop balance). Seed 10 is
// a clean 49-trip loop storing to scratch: too short for the default
// trace threshold, so it runs in a trace only because soundRun lowers
// it. Seed 11 stores to scratch+64, one word past the array, and is
// the corpus's Rejected program.
var verifySoundSeeds = []string{
	"",
	"\x00",
	"\x02\x01\x05\x09\x03",
	"\x03\x04\x17\x20\x09\x14",
	"\x04\x02\x06\x01\x00\x00\x02",
	"\x05\xff\x80\x7f\x40\x20\x10\x08",
	"\x02\x03\x19\x02\x03\x19\x02\x03\x19",
	"\x01\x01\x01\x01\x01\x01\x01\x01",
	"\x00\x02\x00\x04\x00\x06\x00\x08\x00",
	"\xf0\x0d\xca\xfe\xba\xbe\x00\x01\x02\x03",
	"\x00\x00\x00\x30\x01",
	"\x02\x00\x00\x10",
}

// TestVerifySoundRegressionSeeds replays the corpus deterministically
// under plain `go test` (the fuzz engine only replays it under
// -fuzz). The corpus must cover all three verdicts, and every Clean
// seed must dispatch a trace, so the comparison exercises the trace
// tier's inline segment-limit check on the programs the verifier
// claims cannot fault.
func TestVerifySoundRegressionSeeds(t *testing.T) {
	seen := map[verify.Status]int{}
	for i, seed := range verifySoundSeeds {
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			st, traces := checkVerifySound(t, []byte(seed))
			seen[st]++
			if st == verify.Clean && traces == 0 {
				t.Fatal("Clean seed dispatched no trace")
			}
		})
	}
	for _, st := range []verify.Status{verify.Clean, verify.Guarded, verify.Rejected} {
		if seen[st] == 0 {
			t.Errorf("no seed is %v (verdicts: %v)", st, seen)
		}
	}
}
