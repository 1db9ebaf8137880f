package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/webserver"
	"repro/sandbox"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Paper's Inter and Intra columns, reproduced exactly.
	wantInter := []float64{26, 34, 75, 7, 142}
	wantIntra := []float64{2, 3, 3, 2, 10}
	for i, r := range rows {
		if r.Inter != wantInter[i] {
			t.Errorf("%s: inter = %v, paper %v", r.Component, r.Inter, wantInter[i])
		}
		if r.Intra != wantIntra[i] {
			t.Errorf("%s: intra = %v, paper %v", r.Component, r.Intra, wantIntra[i])
		}
		if r.Hardware >= r.Inter && r.Component != "Total Cost" && r.Hardware != 0 {
			t.Errorf("%s: hardware column %v must be below measured %v", r.Component, r.Hardware, r.Inter)
		}
	}
	// The hardware (manual) lcall anchor: 44 cycles.
	if rows[2].Hardware != 44 {
		t.Errorf("hardware return = %v, paper 44", rows[2].Hardware)
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2([]int{32, 64, 128, 256})
	if err != nil {
		t.Fatal(err)
	}
	paperRPC := []float64{349.19, 352.55, 374.20, 423.33}
	for i, r := range rows {
		// Palladium tracks the unprotected call with a near-constant
		// gap (paper: 118-153 cycles = 0.59-0.77 us).
		gap := (r.Palladium - r.Unprotected) * 200 // cycles
		if gap < 100 || gap > 200 {
			t.Errorf("size %d: protected-unprotected gap = %.0f cycles, paper 118-153", r.Size, gap)
		}
		// RPC is orders of magnitude slower and near the paper's
		// absolute values.
		if r.RPC < paperRPC[i]*0.9 || r.RPC > paperRPC[i]*1.15 {
			t.Errorf("size %d: RPC = %.2f us, paper %.2f", r.Size, r.RPC, paperRPC[i])
		}
		if r.RPC < 10*r.Palladium {
			t.Errorf("size %d: RPC %.2f not >> Palladium %.2f", r.Size, r.RPC, r.Palladium)
		}
	}
	// Monotone growth in string size.
	for i := 1; i < len(rows); i++ {
		if rows[i].Unprotected <= rows[i-1].Unprotected {
			t.Error("unprotected latency must grow with string size")
		}
	}
	// Two orders of magnitude at 32 bytes (paper's phrasing).
	if rows[0].RPC < 100*rows[0].Palladium {
		t.Errorf("at 32B RPC %.2f not two orders above Palladium %.2f", rows[0].RPC, rows[0].Palladium)
	}
}

// protectedStrrev boots a system and loads the Table 2 extension
// through SegDlopen, returning the app, the protected entry point and
// a shared buffer holding s.
func protectedStrrev(t *testing.T, s string) (*core.System, *core.App, *core.ProtectedFunc, uint32) {
	t.Helper()
	sys, err := newSystem(cycles.Measured())
	if err != nil {
		t.Fatal(err)
	}
	a, err := newApp(sys)
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.SegDlopen(isa.MustAssemble("strrev", StrrevSrc))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := a.SegDlsym(h, "strrev")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := a.SharedAlloc(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteString(buf, s); err != nil {
		t.Fatal(err)
	}
	return sys, a, pf, buf
}

func TestVerifyReverse(t *testing.T) {
	_, a, pf, buf := protectedStrrev(t, "palladium")
	if _, err := pf.Call(buf); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadString(buf, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got != "muidallap" {
		t.Errorf("reverse = %q", got)
	}
}

// TestStrrevPassesVerifier loads the Table 2 extension through the
// palladium-user load gate with the static verifier on: the paper's
// workload must be accepted, not refused.
func TestStrrevPassesVerifier(t *testing.T) {
	rep := verifiedLoad(t, "palladium-user", isa.MustAssemble("strrev", StrrevSrc),
		sandbox.LoadOptions{Entry: "strrev", SharedBytes: mem.PageSize})
	if !rep.Accepted() {
		t.Fatalf("verify report = %+v, want accepted", rep)
	}
}

// TestCompiledTiersEngage runs 200 protected string-reverse calls and
// requires the specialized tiers to carry them: chained block
// dispatches, same-page fetch fast paths and trace dispatches are all
// nonzero. On this quiet workload no trace may bail out because of a
// guest fault or a fetch-page remap; such a deopt means the trace tier
// drops to the block tier where it should stay fused.
func TestCompiledTiersEngage(t *testing.T) {
	const calls = 200
	sys, _, pf, buf := protectedStrrev(t, "palladium-interpreter-workload")
	for i := 0; i < calls; i++ {
		if _, err := pf.Call(buf); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	m := sys.K.Machine
	chainHits, fastFetches := m.ChainStats()
	ts := m.TraceStats()
	if chainHits == 0 {
		t.Error("no chained block dispatches")
	}
	if fastFetches == 0 {
		t.Error("no same-page fast-path fetches")
	}
	if ts.Dispatches == 0 {
		t.Error("no trace dispatches")
	}
	if ts.DeoptFault != 0 {
		t.Errorf("%d trace deopts on guest faults, want 0", ts.DeoptFault)
	}
	if ts.DeoptPage != 0 {
		t.Errorf("%d trace deopts on fetch-page remaps, want 0", ts.DeoptPage)
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3([]uint32{28, 100 * 1024}, 20)
	if err != nil {
		t.Fatal(err)
	}
	small, big := rows[0], rows[1]
	// Orderings from the paper.
	if !(small.WebServer > small.LibCGIUnprot && small.LibCGIUnprot > small.LibCGIProt &&
		small.LibCGIProt > small.FastCGI && small.FastCGI > small.CGI) {
		t.Errorf("28B ordering violated: %+v", small)
	}
	if small.LibCGIProt < 2*small.FastCGI {
		t.Error("protected LibCGI must be at least 2x FastCGI at 28B")
	}
	// Convergence at 100 KB.
	if big.LibCGIProt < big.WebServer*0.95 {
		t.Errorf("100KB: protected %v should converge to static %v", big.LibCGIProt, big.WebServer)
	}
	if big.CGI > big.WebServer*0.75 {
		t.Errorf("100KB: CGI %v should stay well below static %v", big.CGI, big.WebServer)
	}
}

// TestTable3ConcurrentN1BitIdentical pins every Table 3 number as the
// N=1 case of the concurrent serving tier: a 1-worker fleet serving the
// models in Table 3's order reproduces the serial rows bit for bit.
func TestTable3ConcurrentN1BitIdentical(t *testing.T) {
	sizes := []uint32{28, 10 * 1024}
	const requests = 25
	serial, err := Table3(sizes, requests)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range sizes {
		f, err := webserver.NewFleet(size, 1)
		if err != nil {
			t.Fatal(err)
		}
		row := Table3Row{Size: size}
		dst := modelDests(&row.CGI, &row.FastCGI, &row.LibCGIProt, &row.LibCGIUnprot, &row.WebServer)
		for _, m := range fleetModels {
			res, err := f.Serve(m, requests)
			if err != nil {
				f.Close()
				t.Fatal(err)
			}
			*dst[m] = res.AggregateReqPerSec
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if row != serial[i] {
			t.Errorf("size %d: fleet N=1 row %+v != serial %+v (must be bit-identical)", size, row, serial[i])
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	pts, err := Figure7(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[4].BPF < 2*pts[4].Palladium {
		t.Errorf("at 4 terms BPF %v not >= 2x Palladium %v", pts[4].BPF, pts[4].Palladium)
	}
	bpfSlope := (pts[4].BPF - pts[0].BPF) / 4
	palSlope := (pts[4].Palladium - pts[0].Palladium) / 4
	if palSlope > bpfSlope/4 {
		t.Errorf("Palladium slope %v vs BPF %v: compiled filter must be nearly flat", palSlope, bpfSlope)
	}
}

func TestMicroAnchors(t *testing.T) {
	m, err := MeasureMicro()
	if err != nil {
		t.Fatal(err)
	}
	if m.SIGSEGVDeliveryCycles != 3325 {
		t.Errorf("SIGSEGV delivery = %v, paper 3,325", m.SIGSEGVDeliveryCycles)
	}
	if m.KernelGPFaultCycles != 1020 {
		t.Errorf("GP processing = %v, paper 1,020", m.KernelGPFaultCycles)
	}
	if m.PalladiumCallCycles != 142 {
		t.Errorf("protected call = %v, paper 142", m.PalladiumCallCycles)
	}
	if m.L4RoundTripCycles != 242 {
		t.Errorf("L4 = %v, paper 242", m.L4RoundTripCycles)
	}
	if m.SegRegLoadCycles != 12 {
		t.Errorf("segment register load = %v, paper 12", m.SegRegLoadCycles)
	}
	if m.DlopenMicros < 300 || m.DlopenMicros > 500 {
		t.Errorf("dlopen = %v us, paper ~400", m.DlopenMicros)
	}
	if m.SegDlopenMicros <= m.DlopenMicros {
		t.Error("seg_dlopen must cost more than dlopen (PPL marking)")
	}
	if d := m.SegDlopenMicros - m.DlopenMicros; d < 5 || d > 60 {
		t.Errorf("seg_dlopen - dlopen = %v us, paper ~20", d)
	}
}

func TestAblationSFIMonotone(t *testing.T) {
	pts, err := AblationSFI()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].OverheadPct <= pts[i-1].OverheadPct {
			t.Errorf("SFI overhead not increasing with density: %+v", pts)
			break
		}
	}
	if pts[0].OverheadPct > 20 {
		t.Errorf("sparse workload overhead = %.1f%%, expected small", pts[0].OverheadPct)
	}
	if last := pts[len(pts)-1].OverheadPct; last < 40 {
		t.Errorf("dense workload overhead = %.1f%%, expected large", last)
	}
}

func TestAblationCrossings(t *testing.T) {
	cc, err := AblationCrossings()
	if err != nil {
		t.Fatal(err)
	}
	if cc.Palladium2Crossings != 142 || cc.L4Style4Crossings != 242 {
		t.Errorf("crossings comparison = %+v", cc)
	}
	if cc.TSSSyscallVariant <= cc.Palladium2Crossings {
		t.Error("the rejected TSS-syscall variant must cost more than Palladium's design")
	}
}

func TestRenderers(t *testing.T) {
	var b strings.Builder
	rows1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable1(&b, rows1)
	if !strings.Contains(b.String(), "142") {
		t.Error("Table 1 rendering missing total")
	}
	b.Reset()
	RenderTable2(&b, []Table2Row{{Size: 32, Unprotected: 2.2, Palladium: 2.9, RPC: 349.2}})
	if !strings.Contains(b.String(), "349.20") {
		t.Error("Table 2 rendering wrong")
	}
	b.Reset()
	RenderTable3(&b, []Table3Row{{Size: 28, CGI: 98, FastCGI: 193, LibCGIProt: 437, LibCGIUnprot: 448, WebServer: 460}})
	if !strings.Contains(b.String(), "28 Bytes") {
		t.Error("Table 3 rendering wrong")
	}
	b.Reset()
	RenderFigure7(&b, []Figure7Point{{Terms: 4, BPF: 900, Palladium: 300}})
	if !strings.Contains(b.String(), "900") {
		t.Error("Figure 7 rendering wrong")
	}
	b.Reset()
	RenderMicro(&b, Micro{PalladiumCallCycles: 142})
	if !strings.Contains(b.String(), "3,325") {
		t.Error("micro rendering wrong")
	}
	b.Reset()
	RenderAblations(&b, []SFIPoint{{MemOpsPercent: 50, OverheadPct: 80}}, CrossingsComparison{142, 242, 900})
	if !strings.Contains(b.String(), "242") {
		t.Error("ablation rendering wrong")
	}
}
