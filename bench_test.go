package repro

// One benchmark per table and figure of the paper's evaluation
// (Section 5), plus the Section 5.1 micro-measurements and the design
// ablations. Results are simulated CPU cycles (or microseconds at the
// 200 MHz testbed clock), reported as custom metrics; wall-clock ns/op
// reflects only the simulator's own speed.

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkTable1ProtectedCall regenerates Table 1: the cycle
// decomposition of one protected (inter-domain) procedure call.
func BenchmarkTable1ProtectedCall(b *testing.B) {
	var total, setup, call, ret, restore float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		setup, call, ret, restore = rows[0].Inter, rows[1].Inter, rows[2].Inter, rows[3].Inter
		total = rows[4].Inter
	}
	b.ReportMetric(total, "sim-cycles/call")
	b.ReportMetric(setup, "setup-cycles")
	b.ReportMetric(call, "call-cycles")
	b.ReportMetric(ret, "return-cycles")
	b.ReportMetric(restore, "restore-cycles")
}

// BenchmarkTable1IntraCall regenerates Table 1's intra-domain column.
func BenchmarkTable1IntraCall(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		total = rows[4].Intra
	}
	b.ReportMetric(total, "sim-cycles/call")
}

// BenchmarkTable1HardwareModel regenerates the theoretical column.
func BenchmarkTable1HardwareModel(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		total = rows[4].Hardware
	}
	b.ReportMetric(total, "sim-cycles/call")
}

// BenchmarkTable2StringReverse regenerates Table 2 for each string
// size: unprotected call vs Palladium protected call vs Linux RPC.
func BenchmarkTable2StringReverse(b *testing.B) {
	for _, size := range []int{32, 64, 128, 256} {
		b.Run(byteLabel(size), func(b *testing.B) {
			var row experiments.Table2Row
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Table2([]int{size})
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.Unprotected, "unprotected-us")
			b.ReportMetric(row.Palladium, "palladium-us")
			b.ReportMetric(row.RPC, "rpc-us")
		})
	}
}

// BenchmarkTable3Throughput regenerates Table 3 for each file size:
// requests/second under the five execution models.
func BenchmarkTable3Throughput(b *testing.B) {
	for _, size := range []uint32{28, 1024, 10 * 1024, 100 * 1024} {
		b.Run(byteLabel(int(size)), func(b *testing.B) {
			var row experiments.Table3Row
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Table3([]uint32{size}, 20)
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.CGI, "cgi-req/s")
			b.ReportMetric(row.FastCGI, "fastcgi-req/s")
			b.ReportMetric(row.LibCGIProt, "libcgi-prot-req/s")
			b.ReportMetric(row.LibCGIUnprot, "libcgi-unprot-req/s")
			b.ReportMetric(row.WebServer, "static-req/s")
		})
	}
}

// BenchmarkFigure7PacketFilter regenerates Figure 7: compiled
// (Palladium kernel extension) vs interpreted (BPF) filter cost as the
// number of all-true conjunction terms grows.
func BenchmarkFigure7PacketFilter(b *testing.B) {
	for terms := 0; terms <= 4; terms++ {
		b.Run(termLabel(terms), func(b *testing.B) {
			var pt experiments.Figure7Point
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Figure7(terms)
				if err != nil {
					b.Fatal(err)
				}
				pt = pts[terms]
			}
			b.ReportMetric(pt.BPF, "bpf-cycles")
			b.ReportMetric(pt.Palladium, "palladium-cycles")
		})
	}
}

// BenchmarkMicroMeasurements regenerates the Section 5.1 one-off
// numbers: SIGSEGV delivery, kernel #GP processing, dlopen vs
// seg_dlopen, segment register load, L4 comparison.
func BenchmarkMicroMeasurements(b *testing.B) {
	var m experiments.Micro
	var err error
	for i := 0; i < b.N; i++ {
		m, err = experiments.MeasureMicro()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.SIGSEGVDeliveryCycles, "sigsegv-cycles")
	b.ReportMetric(m.KernelGPFaultCycles, "gp-cycles")
	b.ReportMetric(m.DlopenMicros, "dlopen-us")
	b.ReportMetric(m.SegDlopenMicros, "seg-dlopen-us")
	b.ReportMetric(m.SegRegLoadCycles, "segreg-cycles")
	b.ReportMetric(m.L4RoundTripCycles, "l4-cycles")
}

// BenchmarkAblationSFIOverhead measures the SFI baseline's overhead at
// increasing memory-operation density (Section 2.1's 1%-220% band).
func BenchmarkAblationSFIOverhead(b *testing.B) {
	var pts []experiments.SFIPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.AblationSFI()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].OverheadPct, "sparse-overhead-pct")
	b.ReportMetric(pts[len(pts)-1].OverheadPct, "dense-overhead-pct")
}

// BenchmarkAblationCrossings compares domain-crossing strategies:
// Palladium's two crossings, L4-style four crossings, and the rejected
// TSS-update-via-syscall variant (Section 4.5.1).
func BenchmarkAblationCrossings(b *testing.B) {
	var cc experiments.CrossingsComparison
	var err error
	for i := 0; i < b.N; i++ {
		cc, err = experiments.AblationCrossings()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cc.Palladium2Crossings, "palladium-cycles")
	b.ReportMetric(cc.L4Style4Crossings, "l4-cycles")
	b.ReportMetric(cc.TSSSyscallVariant, "tss-syscall-cycles")
}

func byteLabel(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return itoa(n/1024) + "KB"
	}
	return itoa(n) + "B"
}

func termLabel(n int) string { return itoa(n) + "terms" }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
