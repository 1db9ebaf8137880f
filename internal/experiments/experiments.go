// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5) on the simulated system: Tables 1-3,
// Figure 7, the Section 5.1 micro-measurements and the design
// ablations. Its results are simulated cycles. It is shared by the root
// benchmark suite, the cmd/palladium-bench tool, the paper workload of
// the bench/ module (which times these functions in wall clock), and the
// regression tests that pin the reproduced shapes.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/rpc"
	"repro/internal/sfi"
	"repro/internal/webserver"
	"repro/sandbox"
)

// StrrevSrc is the Table 2 extension: "an artificial extension
// function that accepts a pointer to a string and reverses the
// string".
const StrrevSrc = `
	.global strrev
	.text
	strrev:
		push ebx
		push esi
		push edi
		mov esi, [esp+16]     ; s
		mov ecx, esi
	len:
		movb edx, [ecx]
		inc ecx
		cmp edx, 0
		jne len
		sub ecx, 2            ; right = end-1
		mov edi, esi          ; left
		mov eax, esi          ; return value
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

// NullExtSrc is the Table 1 null extension.
const NullExtSrc = `
	.global nullfn
	.text
	nullfn: ret
`

// newSystem boots a fresh Palladium system.
func newSystem(model *cycles.Model) (*core.System, error) {
	return core.NewSystem(model)
}

func newApp(s *core.System) (*core.App, error) {
	a, err := core.NewApp(s)
	if err != nil {
		return nil, err
	}
	if err := a.InitPL(); err != nil {
		return nil, err
	}
	return a, nil
}

// cells runs fn(0) .. fn(n-1) on the calling goroutine and on up to
// GOMAXPROCS-1 helper goroutines, which take the cells in index order
// from a shared counter, and returns once every cell has finished. Each
// cell must boot and measure a system of its own and write only its own
// index of the caller's result, so running cells at once changes when
// on the host each machine executes, never what it computes (DESIGN.md,
// "The machine fleet"). The error returned is the lowest-index cell's,
// as a serial loop would report it.
func cells(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int32
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	if helpers := min(runtime.GOMAXPROCS(0), n) - 1; helpers > 0 {
		wg.Add(helpers)
		for range helpers {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		// A goroutine just started waits in this P's run-next slot,
		// which an idle P steals only after a delay. Yielding runs it
		// here at once and leaves the caller in the global queue, where
		// the idle P finds it as soon as it wakes.
		runtime.Gosched()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one decomposition row.
type Table1Row struct {
	Component string
	Inter     float64
	Intra     float64
	Hardware  float64
}

// Table1 regenerates the protected-call cost decomposition. Its three
// columns are measured on three systems, concurrently.
func Table1() ([]Table1Row, error) {
	var cols [3]core.Phases
	cfg := [3]struct {
		model     *cycles.Model
		protected bool
	}{{cycles.Measured(), true}, {cycles.Measured(), false}, {cycles.Manual(), true}}
	err := cells(len(cols), func(i int) (err error) {
		cols[i], err = measurePhases(cfg[i].model, cfg[i].protected)
		return err
	})
	if err != nil {
		return nil, err
	}
	inter, intra, hw := cols[0], cols[1], cols[2]
	return []Table1Row{
		{"Setting up stack", inter.Setup, intra.Setup, hw.Setup},
		{"Calling function", inter.Call, intra.Call, hw.Call},
		{"Returning to caller", inter.Return, intra.Return, hw.Return},
		{"Restoring state", inter.Restore, intra.Restore, hw.Restore},
		{"Total Cost", inter.Total(), intra.Total(), hw.Total()},
	}, nil
}

func measurePhases(model *cycles.Model, protected bool) (core.Phases, error) {
	s, err := newSystem(model)
	if err != nil {
		return core.Phases{}, err
	}
	a, err := newApp(s)
	if err != nil {
		return core.Phases{}, err
	}
	h, err := a.SegDlopen(isa.MustAssemble("null", NullExtSrc))
	if err != nil {
		return core.Phases{}, err
	}
	if protected {
		pf, err := a.SegDlsym(h, "nullfn")
		if err != nil {
			return core.Phases{}, err
		}
		return core.MeasureProtectedCall(pf, 0)
	}
	addr, err := a.Dlsym(h, "nullfn")
	if err != nil {
		return core.Phases{}, err
	}
	return core.MeasureUnprotectedCall(a, addr, 0)
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one string-size row, in microseconds.
type Table2Row struct {
	Size        int
	Unprotected float64
	Palladium   float64
	RPC         float64
}

// Table2 regenerates the string-reverse comparison for the given
// sizes (the paper uses 32/64/128/256). The strrev module is loaded
// once and dispatched through the unified sandbox API: the same
// handle adopted as a direct-backend extension (the unprotected
// column) and as a palladium-user extension (the Palladium column),
// so both columns measure the same loaded bytes and the rows are
// bit-identical to the pre-redesign pf.Call / CallUnprotected path
// (pinned by TestTable2BitIdenticalThroughSandbox). The RPC column
// stays the Loopback cost model: it prices shipping the string to a
// server doing the measured unprotected work.
func Table2(sizes []int) ([]Table2Row, error) {
	s, err := newSystem(cycles.Measured())
	if err != nil {
		return nil, err
	}
	a, err := newApp(s)
	if err != nil {
		return nil, err
	}
	h, err := a.SegDlopen(isa.MustAssemble("strrev", StrrevSrc))
	if err != nil {
		return nil, err
	}
	pf, err := a.SegDlsym(h, "strrev")
	if err != nil {
		return nil, err
	}
	raw, err := a.Dlsym(h, "strrev")
	if err != nil {
		return nil, err
	}
	buf, err := a.SharedAlloc(mem.PageSize)
	if err != nil {
		return nil, err
	}
	loop, err := rpc.NewLoopback(s.K)
	if err != nil {
		return nil, err
	}
	direct := sandbox.AdoptDirect(a, "strrev", raw)
	prot := sandbox.AdoptProtected(pf)

	clock := s.Clock()
	var rows []Table2Row
	for _, n := range sizes {
		str := strings.Repeat("ab", n/2)[:n]
		if err := a.WriteString(buf, str); err != nil {
			return nil, err
		}
		// Warm (the paper fully warms the CPU cache).
		if _, err := direct.Invoke(buf); err != nil {
			return nil, err
		}
		unprot := clock.Span(func() {
			if _, err2 := direct.Invoke(buf); err2 != nil {
				err = err2
			}
		})
		if err != nil {
			return nil, err
		}
		if _, err := prot.Invoke(buf); err != nil {
			return nil, err
		}
		protCyc := clock.Span(func() {
			if _, err2 := prot.Invoke(buf); err2 != nil {
				err = err2
			}
		})
		if err != nil {
			return nil, err
		}
		// RPC: ship the string both ways; the server does the same
		// reverse work.
		rpcCyc := loop.Call(n, n, unprot)
		rows = append(rows, Table2Row{
			Size:        n,
			Unprotected: clock.Micros(unprot),
			Palladium:   clock.Micros(protCyc),
			RPC:         clock.Micros(rpcCyc),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one file-size row, in requests/second.
type Table3Row struct {
	Size                     uint32
	CGI, FastCGI             float64
	LibCGIProt, LibCGIUnprot float64
	WebServer                float64
}

// Table3Sizes returns the paper's Table 3 file sizes.
func Table3Sizes() []uint32 {
	return []uint32{28, 1024, 10 * 1024, 100 * 1024}
}

// fleetModels is Table 3's fixed serving order. The order matters at
// full float precision: TLB warmth carries from one model's requests to
// the next, so reordering (or iterating a map) would shift the rates a
// few parts per million and break the serial-vs-fleet bit-identity
// anchor.
var fleetModels = []webserver.Model{
	webserver.CGI,
	webserver.FastCGI,
	webserver.LibCGIProtected,
	webserver.LibCGI,
	webserver.Static,
}

// modelDests maps each served model to its Table 3 cell.
func modelDests(cgi, fastcgi, prot, unprot, static *float64) map[webserver.Model]*float64 {
	return map[webserver.Model]*float64{
		webserver.CGI:             cgi,
		webserver.FastCGI:         fastcgi,
		webserver.LibCGIProtected: prot,
		webserver.LibCGI:          unprot,
		webserver.Static:          static,
	}
}

// Table3 regenerates the CGI throughput comparison. requests is the
// per-cell request count (the paper uses 1000; smaller counts converge
// to the same rates because the model is deterministic). Each size row
// is served by a web server of its own, and the rows run concurrently.
func Table3(sizes []uint32, requests int) ([]Table3Row, error) {
	rows := make([]Table3Row, len(sizes))
	err := cells(len(sizes), func(i int) (err error) {
		rows[i], err = table3Row(sizes[i], requests)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// table3Row boots a system and a web server for one file size and
// serves every model in fleetModels' order on it.
func table3Row(size uint32, requests int) (Table3Row, error) {
	row := Table3Row{Size: size}
	s, err := newSystem(cycles.Measured())
	if err != nil {
		return row, err
	}
	srv, err := webserver.New(s, size)
	if err != nil {
		return row, err
	}
	dst := modelDests(&row.CGI, &row.FastCGI, &row.LibCGIProt, &row.LibCGIUnprot, &row.WebServer)
	for _, m := range fleetModels {
		v, err := srv.Throughput(m, requests)
		if err != nil {
			return row, err
		}
		*dst[m] = v
	}
	return row, nil
}

// ---------------------------------------------------------------- Figure 7

// Figure7Point is one x-position of the figure.
type Figure7Point struct {
	Terms     int
	BPF       float64 // cycles
	Palladium float64 // cycles
}

// Figure7 regenerates the compiled-vs-interpreted filter comparison
// for 0..maxTerms conjunction terms (all true).
func Figure7(maxTerms int) ([]Figure7Point, error) {
	s, err := newSystem(cycles.Measured())
	if err != nil {
		return nil, err
	}
	if _, err := s.K.CreateProcess(); err != nil {
		return nil, err
	}
	pkt := filter.MakeUDPPacket(1234, 53, 64)
	var pts []Figure7Point
	for n := 0; n <= maxTerms; n++ {
		terms := filter.TermsTrueFor(pkt, n)
		ifil, err := filter.NewInterpreted(s, terms)
		if err != nil {
			return nil, err
		}
		cfil, err := filter.NewCompiled(s, terms)
		if err != nil {
			return nil, err
		}
		b, err := filter.MeasureMatch(s, ifil, pkt)
		if err != nil {
			return nil, err
		}
		p, err := filter.MeasureMatch(s, cfil, pkt)
		if err != nil {
			return nil, err
		}
		pts = append(pts, Figure7Point{Terms: n, BPF: b, Palladium: p})
	}
	return pts, nil
}

// ---------------------------------------------------------------- micro

// Micro holds the Section 5.1 one-off measurements.
type Micro struct {
	SIGSEGVDeliveryCycles float64 // paper: 3,325
	KernelGPFaultCycles   float64 // paper: 1,020
	DlopenMicros          float64 // paper: ~400
	SegDlopenMicros       float64 // paper: ~420
	SegRegLoadCycles      float64 // paper: 12 (2-3 per manual)
	L4RoundTripCycles     float64 // paper: 242
	PalladiumCallCycles   float64 // paper: 142
}

// MeasureMicro regenerates them.
func MeasureMicro() (Micro, error) {
	var mc Micro
	s, err := newSystem(cycles.Measured())
	if err != nil {
		return mc, err
	}
	a, err := newApp(s)
	if err != nil {
		return mc, err
	}
	k := s.K

	// SIGSEGV delivery: a user extension touching a hidden page.
	secret, err := a.P.Mmap(k, 0, mem.PageSize, true, "secret")
	if err != nil {
		return mc, err
	}
	if err := a.P.Touch(k, secret, mem.PageSize); err != nil {
		return mc, err
	}
	a.P.SignalHandler = func(kernel.SignalInfo) {}
	f := &mmu.Fault{Kind: mmu.PF, Linear: secret, Access: mmu.Write, CPL: 3, Reason: "page privilege violation"}
	mc.SIGSEGVDeliveryCycles = k.Clock.Span(func() { k.HandleFault(a.P, f) })

	// Kernel extension GP processing.
	g := &mmu.Fault{Kind: mmu.GP, CPL: 1, Reason: "segment limit violation"}
	mc.KernelGPFaultCycles = k.Clock.Span(func() { k.HandleFault(a.P, g) })

	// dlopen vs seg_dlopen of the null extension: the difference is
	// the PPL-marking pass seg_dlopen performs.
	obj := isa.MustAssemble("null", NullExtSrc)
	var herr error
	d := k.Clock.Span(func() { _, _, herr = a.DL.Dlopen(obj, loader.ExtensionOptions()) })
	if herr != nil {
		return mc, herr
	}
	mc.DlopenMicros = k.Clock.Micros(d)
	d = k.Clock.Span(func() { _, herr = a.SegDlopen(obj) })
	if herr != nil {
		return mc, herr
	}
	mc.SegDlopenMicros = k.Clock.Micros(d)

	mc.SegRegLoadCycles = cycles.Measured().Cost(cycles.SegRegLoad)
	mc.L4RoundTripCycles = rpc.NewL4(cycles.NewClock(200)).Call()

	ph, err := measurePhases(cycles.Measured(), true)
	if err != nil {
		return mc, err
	}
	mc.PalladiumCallCycles = ph.Total()
	return mc, nil
}

// ---------------------------------------------------------------- ablations

// SFIPoint is one density point of the SFI-overhead ablation.
type SFIPoint struct {
	MemOpsPercent int
	OverheadPct   float64
}

// AblationSFI measures SFI's execution-time overhead as a function of
// memory-operation density, reproducing the Section 2.1 observation
// that SFI costs are proportional to the guarded instruction mix
// (the paper quotes 1%-220% across workloads).
func AblationSFI() ([]SFIPoint, error) {
	var pts []SFIPoint
	const regionBase, regionSize = 0x2000_0000, 0x0001_0000
	for _, mix := range []struct{ memOps, aluOps int }{
		{1, 99}, {5, 95}, {20, 80}, {50, 50}, {80, 20},
	} {
		var b strings.Builder
		b.WriteString(".global f\n.text\nf:\n")
		fmt.Fprintf(&b, "\tmov ecx, %d\n\tmov eax, 0\n", regionBase+64)
		for i := 0; i < mix.memOps; i++ {
			b.WriteString("\tmov [ecx], eax\n")
		}
		for i := 0; i < mix.aluOps; i++ {
			b.WriteString("\tadd eax, 1\n")
		}
		b.WriteString("\tret\n")
		obj := isa.MustAssemble("m", b.String())

		base, err := runSFIWorkload(obj, regionBase, regionSize, false)
		if err != nil {
			return nil, err
		}
		guarded, err := runSFIWorkload(obj, regionBase, regionSize, true)
		if err != nil {
			return nil, err
		}
		pts = append(pts, SFIPoint{
			MemOpsPercent: mix.memOps,
			OverheadPct:   (guarded - base) / base * 100,
		})
	}
	return pts, nil
}

func runSFIWorkload(obj *isa.Object, regionBase, regionSize uint32, sandbox bool) (float64, error) {
	s, err := newSystem(cycles.Measured())
	if err != nil {
		return 0, err
	}
	a, err := newApp(s)
	if err != nil {
		return 0, err
	}
	if _, err := a.P.MmapPPL1(s.K, regionBase, regionSize, true, "sfi-region"); err != nil {
		return 0, err
	}
	if err := a.P.Touch(s.K, regionBase, regionSize); err != nil {
		return 0, err
	}
	run := obj
	if sandbox {
		re, _, err := sfi.Rewrite(obj, sfi.Config{DataBase: regionBase, DataSize: regionSize})
		if err != nil {
			return 0, err
		}
		run = re
	}
	h, err := a.SegDlopen(run)
	if err != nil {
		return 0, err
	}
	addr, err := a.Dlsym(h, "f")
	if err != nil {
		return 0, err
	}
	if _, err := a.CallUnprotected(addr, 0); err != nil { // warm
		return 0, err
	}
	cyc := s.Clock().Span(func() {
		if _, err2 := a.CallUnprotected(addr, 0); err2 != nil {
			err = err2
		}
	})
	return cyc, err
}

// CrossingsComparison prices the design-choice ablation of Section
// 4.5.1/5.1: Palladium's 2-crossing call (142), an L4-style 4-crossing
// round trip (242), and the rejected TSS-via-syscall alternative
// (protected call + a system call to update the TSS).
type CrossingsComparison struct {
	Palladium2Crossings float64
	L4Style4Crossings   float64
	TSSSyscallVariant   float64
}

// AblationCrossings computes the comparison.
func AblationCrossings() (CrossingsComparison, error) {
	var cc CrossingsComparison
	ph, err := measurePhases(cycles.Measured(), true)
	if err != nil {
		return cc, err
	}
	cc.Palladium2Crossings = ph.Total()
	cc.L4Style4Crossings = rpc.NewL4(cycles.NewClock(200)).Call()
	// The rejected alternative: save the stack pointers into the TSS
	// so the hardware restores them — at the price of a kernel entry
	// (int gate + handler + iret) on every protected call.
	m := cycles.Measured()
	k := kernel.DefaultCosts()
	cc.TSSSyscallVariant = ph.Total() + m.Cost(cycles.IntGate) + m.Cost(cycles.IretInter) +
		k.SyscallEntry + k.SyscallExit
	return cc, nil
}
