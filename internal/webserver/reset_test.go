package webserver

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// resetEvents are the requests TestResetMatchesFreshClone serves on one
// clone, resetting it after each. Besides every model they include the
// requests that leave the most state behind: a protected extension
// that faults (after a dlopen), one that makes a system call (which
// runs on the kernel's own endpoint), a queued and a drained async call to
// tally, a kernel extension that faults and aborts tally's segment
// (after an insmod into it), and a new extension segment.
var resetEvents = []struct {
	name string
	run  func(t *testing.T, srv *Server)
}{
	{"static", serveModel(Static)},
	{"cgi fork", serveModel(CGI)},
	{"fastcgi", serveModel(FastCGI)},
	{"libcgi", serveModel(LibCGI)},
	{"libcgi-prot", serveModel(LibCGIProtected)},
	{"user fault", func(t *testing.T, srv *Server) {
		h, err := srv.app.SegDlopen(isa.MustAssemble("poke", `
			.global poke
			.text
			poke:
				mov eax, [16]
				ret
		`))
		if err != nil {
			t.Fatal(err)
		}
		pf, err := srv.app.SegDlsym(h, "poke")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pf.Call(0); !errors.Is(err, core.ErrExtensionFault) {
			t.Fatalf("faulting extension returned %v", err)
		}
	}},
	{"system call", func(t *testing.T, srv *Server) {
		h, err := srv.app.SegDlopen(isa.MustAssemble("getpid", `
			.global getpid
			.text
			getpid:
				mov eax, 20
				int 0x80
				ret
		`))
		if err != nil {
			t.Fatal(err)
		}
		pf, err := srv.app.SegDlsym(h, "getpid")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pf.Call(0); err != nil {
			t.Fatal(err)
		}
	}},
	{"async queued", func(t *testing.T, srv *Server) {
		if err := tally(t, srv).InvokeAsync(5); err != nil {
			t.Fatal(err)
		}
	}},
	{"async drained", func(t *testing.T, srv *Server) {
		if _, err := tally(t, srv).Seg.RunPending(); err != nil {
			t.Fatal(err)
		}
	}},
	{"kernel abort", func(t *testing.T, srv *Server) {
		seg := tally(t, srv).Seg
		if _, err := srv.S.Insmod(seg, isa.MustAssemble("crash", `
			.global crash
			.text
			crash:
				mov eax, 0x7FFFFFF0
				mov [eax], eax
				ret
		`)); err != nil {
			t.Fatal(err)
		}
		f, _ := srv.S.ExtensionFunction("crash")
		if _, err := f.Invoke(0); !errors.Is(err, core.ErrKernelExtensionAborted) {
			t.Fatalf("faulting kernel extension returned %v, want its segment aborted", err)
		}
	}},
	{"new segment", func(t *testing.T, srv *Server) {
		if _, err := srv.S.NewExtSegment("extra", 0); err != nil {
			t.Fatal(err)
		}
	}},
}

func serveModel(m Model) func(*testing.T, *Server) {
	return func(t *testing.T, srv *Server) {
		if _, err := srv.ServeRequest(m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func tally(t *testing.T, srv *Server) *core.KernelExtensionFunc {
	f, ok := srv.S.ExtensionFunction("tally")
	if !ok {
		t.Fatal("tally is not registered")
	}
	return f
}

// TestResetMatchesFreshClone: after every kind of request, a reset
// clone is indistinguishable from a fresh clone of the same template:
// every layer's state value, the simulated metrics (the copy-on-write
// counters included: a reset zeroes them, as Clone does) and the whole
// byte image, and it then serves the next request identically. The
// template itself never changes.
func TestResetMatchesFreshClone(t *testing.T) {
	tmpl, twin := servedServer(t, true), servedServer(t, true)
	c, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range resetEvents {
		ev.run(t, c)
		if err := c.Reset(); err != nil {
			t.Fatalf("%s: reset: %v", ev.name, err)
		}
		fresh, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, c, fresh, false)
		if !bytes.Equal(c.SaveBytes(), fresh.SaveBytes()) {
			t.Errorf("%s: reset byte image differs from a fresh clone's", ev.name)
		}
		requireSameNextRequest(t, c, fresh)
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		fresh.S.K.Phys.Release()
	}
	requireSameState(t, tmpl, twin, false)
}

// requireSameNextRequest serves one protected request on a reset clone
// and on a fresh one and requires the same simulated outcome. Only the
// copy-on-write count may differ: the reset clone already owns the
// frames the request writes, where the fresh one copies them.
func requireSameNextRequest(t *testing.T, reset, fresh *Server) {
	t.Helper()
	for _, srv := range []*Server{reset, fresh} {
		if _, err := srv.ServeRequest(LibCGIProtected); err != nil {
			t.Fatal(err)
		}
	}
	a, b := stateOf(reset), stateOf(fresh)
	a.copies, b.copies = 0, 0
	if a != b {
		t.Errorf("next request diverged:\n reset %+v\n fresh %+v", a, b)
	}
}

// TestResetForgetsRequestWrites: a secret one request writes, into the
// shared area (a page the template holds) or onto a page it maps
// itself, is gone for the next request on the reset machine.
func TestResetForgetsRequestWrites(t *testing.T) {
	tmpl, err := BootServer(28)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.ServeRequest(LibCGIProtected); err != nil { // writes the shared area
		t.Fatal(err)
	}
	c, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("one request's secret")
	mapPage := func() uint32 {
		p, k := c.app.P, c.S.K
		addr, err := p.Mmap(k, 0, mem.PageSize, true, "scratch")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Touch(k, addr, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		return addr
	}
	shared := c.shared
	before := make([]byte, len(secret))
	if err := c.app.ReadMemInto(shared, before); err != nil {
		t.Fatal(err)
	}
	page := mapPage()
	for _, addr := range []uint32{shared, page} {
		if err := c.app.WriteMem(addr, secret); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(secret))
	if err := c.app.ReadMemInto(shared, got); err != nil || !bytes.Equal(got, before) {
		t.Errorf("shared area after reset reads %q, want %q", got, before)
	}
	// The next request maps the same page (the allocator was rewound)
	// onto a recycled frame, which must read as zeroes.
	if again := mapPage(); again != page {
		t.Fatalf("remap landed at %#x, first map at %#x", again, page)
	}
	if err := c.app.ReadMemInto(page, got); err != nil || !bytes.Equal(got, make([]byte, len(secret))) {
		t.Errorf("freshly mapped page after reset reads %q, want zeroes", got)
	}
}

// resetServeRequest serves one request the reset way: a protected
// LibCGI request on a reused clone, then a reset to its template.
func resetServeRequest(tb testing.TB, c *Server) {
	if _, err := c.ServeRequest(LibCGIProtected); err != nil {
		tb.Fatal(err)
	}
	if err := c.Reset(); err != nil {
		tb.Fatal(err)
	}
}

// resetClone clones a restored template and warms the clone past its
// first request, whose decoded blocks are then kept across resets.
func resetClone(tb testing.TB) *Server {
	tb.Helper()
	c, err := restoredTemplate(tb).Clone()
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resetServeRequest(tb, c)
	}
	return c
}

// TestResetHeapFlat: resetting does not leak. Frames a request adds go
// to the free list and are reused by the next request, so 1,000
// requests of every model, each followed by a reset, leave the live
// heap where it was. The free list is capped, so one request that maps
// many pages, followed by requests that map few, leaves the machine
// holding a small part of what it mapped, not all of it.
func TestResetHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	c := resetClone(t)
	models := []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected}
	serve := func(i int) {
		if _, err := c.ServeRequest(models[i%len(models)]); err != nil {
			t.Fatal(err)
		}
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for i := 0; i < 20; i++ {
		serve(i)
	}
	before := heap()
	for i := 0; i < 1000; i++ {
		serve(i)
	}
	if grow := heap() - before; grow > 16<<10 {
		t.Errorf("1000 resets grew the live heap by %d KiB, budget 16 KiB", grow>>10)
	}

	const large = 4 << 20
	before = heap()
	p, k := c.app.P, c.S.K
	addr, err := p.Mmap(k, 0, large, true, "large")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Touch(k, addr, large); err != nil {
		t.Fatal(err)
	}
	for off := uint32(0); off < large; off += mem.PageSize {
		if err := c.app.WriteMem(addr+off, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		serve(i)
	}
	if grow := heap() - before; grow > large/8 {
		t.Errorf("after a request mapping %d KiB, the reset machine holds %d KiB more, budget %d KiB",
			large>>10, grow>>10, large/8>>10)
	}
	runtime.KeepAlive(c) // the clone's heap is what is measured
}

// TestResetRequestHeapBudget pins the heap one clone-per-request
// request allocates when the clone is reset and reused instead of
// forked. The reset keeps every table's memory, so the request
// allocates nothing: the budget only absorbs the test's own noise.
func TestResetRequestHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const (
		n      = 200
		budget = 1 << 10
	)
	c := resetClone(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		resetServeRequest(t, c)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > budget {
		t.Errorf("reset request allocates %d B, budget %d B", per, budget)
	}
}

// TestResetKeepsCompiledCodeOnlyWhenValid: a reset keeps the decoded
// blocks when a request left the descriptor tables, the code map and
// the breakpoints as the template has them, so the next request builds
// none. A request that sets a GDT descriptor, installs code or arms a
// breakpoint makes the next request rebuild. Either way, the next
// request matches one on a fresh clone, which builds every block anew.
func TestResetKeepsCompiledCodeOnlyWhenValid(t *testing.T) {
	tmpl, err := BootServer(28)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(*Server)
		rebuild bool
	}{
		{"untouched", func(*Server) {}, false},
		{"gdt descriptor", func(srv *Server) {
			gdt := srv.S.K.MMU.GDT
			gdt.Set(gdt.Len()-1, mmu.Descriptor{Kind: mmu.SegData, Limit: mem.PageSize - 1, DPL: 3, Present: true, Writable: true})
		}, true},
		{"installed code", func(srv *Server) {
			srv.S.K.Machine.InstallCode(0x0FF0_0000, []isa.Instr{{Op: isa.NOP}})
		}, true},
		{"breakpoint", func(srv *Server) { srv.S.K.Machine.SetBreak(0x0BAD_0000) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tmpl.Clone()
			if err != nil {
				t.Fatal(err)
			}
			resetServeRequest(t, c)
			// The request that mutates also serves, building blocks
			// under the mutated state; the reset must not keep them.
			tc.mutate(c)
			resetServeRequest(t, c)
			fresh, err := tmpl.Clone()
			if err != nil {
				t.Fatal(err)
			}
			_, builds0, _ := c.S.K.Machine.BlockCacheStats()
			requireSameNextRequest(t, c, fresh)
			_, builds, _ := c.S.K.Machine.BlockCacheStats()
			if rebuilt := builds > builds0; rebuilt != tc.rebuild {
				t.Errorf("next request built %d blocks; want rebuilt=%v", builds-builds0, tc.rebuild)
			}
		})
	}
}

// BenchmarkResetServeRequest measures one clone-per-request request on
// a reused machine: a protected LibCGI request, then a reset to the
// template. CI guards its ns/op; builds/op must stay at 0, since the
// reset keeps the decoded blocks.
func BenchmarkResetServeRequest(b *testing.B) {
	c := resetClone(b)
	_, builds0, _ := c.S.K.Machine.BlockCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetServeRequest(b, c)
	}
	b.StopTimer()
	_, builds, _ := c.S.K.Machine.BlockCacheStats()
	b.ReportMetric(float64(builds-builds0)/float64(b.N), "builds/op")
}

// TestCloneResetHammer: goroutines clone one template and serve and
// reset their clones concurrently, with no lock around Clone or Reset.
// Under -race this pins that both only read the template: afterwards
// the template's memory and every layer's state equal a twin's that
// was never cloned.
func TestCloneResetHammer(t *testing.T) {
	tmpl, err := BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	fp := tmpl.S.K.Phys.Fingerprint()
	models := []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected}
	const goroutines, perG = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c, err := tmpl.Clone()
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 3; j++ {
					if _, err := c.ServeRequest(models[(g+i+j)%len(models)]); err != nil {
						t.Error(err)
						return
					}
					if err := c.Reset(); err != nil {
						t.Error(err)
						return
					}
				}
				c.S.K.Phys.Release()
			}
		}(g)
	}
	wg.Wait()
	if tmpl.S.K.Phys.Fingerprint() != fp {
		t.Error("template memory changed under concurrent clone and reset")
	}
	requireSameState(t, tmpl, twin, false)
}
