package webserver

import (
	"fmt"
	"runtime"
	"testing"
)

// TestServeSteadyStateZeroAlloc pins the allocation audit of the
// steady-state serving path: after warmup, a request under every
// persistent execution model must allocate nothing — the per-request
// staging buffers are per-server scratch, the kernel copy paths are
// buffer-reusing, and the extension time limit is the kernel's armed
// limiter rather than a per-call closure. The CGI model is exempt by
// design: it forks a fresh process per request, and a process is an
// allocation.
func TestServeSteadyStateZeroAlloc(t *testing.T) {
	srv := newServer(t, 28)
	for _, m := range []Model{Static, FastCGI, LibCGI, LibCGIProtected} {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			// Warm: fault pages in, build decoded blocks, size buffers.
			for i := 0; i < 5; i++ {
				if _, err := srv.ServeRequest(m); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if _, err := srv.ServeRequest(m); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%v: %.2f allocs per steady-state request, want 0", m, avg)
			}
		})
	}
}

// restoredTemplate restores a template from a fresh server's SaveBytes
// image, as the clone-per-request daemon does, and warms the clone
// path so one-time set-up is not counted against a request.
func restoredTemplate(tb testing.TB) *Server {
	tb.Helper()
	srv, err := BootServer(28)
	if err != nil {
		tb.Fatal(err)
	}
	tmpl, err := LoadServerBytes(srv.SaveBytes())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cloneServeRequest(tb, tmpl)
	}
	return tmpl
}

// cloneServeRequest serves one request the clone-per-request way: fork
// a clone, serve on it, release it.
func cloneServeRequest(tb testing.TB, tmpl *Server) {
	c, err := tmpl.Clone()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.ServeRequest(LibCGIProtected); err != nil {
		tb.Fatal(err)
	}
	c.S.K.Phys.Release()
}

// TestCloneRequestHeapBudget pins the heap a clone-per-request request
// allocates. Clone set-up and teardown dominate that workload, so every
// per-clone allocation must be proportional to what the request writes:
// frame slabs grow from one frame, descriptor tables are shared
// copy-on-write, and the TLB's table is sized by its live entries. A
// full 64-frame slab per clone alone would exceed the budget.
func TestCloneRequestHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const (
		n      = 200
		budget = 96 << 10
	)
	tmpl := restoredTemplate(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cloneServeRequest(t, tmpl)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > budget {
		t.Errorf("clone request allocates %d KiB, budget %d KiB", per>>10, budget>>10)
	}
}

// BenchmarkCloneServeRequest measures one clone-per-request request:
// Clone, a protected LibCGI request on the clone, and Release.
func BenchmarkCloneServeRequest(b *testing.B) {
	tmpl := restoredTemplate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneServeRequest(b, tmpl)
	}
}

// BenchmarkServeCGIRequest measures one classic-CGI request: fork and
// exec of a script process on a booted server.
func BenchmarkServeCGIRequest(b *testing.B) {
	s := newBenchServer(b, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ServeRequest(CGI); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloneServer measures a bare clone of a restored template,
// with no request: Server.Clone and the clone's Release.
func BenchmarkCloneServer(b *testing.B) {
	tmpl := restoredTemplate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := tmpl.Clone()
		if err != nil {
			b.Fatal(err)
		}
		c.S.K.Phys.Release()
	}
}

// BenchmarkServeRequest measures the wall-clock serving rate of the
// steady-state path (one booted server, repeated requests); -benchmem
// documents the zero-allocation property the test above asserts.
func BenchmarkServeRequest(b *testing.B) {
	for _, m := range []Model{Static, LibCGI, LibCGIProtected} {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			s := newBenchServer(b, 28)
			for i := 0; i < 3; i++ {
				if _, err := s.ServeRequest(m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ServeRequest(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
