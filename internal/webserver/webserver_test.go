package webserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
)

func newServer(t *testing.T, fileSize uint32) *Server {
	t.Helper()
	s, err := core.NewSystem(cycles.Measured())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(s, fileSize)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// newBenchServer is newServer for benchmarks.
func newBenchServer(tb testing.TB, fileSize uint32) *Server {
	tb.Helper()
	s, err := core.NewSystem(cycles.Measured())
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(s, fileSize)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

func TestAllModelsServe200(t *testing.T) {
	srv := newServer(t, 28)
	for _, m := range []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected} {
		status, err := srv.ServeRequest(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if status != 200 {
			t.Errorf("%v: status %d", m, status)
		}
	}
}

// TestUnknownModelChargesNothing checks that a request for a model
// with no handler fails before the server path is charged.
func TestUnknownModelChargesNothing(t *testing.T) {
	srv := newServer(t, 28)
	for _, m := range []Model{Model(99), Model(-1)} {
		before := srv.SimCycles()
		if _, err := srv.ServeRequest(m); err == nil {
			t.Errorf("ServeRequest(%v) = nil error", m)
		}
		if after := srv.SimCycles(); after != before {
			t.Errorf("ServeRequest(%v) charged %v cycles before failing", m, after-before)
		}
	}
}

func TestTable3Anchors28B(t *testing.T) {
	// Table 3, 28-byte row: CGI 98, FastCGI 193, LibCGI protected
	// 437, unprotected 448, static 460 requests/second. Accept +-7%.
	srv := newServer(t, 28)
	want := map[Model]float64{
		Static:          460,
		CGI:             98,
		FastCGI:         193,
		LibCGI:          448,
		LibCGIProtected: 437,
	}
	for m, w := range want {
		got, err := srv.Throughput(m, 40)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got < w*0.93 || got > w*1.07 {
			t.Errorf("%v = %.1f req/s, paper %v", m, got, w)
		}
	}
}

func TestTable3Shape100KB(t *testing.T) {
	// At 100 KB the per-byte work dominates and the models converge:
	// static and both LibCGI variants within a few percent, CGI still
	// visibly behind (paper: 57/57/57 vs 33).
	srv := newServer(t, 100*1024)
	static, _ := srv.Throughput(Static, 10)
	prot, _ := srv.Throughput(LibCGIProtected, 10)
	unprot, _ := srv.Throughput(LibCGI, 10)
	cgi, _ := srv.Throughput(CGI, 10)
	if static < 50 || static > 65 {
		t.Errorf("static @100KB = %.1f req/s, paper 57", static)
	}
	if prot < unprot*0.96 {
		t.Errorf("protected %.1f not within 4%% of unprotected %.1f", prot, unprot)
	}
	if unprot > static || prot > unprot {
		t.Errorf("ordering violated: static %.1f, unprot %.1f, prot %.1f", static, unprot, prot)
	}
	if cgi > 0.7*static {
		t.Errorf("CGI %.1f should remain well behind static %.1f at 100KB", cgi, static)
	}
}

func TestProtectedWithinFourPercentOfUnprotected(t *testing.T) {
	// "In all cases, protected LibCGI performs within 4% of
	// unprotected LibCGI."
	for _, size := range []uint32{28, 1024, 10 * 1024, 100 * 1024} {
		srv := newServer(t, size)
		unprot, err := srv.Throughput(LibCGI, 20)
		if err != nil {
			t.Fatal(err)
		}
		prot, err := srv.Throughput(LibCGIProtected, 20)
		if err != nil {
			t.Fatal(err)
		}
		ratio := prot / unprot
		if ratio < 0.96 || ratio > 1.0 {
			t.Errorf("size %d: protected/unprotected = %.3f, want [0.96,1.0]", size, ratio)
		}
	}
}

func TestLibCGIBeatsFastCGIBelowTenKB(t *testing.T) {
	// "protected LibCGI is at least twice as fast as FastCGI for data
	// size smaller than 10 KBytes".
	for _, size := range []uint32{28, 1024} {
		srv := newServer(t, size)
		fast, _ := srv.Throughput(FastCGI, 20)
		prot, _ := srv.Throughput(LibCGIProtected, 20)
		if prot < 2*fast {
			t.Errorf("size %d: protected %.1f < 2x FastCGI %.1f", size, prot, fast)
		}
	}
}

func TestScriptActuallyRunsThroughPalladium(t *testing.T) {
	// The protected path drives the real mechanism: a request must
	// leave the response metadata in the shared area.
	srv := newServer(t, 28)
	if _, err := srv.ServeRequest(LibCGIProtected); err != nil {
		t.Fatal(err)
	}
	meta := make([]byte, 8)
	if err := srv.App().ReadMemInto(srv.shared+4, meta); err != nil {
		t.Fatal(err)
	}
	status := uint32(meta[0]) | uint32(meta[1])<<8 | uint32(meta[2])<<16 | uint32(meta[3])<<24
	length := uint32(meta[4]) | uint32(meta[5])<<8 | uint32(meta[6])<<16 | uint32(meta[7])<<24
	if status != 200 || length != 28 {
		t.Errorf("script response = status %d length %d", status, length)
	}
}

func TestModelString(t *testing.T) {
	if Static.String() != "Web Server" || LibCGIProtected.String() != "LibCGI (protected)" {
		t.Error("model names wrong")
	}
	if Model(99).String() == "" {
		t.Error("unknown model must format")
	}
}

func TestNetworkCapAppliesToHugeFiles(t *testing.T) {
	// A 1 MB file exceeds what 100 Mbps can carry at the CPU rate the
	// model would otherwise achieve only if CPU were infinitely fast;
	// verify the cap logic by dropping CPU costs to zero.
	srv := newServer(t, 1024*1024)
	srv.Costs.BaseRequest = 0
	srv.Costs.PerByte = 0
	got, err := srv.Throughput(Static, 5)
	if err != nil {
		t.Fatal(err)
	}
	wire := float64(1024*1024) + 350
	want := 100e6 / 8 / wire
	if got > want*1.01 || got < want*0.99 {
		t.Errorf("network-bound rate = %.2f, want %.2f", got, want)
	}
}
