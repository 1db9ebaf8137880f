// Package webserver implements the LibCGI application of Section 5.2:
// an Apache-style web server whose CGI scripts can be executed under
// four models — classic CGI (fork+exec per request), FastCGI
// (persistent CGI process reached over a local socket), LibCGI
// (the script as an in-process function call), and protected LibCGI
// (the script as a Palladium user-level extension). Table 3 compares
// their throughput against serving the static file directly.
//
// The trusted server core is Go code charging calibrated path costs;
// the LibCGI script itself is a real simulated extension invoked
// through the genuine Palladium (or plain call) machinery, so the
// protected-vs-unprotected difference is produced by the mechanism,
// not by a constant.
package webserver

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sandbox"
)

// Model selects the request execution model.
type Model int

const (
	// Static serves the file directly from the server (the Table 3
	// "Web Server" bound: no CGI invocation at all).
	Static Model = iota
	// CGI forks and execs a fresh script process per request.
	CGI
	// FastCGI keeps a persistent script process and talks to it over
	// a local socket.
	FastCGI
	// LibCGI calls the script as an unprotected in-process function.
	LibCGI
	// LibCGIProtected calls the script as a Palladium user-level
	// extension.
	LibCGIProtected
)

func (m Model) String() string {
	switch m {
	case Static:
		return "Web Server"
	case CGI:
		return "CGI"
	case FastCGI:
		return "FastCGI"
	case LibCGI:
		return "LibCGI (unprotected)"
	case LibCGIProtected:
		return "LibCGI (protected)"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Costs holds the server path constants (cycles), calibrated against
// Table 3 on the 200 MHz testbed; EXPERIMENTS.md records the anchors.
type Costs struct {
	// BaseRequest is the per-request HTTP path: accept, parse,
	// logging, socket writes (excluding per-byte file costs).
	BaseRequest float64
	// PerByte covers reading the memory-resident file and writing it
	// to the socket, per response byte.
	PerByte float64
	// CGIEnv is the in-process CGI environment setup LibCGI performs.
	CGIEnv float64
	// CGIProcessExtra is classic CGI's per-request cost beyond the
	// charged fork+exec: pipe setup, wait4, scheduler latency, ld.so
	// start-up of the script binary, process teardown.
	CGIProcessExtra float64
	// FastCGIRoundTrip is the persistent-process model's per-request
	// cost: two local-socket messages with context switches plus
	// FastCGI protocol framing and the mod_fastcgi server side.
	FastCGIRoundTrip float64
	// EnvBytes is the CGI meta-variable block staged into the shared
	// data area per protected request.
	EnvBytes int
}

// DefaultCosts returns the Table-3 calibration.
func DefaultCosts() Costs {
	return Costs{
		BaseRequest:      433_941,
		PerByte:          30.03,
		CGIEnv:           11_400,
		CGIProcessExtra:  1_206_000,
		FastCGIRoundTrip: 601_000,
		EnvBytes:         700,
	}
}

// scriptSrc is the LibCGI script: it reads the request word the
// server staged, writes an HTTP status and the response length into
// the shared area, and returns the status. The file body itself is
// streamed by the server (charged per byte), exactly as the paper's
// script "does exactly the same thing" as the static path.
const scriptSrc = `
	.global cgi_script
	.text
	cgi_script:
		mov eax, [esp+4]      ; shared area address
		mov ecx, [eax]        ; request: file length
		mov [eax+4], 200      ; response: status
		mov [eax+8], ecx      ; response: content length
		mov eax, 200
		ret
`

// Server is the extensible web server.
type Server struct {
	S *core.System
	serverState

	app     *core.App
	script  *core.ProtectedFunc
	cgiProc *kernel.Process

	// tmpl is the server this one was cloned from, the state Reset
	// rewinds to (nil for a booted or restored server).
	tmpl *Server

	// The LibCGI script through the unified sandbox API: the same
	// loaded module adopted as a direct-backend extension (the
	// unprotected model) and as a palladium-user extension (the
	// protected model). Both wrap the handles loaded above, so
	// adopting them adds no simulated work to the boot.
	extDirect sandbox.Extension
	extProt   sandbox.Extension

	// Per-server request scratch, reused across requests so the
	// steady-state serving path allocates nothing (asserted by
	// TestServeSteadyStateZeroAlloc). Never shared: each Server is
	// goroutine-owned, and Clone starts with fresh scratch.
	envBuf  []byte  // staged CGI meta-variable block (protected model)
	wordBuf [4]byte // little-endian request word
	respBuf [8]byte // response meta readback
}

// serverState is every simulated field of a Server, declared once. It
// holds no maps or slices, so a plain assignment copies it.
type serverState struct {
	// FileSize is the size of the requested memory-resident file.
	FileSize uint32
	// NetBandwidthMbps is the client link (100 Mbps quiescent Fast
	// Ethernet in the paper's setup).
	NetBandwidthMbps float64
	Costs            Costs

	scriptRaw uint32 // unprotected entry address
	shared    uint32 // the protected script's sharedBytes area
}

// sharedBytes is the size of the area the protected model stages the
// CGI environment (Costs.EnvBytes) into.
const sharedBytes = mem.PageSize

// New builds the server and loads the LibCGI script both as a
// protected extension and as a plain function.
func New(s *core.System, fileSize uint32) (*Server, error) {
	srv := &Server{S: s, serverState: serverState{
		FileSize: fileSize, NetBandwidthMbps: 100, Costs: DefaultCosts(),
	}}
	app, err := core.NewApp(s)
	if err != nil {
		return nil, err
	}
	if err := app.InitPL(); err != nil {
		return nil, err
	}
	srv.app = app
	h, err := app.SegDlopen(isa.MustAssemble("cgiscript", scriptSrc))
	if err != nil {
		return nil, err
	}
	if srv.script, err = app.SegDlsym(h, "cgi_script"); err != nil {
		return nil, err
	}
	if srv.scriptRaw, err = app.Dlsym(h, "cgi_script"); err != nil {
		return nil, err
	}
	if srv.shared, err = app.SharedAlloc(sharedBytes); err != nil {
		return nil, err
	}
	// A helper process standing in for forked CGI children.
	if srv.cgiProc, err = s.K.CreateProcess(); err != nil {
		return nil, err
	}
	srv.extDirect = sandbox.AdoptDirect(app, "cgi_script", srv.scriptRaw)
	srv.extProt = sandbox.AdoptProtected(srv.script)
	return srv, nil
}

// BootServer boots one machine exactly as the serial Table 3 harness
// boots its single machine: the template that daemons, clones and
// saved images start from.
func BootServer(fileSize uint32) (*Server, error) {
	s, err := core.NewSystem(cycles.Measured())
	if err != nil {
		return nil, err
	}
	return New(s, fileSize)
}

// App exposes the underlying extensible application (tests and
// examples inspect it).
func (srv *Server) App() *core.App { return srv.app }

// Clone derives an independent server from this one without re-running
// the boot: the underlying system is cloned (COW memory, copied
// machine/kernel state) and the application, script handles and CGI
// helper process are rebound to the clone. The clone's simulated state
// is bit-identical to this server's at the moment of cloning, so a
// clone of a freshly booted server serves exactly like a freshly
// booted server. Clone while no request is in flight; the clone may
// then serve from another goroutine.
func (srv *Server) Clone() (*Server, error) {
	s2, err := srv.S.Clone()
	if err != nil {
		return nil, err
	}
	app2, err := srv.app.Clone(s2)
	if err != nil {
		return nil, err
	}
	script2 := srv.script.Rebind(app2)
	return &Server{
		S:           s2,
		serverState: srv.serverState,

		app:     app2,
		script:  script2,
		cgiProc: s2.K.Process(srv.cgiProc.PID),
		tmpl:    srv,

		extDirect: sandbox.AdoptDirect(app2, "cgi_script", srv.scriptRaw),
		extProt:   sandbox.AdoptProtected(script2),
	}, nil
}

// errNotClone reports a Reset of a server that was not cloned.
var errNotClone = errors.New("webserver: only a clone can be reset")

// Reset rewinds a clone in place to the server it was cloned from, so
// its next request runs exactly as on a fresh Clone of that server:
// same simulated metrics, same byte image, and nothing an earlier
// request wrote survives. Each layer is rewound in place
// (core.System.ResetTo, core.App.ResetTo) and the compiled code is
// kept where it is still valid, so a reset costs a fraction of a
// clone. The template must be quiescent, as for Clone; Reset only
// reads it, so clones of one template may reset concurrently. On error
// nothing was rewound, and the server must be discarded.
func (srv *Server) Reset() error {
	t := srv.tmpl
	if t == nil {
		return errNotClone
	}
	if err := srv.S.ResetTo(t.S); err != nil {
		return err
	}
	srv.app.ResetTo(t.app)
	srv.serverState = t.serverState
	return nil
}

// modelHandlers is the execution-model table ServeRequest dispatches
// through; the two LibCGI models invoke the script through its sandbox
// extensions. It is never written, so concurrent servers read it
// without a lock.
var modelHandlers = [...]func(*Server) (int, error){
	Static:          (*Server).serveStatic,
	CGI:             (*Server).serveCGI,
	FastCGI:         (*Server).serveFastCGI,
	LibCGI:          (*Server).serveLibCGI,
	LibCGIProtected: (*Server).serveLibCGIProtected,
}

// ServeRequest executes one request under the given model, charging
// all costs to the system clock, and returns the HTTP status. An
// unknown model fails before anything is charged.
func (srv *Server) ServeRequest(m Model) (int, error) {
	if m < 0 || int(m) >= len(modelHandlers) {
		return 0, fmt.Errorf("webserver: unknown model %v", m)
	}
	c := srv.Costs
	srv.S.K.Clock.Add(c.BaseRequest + c.PerByte*float64(srv.FileSize))
	return modelHandlers[m](srv)
}

// serveStatic serves the file directly (no CGI invocation at all).
func (srv *Server) serveStatic() (int, error) { return 200, nil }

// serveCGI runs a fresh process per request: real fork + exec costs
// plus the modeled pipe/wait/teardown path.
func (srv *Server) serveCGI() (int, error) {
	k, c := srv.S.K, srv.Costs
	child, err := k.Fork(srv.cgiProc)
	if err != nil {
		return 0, err
	}
	if err := k.Exec(child); err != nil {
		return 0, err
	}
	k.Clock.Add(c.CGIEnv + c.CGIProcessExtra)
	k.Exit(child, 0)
	return 200, nil
}

// serveFastCGI reaches the persistent script process over a local
// socket.
func (srv *Server) serveFastCGI() (int, error) {
	srv.S.K.Clock.Add(srv.Costs.CGIEnv + srv.Costs.FastCGIRoundTrip)
	return 200, nil
}

// serveLibCGI calls the script as an unprotected in-process function
// (the direct sandbox backend).
func (srv *Server) serveLibCGI() (int, error) {
	srv.S.K.Clock.Add(srv.Costs.CGIEnv)
	// Request passed by pointer: no staging copies needed.
	putLEWord(srv.wordBuf[:], srv.FileSize)
	if err := srv.app.WriteMem(srv.shared, srv.wordBuf[:]); err != nil {
		return 0, err
	}
	status, err := srv.extDirect.Invoke(srv.shared)
	if err != nil {
		return 0, err
	}
	return int(status), nil
}

// serveLibCGIProtected calls the script as a Palladium user-level
// extension (the palladium-user sandbox backend): the CGI
// meta-variables are staged into the shared area and exposed for the
// duration of the call, then hidden again — the per-request PPL
// marking and copying that Section 4.4.1 warns about ("may also lead
// to additional data copying unless the shared data is carefully
// placed").
func (srv *Server) serveLibCGIProtected() (int, error) {
	k, c := srv.S.K, srv.Costs
	k.Clock.Add(c.CGIEnv)
	if cap(srv.envBuf) < c.EnvBytes {
		srv.envBuf = make([]byte, c.EnvBytes)
	}
	env := srv.envBuf[:c.EnvBytes]
	clear(env)
	putLEWord(env, srv.FileSize)
	if err := srv.app.WriteMem(srv.shared, env); err != nil {
		return 0, err
	}
	if err := k.SetRange(srv.app.P, srv.shared, 1, true); err != nil {
		return 0, err
	}
	status, err := srv.extProt.Invoke(srv.shared)
	if err != nil {
		return 0, err
	}
	if err := srv.app.ReadMemInto(srv.shared+4, srv.respBuf[:]); err != nil { // response meta
		return 0, err
	}
	if err := k.SetRange(srv.app.P, srv.shared, 1, false); err != nil {
		return 0, err
	}
	return int(status), nil
}

func putLEWord(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// leWord allocates a fresh little-endian word; the serving path uses
// putLEWord into per-server scratch instead (kept for the pre-redesign
// replication in the anchor tests).
func leWord(v uint32) []byte {
	b := make([]byte, 4)
	putLEWord(b, v)
	return b
}

// Throughput serves n requests under the model and returns the
// sustained request rate in requests/second: the CPU-bound rate capped
// by the 100 Mbps client link (response body plus ~350 bytes of HTTP
// framing per request).
func (srv *Server) Throughput(m Model, n int) (float64, error) {
	k := srv.S.K
	start := k.Clock.Cycles()
	for i := 0; i < n; i++ {
		if _, err := srv.ServeRequest(m); err != nil {
			return 0, err
		}
	}
	return srv.SustainedRate(k.Clock.Cycles()-start, n), nil
}

// SustainedRate converts a measured span of cyc simulated cycles over
// n requests into the sustained requests/second rate: the CPU-bound
// rate capped by this server's client link (response body plus ~350
// bytes of HTTP framing per request). Throughput uses it on its own
// span; the fleet anchor tests use it on each worker's span, so the
// fleet's N=1 rates are bit-identical to the serial path's.
func (srv *Server) SustainedRate(cyc float64, n int) float64 {
	k := srv.S.K
	secs := k.Clock.Micros(cyc) / 1e6 / float64(n)
	cpuRate := 1 / secs
	wireBytes := float64(srv.FileSize) + 350
	netRate := srv.NetBandwidthMbps * 1e6 / 8 / wireBytes
	if netRate < cpuRate {
		return netRate
	}
	return cpuRate
}

// SimCycles reports the simulated clock of this server's machine,
// implementing fleet.Machine so servers can be fleet workers.
func (srv *Server) SimCycles() float64 { return srv.S.K.Clock.Cycles() }
