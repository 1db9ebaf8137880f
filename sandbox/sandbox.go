// Package sandbox is the unified extension programming model over
// every isolation mechanism the reproduction implements. The paper's
// argument is a *comparison* of isolation mechanisms — Palladium's
// combined segmentation+paging protection against software fault
// isolation, interpretation, and process-based RPC — yet each
// mechanism historically exposed its own incompatible API
// (App.SegDlsym→ProtectedFunc.Call, System.NewExtSegment→
// KernelExtensionFunc.Invoke, sfi.Rewrite, bpf.Interp.Run,
// rpc.Loopback.Call). This package puts one compartment model over
// all of them:
//
//	host := sandbox.HostFor(system)
//	b, _ := sandbox.Open("palladium-kernel", host)
//	ext, _ := b.Load(obj, sandbox.LoadOptions{Entry: "f"})
//	v, err := ext.Invoke(arg)          // err is a *sandbox.Fault
//
// Six backends self-register under well-known names:
//
//	direct            unprotected in-process call (the paper's baseline)
//	palladium-user    SPL-3 user-level extension (paging+segmentation)
//	palladium-kernel  SPL-1 kernel extension segment (segmentation)
//	sfi               software fault isolation (address masking)
//	bpf               in-kernel interpretation
//	rpc               process isolation over loopback RPC
//
// Every backend maps its native failure modes onto the same typed
// *Fault taxonomy (segment violation, page violation, time limit,
// validation reject, ...), while preserving the underlying error
// chain: errors.Is(err, core.ErrExtensionFault) and
// errors.As(err, &mmuFault) keep working through the adapters, and
// the simulated cycle accounting of an invocation is bit-identical to
// the mechanism-specific API it wraps.
package sandbox

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/sfi"
)

// Backend is one isolation mechanism: it loads extension objects into
// its protection domain and hands back uniformly invocable Extensions.
type Backend interface {
	// Name returns the backend's registry name.
	Name() string
	// Load places an extension object under this backend's isolation
	// mechanism. Load failures are *Fault errors (usually
	// ValidationReject: the object was refused before it ever ran).
	Load(obj *isa.Object, opts LoadOptions) (Extension, error)
}

// Extension is one loaded extension: a sandboxed function invocable
// with a 4-byte argument and a 4-byte result, the calling convention
// every mechanism in the paper shares (larger data travels through
// staged shared areas; see Stager).
type Extension interface {
	// Backend returns the name of the backend that loaded this
	// extension.
	Backend() string
	// Invoke runs the extension. A protection violation, time-limit
	// overrun or backpressure refusal surfaces as a *Fault (the
	// underlying mechanism's error chain is preserved inside it).
	Invoke(arg uint32, opts ...InvokeOption) (uint32, error)
	// Release retires the extension: queued asynchronous work is
	// drained (never silently dropped), then the mechanism's
	// resources are reclaimed. Invoking a released extension fails
	// with a Revoked fault.
	Release() error
	// Stats reports Go-side accounting; reading it charges no
	// simulated cycles.
	Stats() Stats
}

// Stager is implemented by extensions that stage input bytes into
// their extension-visible shared area before an invocation — the
// kernel copying packet headers into a filter segment, a web server
// staging CGI meta-variables.
type Stager interface {
	// Stage writes b into the extension's staging area.
	Stage(b []byte) error
	// SharedArg returns the argument value that addresses the staged
	// area in the extension's view (a linear address for user-level
	// backends, a segment-relative offset for kernel segments).
	SharedArg() uint32
}

// AsyncQueue is implemented by extensions that support WithAsync
// queueing.
type AsyncQueue interface {
	// Drain runs every queued request to completion and reports how
	// many ran.
	Drain() (int, error)
	// Pending reports the queued request count.
	Pending() int
}

// Stats is an extension's Go-side accounting.
type Stats struct {
	// Invocations counts completed Invoke calls (successful or
	// faulted), excluding async enqueues.
	Invocations uint64
	// Faults counts Invoke calls that returned an error.
	Faults uint64
	// SimCycles is the simulated cycles consumed by this extension's
	// invocations (rolled-back transactions contribute nothing).
	SimCycles float64
	// Pending is the current async queue depth.
	Pending int
}

// Host is the machine a backend attaches to: a booted Palladium
// system plus, for user-level backends, the extensible application
// that hosts their extensions. The application is created lazily so
// kernel-only hosts (e.g. the Figure 7 harness) keep their exact boot
// sequence.
type Host struct {
	Sys *core.System

	app *core.App
	// sfiRegions tracks regions the sfi backend already mapped, keyed
	// by base|size, so two sfi loads sharing a region don't double-map.
	sfiRegions map[uint64]bool
}

// HostFor wraps an already-booted system.
func HostFor(s *core.System) *Host { return &Host{Sys: s} }

// NewHost boots a fresh Palladium system under the measured cost
// model and wraps it.
func NewHost() (*Host, error) {
	s, err := core.NewSystem(cycles.Measured())
	if err != nil {
		return nil, err
	}
	return HostFor(s), nil
}

// AdoptApp installs an existing extensible application as this host's
// application (it must live on the host's system).
func (h *Host) AdoptApp(a *core.App) { h.app = a }

// App returns the host's extensible application, creating and
// promoting one (NewApp + InitPL) on first use.
func (h *Host) App() (*core.App, error) {
	if h.app != nil {
		return h.app, nil
	}
	a, err := core.NewApp(h.Sys)
	if err != nil {
		return nil, err
	}
	if err := a.InitPL(); err != nil {
		return nil, err
	}
	h.app = a
	return a, nil
}

// ---------------------------------------------------------------- options

// LoadOptions parameterizes Backend.Load.
type LoadOptions struct {
	// Entry is the extension function symbol to bind. Required by
	// every backend except bpf.
	Entry string
	// BPF is the filter program for the bpf backend (which interprets
	// it instead of loading a native object).
	BPF bpf.Program
	// SharedSymbol names a module data symbol to use as the staging
	// area (Stager); SharedBytes instead allocates a page-rounded
	// shared area outside the module for user-level backends.
	SharedSymbol string
	SharedBytes  uint32
	// SegmentSize sizes the palladium-kernel extension segment
	// (0 = mechanism default).
	SegmentSize uint32
	// SFI configures the sfi backend's sandbox region; the zero value
	// selects a default 64 KB region.
	SFI sfi.Config
	// ReqBytes/RespBytes size the rpc backend's per-invocation
	// request and reply payloads (default 4 each: the argument word
	// and the result word).
	ReqBytes, RespBytes int
	// AsyncBound caps the WithAsync queue (0 = the kernel mechanism's
	// DefaultAsyncQueueBound).
	AsyncBound int
	// Verify runs the load-time static verifier (internal/verify) over
	// the object before it is placed under the mechanism: abstract
	// interpretation over the ISA against the backend's declared
	// segment layout. Objects with a definite violation are refused
	// with a ValidationReject fault carrying the structured
	// verify.Report; accepted objects are loaded unchanged. The
	// verifier only gates the load: the segment and page checks run
	// on every access either way. Backends without a native-code load (bpf, rpc) report through
	// the same verify.Report type but ignore the flag's gating (bpf
	// always validates).
	Verify bool
}

// WithVerify returns o with the static load-time verifier enabled —
// sugar for option-literal call sites:
//
//	ext, err := b.Load(obj, sandbox.WithVerify(sandbox.LoadOptions{Entry: "f"}))
func WithVerify(o LoadOptions) LoadOptions {
	o.Verify = true
	return o
}

// InvokeOption modifies one invocation.
type InvokeOption func(*InvokeConfig)

// InvokeConfig is the resolved option set (exported so adapters and
// tests can inspect it).
type InvokeConfig struct {
	Tx        bool
	Async     bool
	TimeLimit float64
}

// WithTx runs the invocation as a transaction (core.System.Tx): the
// whole machine is frozen in a copy-on-write clone before the call,
// and a fault resets it onto that clone, rolling every simulated
// metric — memory, clock, page tables, descriptor tables, kernel
// bookkeeping — back to the pre-call state. The returned *Fault has
// RolledBack set.
func WithTx() InvokeOption { return func(c *InvokeConfig) { c.Tx = true } }

// WithAsync queues the invocation instead of running it: the call
// returns immediately (result discarded, as with the paper's queued
// packet-filter work) and the request runs when the extension's queue
// is drained. A full queue refuses the request with a Backpressure
// fault rather than growing without bound.
func WithAsync() InvokeOption { return func(c *InvokeConfig) { c.Async = true } }

// WithTimeLimit overrides the per-invocation CPU-time limit, in
// simulated cycles. Backends without a native limit (direct, sfi) arm
// one for the duration of the call; the bpf cost model checks the
// limit after the run.
func WithTimeLimit(cyc float64) InvokeOption {
	return func(c *InvokeConfig) { c.TimeLimit = cyc }
}

// ---------------------------------------------------------------- registry

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Factory builds a backend attached to a host.
type Factory func(h *Host) (Backend, error)

// Register adds a backend under a unique name; the six built-in
// adapters self-register at init time.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sandbox: backend %q registered twice", name))
	}
	registry[name] = f
}

// Open attaches the named backend to the host.
func Open(name string, h *Host) (Backend, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sandbox: unknown backend %q (have %v)", name, Backends())
	}
	return f(h)
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
