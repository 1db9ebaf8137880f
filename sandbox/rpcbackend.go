package sandbox

import (
	"repro/internal/isa"
	"repro/internal/rpc"
)

func init() {
	Register("rpc", func(h *Host) (Backend, error) {
		return &rpcBackend{h: h}, nil
	})
}

// rpcBackend is the process-isolation baseline (Table 2's "Linux
// RPC" column): the extension lives in a separate server process and
// every invocation is a socket round trip on the same machine. The
// adapter executes the extension for real (an ordinary in-process
// call in the server's role) and then charges the full loopback RPC
// path — stub overhead, socket syscalls, TCP processing, copies,
// wakeups and the context switches whose CR3 loads flush the TLB —
// so an invocation costs exactly "the same work plus IPC", the
// structural gap Section 5.1 prices at two orders of magnitude.
type rpcBackend struct{ h *Host }

// Name implements Backend.
func (b *rpcBackend) Name() string { return "rpc" }

// Load implements Backend.
func (b *rpcBackend) Load(obj *isa.Object, opts LoadOptions) (Extension, error) {
	if opts.Entry == "" {
		return nil, rejectf("rpc", "no entry symbol")
	}
	// The server process runs the object as an ordinary user-level
	// call, so a verified load is judged against the user layout.
	rep, err := verifyGate("rpc", obj, opts, userVerifyLayout("rpc", obj, opts))
	if err != nil {
		return nil, err
	}
	a, err := b.h.App()
	if err != nil {
		return nil, classify("rpc", "load", err)
	}
	handle, err := a.SegDlopen(obj)
	if err != nil {
		return nil, classify("rpc", "load", err)
	}
	addr, err := a.Dlsym(handle, opts.Entry)
	if err != nil {
		return nil, classify("rpc", "load", err)
	}
	loop, err := rpc.NewLoopback(b.h.Sys.K)
	if err != nil {
		return nil, classify("rpc", "load", err)
	}
	reqBytes, respBytes := opts.ReqBytes, opts.RespBytes
	if reqBytes <= 0 {
		reqBytes = 4
	}
	if respBytes <= 0 {
		respBytes = 4
	}
	e := &extBase{h: b.h, backend: "rpc", entry: opts.Entry, bound: opts.AsyncBound, report: rep}
	if err := bindUserShared(e, a, handle, opts); err != nil {
		return nil, err
	}
	e.doInvoke = func(arg uint32, cfg *InvokeConfig) (uint32, error) {
		v, err := callUnprotectedLimited(b.h, a, addr, arg, cfg)
		if err != nil {
			return 0, err
		}
		loop.Call(reqBytes, respBytes, 0)
		return v, nil
	}
	e.doRelease = func() error { return a.SegDlclose(handle) }
	return e, nil
}
