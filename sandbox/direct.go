package sandbox

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

func init() {
	Register("direct", func(h *Host) (Backend, error) {
		return &directBackend{h: h}, nil
	})
}

// directBackend is the unprotected baseline every table compares
// against: the extension object is dlopen'ed into the application and
// invoked with an ordinary intra-domain call, bypassing every
// Palladium transfer stub. It provides no isolation — a stray access
// faults the application itself — which is exactly the point of the
// comparison.
type directBackend struct{ h *Host }

// Name implements Backend.
func (b *directBackend) Name() string { return "direct" }

// Load implements Backend.
func (b *directBackend) Load(obj *isa.Object, opts LoadOptions) (Extension, error) {
	if opts.Entry == "" {
		return nil, rejectf("direct", "no entry symbol")
	}
	// The direct backend enforces nothing at run time, so a verified
	// load is judged against the user-level layout its siblings share:
	// what the verifier proves safe there holds a fortiori here.
	rep, err := verifyGate("direct", obj, opts, userVerifyLayout("direct", obj, opts))
	if err != nil {
		return nil, err
	}
	a, err := b.h.App()
	if err != nil {
		return nil, classify("direct", "load", err)
	}
	handle, err := a.SegDlopen(obj)
	if err != nil {
		return nil, classify("direct", "load", err)
	}
	addr, err := a.Dlsym(handle, opts.Entry)
	if err != nil {
		return nil, classify("direct", "load", err)
	}
	e := &extBase{h: b.h, backend: "direct", entry: opts.Entry, bound: opts.AsyncBound, report: rep}
	if err := bindUserShared(e, a, handle, opts); err != nil {
		return nil, err
	}
	e.doInvoke = func(arg uint32, cfg *InvokeConfig) (uint32, error) {
		return callUnprotectedLimited(b.h, a, addr, arg, cfg)
	}
	e.doRelease = func() error { return a.SegDlclose(handle) }
	return e, nil
}

// AdoptDirect wraps an already-loaded plain function as a
// direct-backend extension without re-running any load step: the
// invocation path (and therefore every simulated metric) is exactly
// App.CallUnprotected's. Consumers that load once and dispatch many
// ways — the web server's LibCGI script, Table 2's strrev — adopt
// instead of re-loading.
func AdoptDirect(a *core.App, entry string, fnAddr uint32) Extension {
	h := HostFor(a.S)
	h.AdoptApp(a)
	e := &extBase{h: h, backend: "direct", entry: entry}
	e.doInvoke = func(arg uint32, cfg *InvokeConfig) (uint32, error) {
		return callUnprotectedLimited(h, a, fnAddr, arg, cfg)
	}
	return e
}

// callUnprotectedLimited is CallUnprotected plus an adapter-armed
// per-invocation time limit: the mechanism itself has none (it is the
// unprotected baseline), so the limit is only armed when an
// invocation asks for one — leaving the un-optioned path bit-identical
// to the raw call.
func callUnprotectedLimited(h *Host, a *core.App, addr, arg uint32, cfg *InvokeConfig) (uint32, error) {
	if cfg.TimeLimit > 0 {
		k := h.Sys.K
		deadline := k.Clock.Cycles() + cfg.TimeLimit
		cancel := k.OnTimerTick(func() error {
			if k.Clock.Cycles() > deadline {
				return core.ErrTimeLimit
			}
			return nil
		})
		defer cancel()
	}
	return a.CallUnprotected(addr, arg)
}

// bindUserShared resolves the staging area for a user-level backend:
// a module data symbol when SharedSymbol is set, else a fresh
// page-rounded shared allocation when SharedBytes is set.
func bindUserShared(e *extBase, a *core.App, handle int, opts LoadOptions) error {
	switch {
	case opts.SharedSymbol != "":
		addr, err := a.Dlsym(handle, opts.SharedSymbol)
		if err != nil {
			return classify(e.backend, "load", err)
		}
		e.sharedArg = addr
	case opts.SharedBytes > 0:
		n := (opts.SharedBytes + mem.PageMask) &^ uint32(mem.PageMask)
		addr, err := a.SharedAlloc(n)
		if err != nil {
			return classify(e.backend, "load", err)
		}
		e.sharedArg = addr
	default:
		return nil
	}
	addr := e.sharedArg
	e.stage = func(b []byte) error { return a.WriteMem(addr, b) }
	return nil
}
