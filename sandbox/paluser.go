package sandbox

import (
	"repro/internal/core"
	"repro/internal/isa"
)

func init() {
	Register("palladium-user", func(h *Host) (Backend, error) {
		return &palUserBackend{h: h}, nil
	})
}

// palUserBackend is Palladium's user-level mechanism (Section 4.4):
// the extension is seg_dlopen'ed at PPL 1 into the promoted
// application's own address space and every invocation runs the full
// Figure-6 protected-call cycle (Prepare → lret → function → lcall →
// AppCallGate). Page-privilege checks wall the SPL-3 extension off
// from everything the application has not exposed; pointers need no
// swizzling because both share one linear range.
type palUserBackend struct{ h *Host }

// Name implements Backend.
func (b *palUserBackend) Name() string { return "palladium-user" }

// Load implements Backend.
func (b *palUserBackend) Load(obj *isa.Object, opts LoadOptions) (Extension, error) {
	if opts.Entry == "" {
		return nil, rejectf("palladium-user", "no entry symbol")
	}
	rep, err := verifyGate("palladium-user", obj, opts, userVerifyLayout("palladium-user", obj, opts))
	if err != nil {
		return nil, err
	}
	a, err := b.h.App()
	if err != nil {
		return nil, classify("palladium-user", "load", err)
	}
	handle, err := a.SegDlopen(obj)
	if err != nil {
		return nil, classify("palladium-user", "load", err)
	}
	pf, err := a.SegDlsym(handle, opts.Entry)
	if err != nil {
		return nil, classify("palladium-user", "load", err)
	}
	e := &extBase{h: b.h, backend: "palladium-user", entry: opts.Entry, bound: opts.AsyncBound, report: rep}
	if err := bindUserShared(e, a, handle, opts); err != nil {
		return nil, err
	}
	e.doInvoke = func(arg uint32, cfg *InvokeConfig) (uint32, error) {
		return protectedCallLimited(b.h, pf, arg, cfg)
	}
	e.doRelease = func() error { return a.SegDlclose(handle) }
	return e, nil
}

// AdoptProtected wraps an existing protected-function handle as a
// palladium-user extension without re-running seg_dlopen/seg_dlsym;
// the invocation path is exactly ProtectedFunc.Call's.
func AdoptProtected(pf *core.ProtectedFunc) Extension {
	h := HostFor(pf.App.S)
	h.AdoptApp(pf.App)
	e := &extBase{h: h, backend: "palladium-user", entry: pf.Name}
	e.doInvoke = func(arg uint32, cfg *InvokeConfig) (uint32, error) {
		return protectedCallLimited(h, pf, arg, cfg)
	}
	return e
}

// protectedCallLimited is ProtectedFunc.Call with an optional
// override of the kernel's per-invocation time limit (the mechanism
// arms its own limit from Kernel.ExtTimeLimit; the option swaps the
// budget for this call only and charges nothing).
func protectedCallLimited(h *Host, pf *core.ProtectedFunc, arg uint32, cfg *InvokeConfig) (uint32, error) {
	k := h.Sys.K
	if cfg.TimeLimit > 0 {
		old := k.ExtTimeLimit
		k.ExtTimeLimit = cfg.TimeLimit
		defer func() { k.ExtTimeLimit = old }()
	}
	return pf.Call(arg)
}
