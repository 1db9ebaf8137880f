package sandbox

import (
	"repro/internal/core"
	"repro/internal/isa"
)

func init() {
	Register("palladium-kernel", func(h *Host) (Backend, error) {
		return &palKernelBackend{h: h}, nil
	})
}

// palKernelBackend is Palladium's kernel-level mechanism (Section
// 4.3): the object is insmod'ed into a dedicated SPL-1 extension
// segment carved out of the kernel's 3-4 GB range; the segment limit
// check confines it and a general-protection fault aborts offenders.
// WithTx upgrades an invocation to the PR-3 snapshot transaction
// (InvokeTx); WithAsync queues onto the segment's bounded request
// queue.
type palKernelBackend struct{ h *Host }

// Name implements Backend.
func (b *palKernelBackend) Name() string { return "palladium-kernel" }

// Load implements Backend.
func (b *palKernelBackend) Load(obj *isa.Object, opts LoadOptions) (Extension, error) {
	if opts.Entry == "" {
		return nil, rejectf("palladium-kernel", "no entry symbol")
	}
	rep, err := verifyGate("palladium-kernel", obj, opts, kernelVerifyLayout(obj, opts))
	if err != nil {
		return nil, err
	}
	s := b.h.Sys
	seg, err := s.NewExtSegment(obj.Name, opts.SegmentSize)
	if err != nil {
		return nil, classify("palladium-kernel", "load", err)
	}
	im, err := s.Insmod(seg, obj)
	if err != nil {
		_ = seg.Release() // reclaim the segment and any partial registrations
		return nil, classify("palladium-kernel", "load", err)
	}
	fn, ok := s.ExtensionFunction(opts.Entry)
	if !ok {
		_ = seg.Release()
		return nil, rejectf("palladium-kernel", "entry %q not exported by %s", opts.Entry, obj.Name)
	}
	if opts.AsyncBound > 0 {
		seg.QueueBound = opts.AsyncBound
	}
	e := newKernelExt(b.h, seg, fn)
	e.report = rep
	if opts.SharedSymbol != "" {
		off, ok := im.Lookup(opts.SharedSymbol)
		if !ok {
			_ = seg.Release()
			return nil, rejectf("palladium-kernel", "shared symbol %q missing from %s", opts.SharedSymbol, obj.Name)
		}
		e.sharedArg = off
		e.stage = func(b []byte) error { return s.WriteShared(seg, off, b) }
	}
	return e, nil
}

// AdoptKernel wraps an existing Extension Function Table entry as a
// palladium-kernel extension; the invocation path is exactly
// KernelExtensionFunc.Invoke's (InvokeTx under WithTx).
func AdoptKernel(s *core.System, fn *core.KernelExtensionFunc) Extension {
	return newKernelExt(HostFor(s), fn.Seg, fn)
}

// kernelExt is extBase plus the segment handle (exposed so workloads
// and tests can inspect the confining descriptors).
type kernelExt struct {
	extBase
	seg *core.ExtSegment
}

// Segment returns the SPL-1 extension segment confining this
// extension.
func (e *kernelExt) Segment() *core.ExtSegment { return e.seg }

func newKernelExt(h *Host, seg *core.ExtSegment, fn *core.KernelExtensionFunc) *kernelExt {
	e := &kernelExt{seg: seg}
	e.extBase = extBase{
		h: h, backend: "palladium-kernel", entry: fn.Name,
		ownTx:      true,
		ownAsync:   fn.InvokeAsync,
		ownDrain:   seg.RunPending,
		ownPending: seg.Pending,
		doRelease:  seg.Release,
	}
	e.doInvoke = func(arg uint32, cfg *InvokeConfig) (uint32, error) {
		k := h.Sys.K
		if cfg.TimeLimit > 0 {
			old := k.ExtTimeLimit
			k.ExtTimeLimit = cfg.TimeLimit
			defer func() { k.ExtTimeLimit = old }()
		}
		if cfg.Tx {
			return fn.InvokeTx(arg)
		}
		return fn.Invoke(arg)
	}
	return e
}
