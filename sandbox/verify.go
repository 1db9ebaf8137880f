package sandbox

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sfi"
	"repro/internal/verify"
)

// This file binds the load-time static verifier (internal/verify) to
// the concrete protection domains the adapters create. Each layout
// builder states, in the verifier's vocabulary, exactly what the
// corresponding mechanism enforces at run time:
//
//	palladium-kernel  segment-relative [0, KernelExtStackTop) is the
//	                  scratch+stack area (RW); module text/data follow
//	                  at the loader's placement; int 0x81 reaches the
//	                  kernel service gate.
//	palladium-user,   no absolute regions beyond the module itself;
//	direct            the PPL-1 extension stack; int 0x80 reaches the
//	                  system-call gate.
//	sfi               the masked power-of-two data region (with the
//	                  classic 3-byte guard slack past the end: a word
//	                  store masked to the last region byte spills into
//	                  the guard, exactly the spill Wahbe et al. absorb
//	                  with guard pages).

// verifyGate statically checks obj under lay when opts.Verify is set.
// Rejections return a ValidationReject *Fault carrying the structured
// report; acceptances return the report for Extension.VerifyReport,
// and the adapter loads obj unchanged.
func verifyGate(backend string, obj *isa.Object, opts LoadOptions, lay verify.Layout) (*verify.Report, error) {
	if !opts.Verify {
		return nil, nil
	}
	rep := verify.Check(obj, lay)
	if !rep.Accepted() {
		return rep, &Fault{
			Class: ValidationReject, Backend: backend, Op: "load",
			Report: rep, cause: rep.Err(),
		}
	}
	return rep, nil
}

// verifyArgSpec models the argument the adapter will pass: a pointer
// into the staged shared area when one is configured, an opaque word
// otherwise. The size is what the mechanism actually backs — the data
// section remainder past a shared symbol, or the page-rounded shared
// allocation.
func verifyArgSpec(obj *isa.Object, opts LoadOptions) verify.ArgSpec {
	switch {
	case opts.SharedSymbol != "":
		sym := obj.Symbol(opts.SharedSymbol)
		if sym == nil || sym.Section == isa.SecText {
			return verify.ArgSpec{}
		}
		total := uint32(len(obj.Data)) + obj.BSSSize
		off := sym.Off
		if sym.Section == isa.SecBSS {
			off += uint32(len(obj.Data))
		}
		if off < total {
			return verify.ArgSpec{Pointer: true, Size: total - off, Perm: verify.PermRW}
		}
	case opts.SharedBytes > 0:
		n := (opts.SharedBytes + mem.PageMask) &^ uint32(mem.PageMask)
		return verify.ArgSpec{Pointer: true, Size: n, Perm: verify.PermRW}
	}
	return verify.ArgSpec{}
}

// userVerifyLayout is the protection domain of the user-level
// backends (palladium-user, direct): module-relative accesses only,
// the PPL-1 extension stack window, and the system-call vector.
func userVerifyLayout(backend string, obj *isa.Object, opts LoadOptions) verify.Layout {
	return verify.Layout{
		Backend: backend,
		// Entry: transfer stub's CALL pushed the return address, so
		// ESP = stack top - 8 with the argument word just above it.
		StackBelow:   core.UserExtStackBytes - 8,
		StackAbove:   8,
		Arg:          verifyArgSpec(obj, opts),
		AllowedInts:  []uint8{kernel.VecSyscall},
		AllowExterns: true,
	}
}

// kernelVerifyLayout is the protection domain of a palladium-kernel
// extension segment: the segment-relative scratch+stack area is
// addressable absolutely, the per-segment stack window applies, and
// int 0x81 reaches the kernel service gate.
func kernelVerifyLayout(obj *isa.Object, opts LoadOptions) verify.Layout {
	return verify.Layout{
		Backend: "palladium-kernel",
		Regions: []verify.Region{{
			Name: "segment scratch+stack",
			Lo:   0, Hi: core.KernelExtStackTop - 1,
			Perm: verify.PermRW,
		}},
		StackBelow: core.KernelExtStackTop - 8 - core.KernelExtStackBottom,
		StackAbove: 8,
		// The region above contains the extension stack itself, so the
		// verifier must treat absolute stores that can reach the stack
		// window as aliasing its tracked stack slots.
		StackAbs:      core.KernelExtStackTop - 8,
		StackAbsKnown: true,
		Arg:           verifyArgSpec(obj, opts),
		AllowedInts:   []uint8{kernel.VecKernelSvc},
		AllowExterns:  true,
	}
}

// sfiVerifyLayout is the protection domain of the rewritten SFI
// object: the masked data region (declared with the 3-byte guard
// slack the masking sequence can spill into) plus the user-level
// stack and system-call policy — SFI extensions run in the
// application at user level.
func sfiVerifyLayout(cfg sfi.Config, obj *isa.Object, opts LoadOptions) verify.Layout {
	lay := userVerifyLayout("sfi", obj, opts)
	lay.Regions = []verify.Region{{
		Name: "sfi region",
		Lo:   cfg.DataBase,
		// A 4-byte store masked to the region's last byte spills 3
		// bytes past DataBase+DataSize; the mapped region's guard
		// slack absorbs it (the masking sequence can produce no
		// address beyond this).
		Hi:   cfg.DataBase + cfg.DataSize + 2,
		Perm: verify.PermRW,
	}}
	return lay
}
