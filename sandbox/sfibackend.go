package sandbox

import (
	"repro/internal/isa"
	"repro/internal/sfi"
)

func init() {
	Register("sfi", func(h *Host) (Backend, error) {
		return &sfiBackend{h: h}, nil
	})
}

// DefaultSFIRegion is the sandbox region used when LoadOptions.SFI is
// zero: the same 64 KB region the SFI overhead ablation uses.
var DefaultSFIRegion = sfi.Config{DataBase: 0x2000_0000, DataSize: 0x0001_0000}

// sfiBackend is the software-fault-isolation baseline (Section 2.1,
// Wahbe et al.): the object is statically rewritten so every guarded
// memory operand is masked into a dedicated power-of-two region, then
// runs as an ordinary unprotected call. The characteristic trade-off
// survives the adapter: the rewriter's refusals surface as
// ValidationReject at load time, and an out-of-bounds write does not
// fault at all — it is silently confined to the region, the overhead
// having been paid on every guarded instruction instead.
type sfiBackend struct{ h *Host }

// Name implements Backend.
func (b *sfiBackend) Name() string { return "sfi" }

// Load implements Backend.
func (b *sfiBackend) Load(obj *isa.Object, opts LoadOptions) (Extension, error) {
	if opts.Entry == "" {
		return nil, rejectf("sfi", "no entry symbol")
	}
	cfg := opts.SFI
	if cfg.DataSize == 0 {
		cfg.DataBase, cfg.DataSize = DefaultSFIRegion.DataBase, DefaultSFIRegion.DataSize
	}
	rewritten, _, err := sfi.Rewrite(obj, cfg)
	if err != nil {
		return nil, classify("sfi", "load", err)
	}
	// Verify the *rewritten* object: the mask sequences the rewriter
	// inserted are precisely what lets the interval domain prove the
	// guarded accesses land in the region.
	rep, err := verifyGate("sfi", rewritten, opts, sfiVerifyLayout(cfg, rewritten, opts))
	if err != nil {
		return nil, err
	}
	a, err := b.h.App()
	if err != nil {
		return nil, classify("sfi", "load", err)
	}
	// Map the sandbox region once per host (extensions may share it;
	// SFI offers no protection between co-resident modules, exactly
	// like modules sharing a Palladium segment).
	key := uint64(cfg.DataBase)<<32 | uint64(cfg.DataSize)
	if b.h.sfiRegions == nil {
		b.h.sfiRegions = make(map[uint64]bool)
	}
	if !b.h.sfiRegions[key] {
		k := b.h.Sys.K
		if _, err := a.P.MmapPPL1(k, cfg.DataBase, cfg.DataSize, true, "sandbox.sfi-region"); err != nil {
			return nil, classify("sfi", "load", err)
		}
		if err := a.P.Touch(k, cfg.DataBase, cfg.DataSize); err != nil {
			return nil, classify("sfi", "load", err)
		}
		b.h.sfiRegions[key] = true
	}
	handle, err := a.SegDlopen(rewritten)
	if err != nil {
		return nil, classify("sfi", "load", err)
	}
	addr, err := a.Dlsym(handle, opts.Entry)
	if err != nil {
		return nil, classify("sfi", "load", err)
	}
	e := &extBase{h: b.h, backend: "sfi", entry: opts.Entry, bound: opts.AsyncBound, report: rep}

	// Staging: with read guards on, the rewritten code reads through
	// masked addresses, so the stager writes each byte where the
	// masked access will actually look; otherwise bytes go to the
	// plain shared address (reads are unguarded in write-only mode).
	shared := cfg.DataBase
	if opts.SharedSymbol != "" {
		if shared, err = a.Dlsym(handle, opts.SharedSymbol); err != nil {
			return nil, classify("sfi", "load", err)
		}
	}
	e.sharedArg = shared
	if cfg.GuardReads {
		mask := cfg.DataSize - 1
		base := cfg.DataBase
		e.stage = func(bts []byte) error {
			for i, v := range bts {
				masked := ((shared + uint32(i)) & mask) | base
				if err := a.WriteMem(masked, []byte{v}); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		e.stage = func(bts []byte) error { return a.WriteMem(shared, bts) }
	}

	e.doInvoke = func(arg uint32, cfg *InvokeConfig) (uint32, error) {
		return callUnprotectedLimited(b.h, a, addr, arg, cfg)
	}
	e.doRelease = func() error { return a.SegDlclose(handle) }
	return e, nil
}
