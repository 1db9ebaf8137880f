// Package core implements Palladium, the paper's primary contribution:
// an intra-address-space protection mechanism built on the x86
// segmentation and paging hardware.
//
// Two mechanisms are provided, as in Section 4:
//
//   - Kernel-level extensions (segment-level protection): untrusted
//     modules are insmod'ed into dedicated extension segments at SPL 1
//     carved out of the kernel's 3-4 GB range; the segment limit check
//     confines them, and a general-protection fault aborts offenders.
//
//   - User-level extensions (combined paging + segmentation
//     protection): an extensible application promotes itself to SPL 2
//     with init_PL, which demotes its writable pages to PPL 0.
//     Extensions run at SPL 3 over the *same* 0-3 GB range, so pointers
//     need no swizzling, but the page-privilege check walls them off
//     from everything the application has not exposed via set_range.
//
// Control transfers follow Figure 6 exactly: a logical downhill call is
// two intra-domain calls plus an inter-domain lret; a logical uphill
// return is two intra-domain rets plus an inter-domain lcall through a
// call gate.
package core

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/kernel"
)

// systemState is every simulated field of a System, declared once:
// ResetTo (which Clone runs) and SaveTo walk it whole (DESIGN.md, "Snapshot
// layering"). Each segment carries its own segState.
type systemState struct {
	nextSeg uint32
	segs    []*ExtSegment

	// eft is the kernel's Extension Function Table (Section 4.3):
	// extension service entry points registered at insmod time.
	eft map[string]*KernelExtensionFunc

	// kernPrep is the kernel-side stub arena.
	kernPrep *stubArena

	// ktRanges tracks kernel-text allocations handed to loader spaces
	// so FreeRange can recycle them (the kernel heap only grows).
	ktRanges *rangeList

	// kernRetGate is the call gate through which kernel extensions
	// return to the kernel. It is fixed at boot, so the byte image
	// does not carry it.
	kernRetGate uint16
}

// System is a booted Palladium machine: the mini-kernel plus the
// registries for kernel extension segments.
type System struct {
	K *kernel.Kernel
	systemState
}

// NewSystem boots a Palladium system under the given cost model
// (cycles.Measured() or cycles.Manual()).
func NewSystem(model *cycles.Model) (*System, error) {
	k, err := kernel.New(model)
	if err != nil {
		return nil, err
	}
	s := &System{
		K: k,
		systemState: systemState{
			nextSeg:  kernel.ExtSegBase,
			eft:      make(map[string]*KernelExtensionFunc),
			ktRanges: newRangeList(),
		},
	}
	if err := s.initKernelMechanism(); err != nil {
		return nil, err
	}
	return s, nil
}

// Clock returns the shared simulated clock.
func (s *System) Clock() *cycles.Clock { return s.K.Clock }

// ExtensionFunction looks up an entry in the Extension Function Table.
func (s *System) ExtensionFunction(name string) (*KernelExtensionFunc, bool) {
	f, ok := s.eft[name]
	return f, ok
}

func (s *System) allocSegRange(size uint32) (uint32, error) {
	base := s.nextSeg
	if base+size < base || base+size > 0xF000_0000 {
		return 0, fmt.Errorf("palladium: kernel extension address space exhausted")
	}
	s.nextSeg += size + 0x0100_0000 // 16 MB guard gap between segments
	return base, nil
}
