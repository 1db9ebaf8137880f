package core

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/loader"
)

// stubArena is a small code region into which control-transfer stubs
// (the Prepare / Transfer / AppCallGate routines of Figure 6) are
// installed incrementally. Stub objects must be closed — every symbol
// they reference is either local or a numeric immediate baked in at
// generation time.
type stubArena struct {
	space loader.Space
	base  uint32
	next  uint32
	end   uint32
}

// resetTo rewinds the arena descriptor in place to t's, or a new one
// when a is nil (an empty clone's), setting space, and returns it; it
// returns nil when t is nil (an arena created since t was cloned). The
// stub code itself lives in simulated memory.
func (a *stubArena) resetTo(t *stubArena, space loader.Space) *stubArena {
	if t == nil {
		return nil
	}
	if a == nil {
		a = new(stubArena)
	}
	*a = *t
	a.space = space
	return a
}

func newStubArena(space loader.Space, name string, size uint32) (*stubArena, error) {
	base, err := space.AllocRange(size, name, false, true)
	if err != nil {
		return nil, err
	}
	return &stubArena{space: space, base: base, next: base, end: base + size}, nil
}

// add assembles src, places it at the arena cursor, and returns the
// absolute addresses of its text symbols. Stub sources recur verbatim
// across boots (the baked-in addresses are deterministic per layout),
// so assembly is memoized.
func (a *stubArena) add(name, src string) (map[string]uint32, error) {
	obj, err := isa.AssembleCached(name, src)
	if err != nil {
		return nil, fmt.Errorf("palladium: stub %s: %w", name, err)
	}
	if len(obj.Data) != 0 || obj.BSSSize != 0 {
		return nil, fmt.Errorf("palladium: stub %s must be pure code", name)
	}
	need := obj.TextBytes()
	if a.next+need > a.end {
		return nil, fmt.Errorf("palladium: stub arena full")
	}
	base := a.next
	text := slices.Clone(obj.Text) // the cached object is read-only
	for _, r := range obj.Relocs {
		s := obj.Symbol(r.Sym)
		if s == nil || s.Section != isa.SecText {
			return nil, fmt.Errorf("palladium: stub %s references non-local symbol %q", name, r.Sym)
		}
		v := int32(base+s.Off) + r.Addend
		switch r.Slot {
		case isa.RelDstDisp:
			text[r.Index].Dst.Disp += v
		case isa.RelSrcDisp:
			text[r.Index].Src.Disp += v
		case isa.RelDstImm:
			text[r.Index].Dst.Imm += v
		case isa.RelSrcImm:
			text[r.Index].Src.Imm += v
		}
	}
	if err := a.space.InstallText(base, text); err != nil {
		return nil, err
	}
	a.next += need
	syms := make(map[string]uint32)
	for n, s := range obj.Symbols {
		if s.Section == isa.SecText {
			syms[n] = base + s.Off
		}
	}
	return syms, nil
}

// prepareTransferSrc renders the per-extension-function Prepare and
// Transfer routines of Figure 6.
//
// Prepare (runs in the core program's domain):
//  1. copy the 4-byte input argument from the caller's stack to the
//     extension stack's argument slot,
//  2. save the caller's stack and base pointers in the save area
//     (which lives in the core domain, hidden from the extension),
//  3. push a phantom activation record — extension SS, extension ESP,
//     extension CS, Transfer's address — and lret "downhill".
//
// Transfer (runs in the extension's domain) makes a plain local call
// to the extension function, then lcalls back through the return call
// gate.
func prepareTransferSrc(argSlot, spSave, bpSave uint32, extSS, extSP uint32, extCS uint32, fnAddr uint32, retGate uint16) string {
	return fmt.Sprintf(`
prepare:
	push [esp+4]
	pop [%d]
	mov [%d], esp
	mov [%d], ebp
	push %d
	push %d
	push %d
	push transfer
	lret
transfer:
	call %d
	lcall %d
`, argSlot, spSave, bpSave, extSS, extSP, extCS, fnAddr, retGate)
}

// appCallGateSrc renders the per-application AppCallGate routine: the
// call-gate target that restores the saved stack and base pointers
// (the hardware reloaded ESP from the stale TSS slot) and returns
// locally to the original caller of Prepare.
func appCallGateSrc(spSave, bpSave uint32) string {
	return fmt.Sprintf(`
appcallgate:
	mov esp, [%d]
	mov ebp, [%d]
	ret
`, spSave, bpSave)
}

// kernelPrepareSrc renders the kernel-side Prepare routine alone: for
// kernel extensions, Prepare lives in kernel text (it runs at SPL 0)
// while Transfer lives inside the extension segment (it runs at SPL 1
// with the extension's code segment), so the two are generated
// separately and Transfer's segment-relative offset is baked in as an
// immediate.
func kernelPrepareSrc(argSlot, spSave, bpSave uint32, extSS, extSP uint32, extCS uint32, transferOff uint32) string {
	return fmt.Sprintf(`
prepare:
	push [esp+4]
	pop [%d]
	mov [%d], esp
	mov [%d], ebp
	push %d
	push %d
	push %d
	push %d
	lret
`, argSlot, spSave, bpSave, extSS, extSP, extCS, transferOff)
}

// transferSrc renders a stand-alone Transfer routine placed inside an
// extension segment.
func transferSrc(fnOff uint32, retGate uint16) string {
	return fmt.Sprintf(`
transfer:
	call %d
	lcall %d
`, fnOff, retGate)
}

// stubSyms bundles the addresses of one protected function's stubs,
// used by the phase-measurement harness for Table 1.
type stubSyms struct {
	Prepare  uint32
	Transfer uint32
}

func (a *stubArena) addPrepareTransfer(fn string, src string) (stubSyms, error) {
	syms, err := a.add("stub:"+fn, src)
	if err != nil {
		return stubSyms{}, err
	}
	return stubSyms{Prepare: syms["prepare"], Transfer: syms["transfer"]}, nil
}
