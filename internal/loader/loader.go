// Package loader implements module loading and dynamic linking for the
// simulated system: placement of relocatable isa.Objects into an
// address space, GOT/PLT synthesis with the eager binding and
// page-aligned read-only GOT that Palladium requires (Section 4.4.2),
// a user-level dynamic loader (dlopen / dlsym / dlclose), and the
// miniature shared libc whose non-buffering routines extensions may
// call directly.
package loader

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Space abstracts the address space a module is loaded into: a user
// process (base-0 segments) or a kernel extension segment (addresses
// are segment-relative offsets).
type Space interface {
	// AllocRange reserves size bytes (rounded to pages) and returns
	// the base address. ppl1 requests pages visible at CPL 3.
	AllocRange(size uint32, name string, writable, ppl1 bool) (uint32, error)
	// FreeRange releases a range previously returned by AllocRange.
	FreeRange(addr uint32) error
	// Write copies bytes into the space.
	Write(addr uint32, b []byte) error
	// InstallText places instructions at addr (one per 4-byte slot).
	InstallText(addr uint32, text []isa.Instr) error
	// RemoveText undoes InstallText.
	RemoveText(addr uint32, n int) error
	// SetWritable flips write permission on the pages of a range
	// (used to seal the GOT after eager binding).
	SetWritable(addr, size uint32, writable bool) error
}

// Resolver maps an external symbol name to its absolute address.
type Resolver func(name string) (uint32, bool)

// Options tunes a Load.
type Options struct {
	// GOT routes external function calls through a PLT backed by a
	// page-aligned GOT, as dynamic linking does; without it external
	// calls are bound directly into the instruction.
	GOT bool
	// SealGOT marks the GOT page(s) read-only after eager binding —
	// the Palladium requirement that stops extensions from corrupting
	// the application's GOT.
	SealGOT bool
	// TextPPL1 / DataPPL1 / GOTPPL1 choose the page privilege level
	// of each range: PPL 1 pages remain visible to SPL-3 extensions.
	TextPPL1 bool
	DataPPL1 bool
	GOTPPL1  bool
}

// LibraryOptions is the Palladium arrangement for shared libraries
// (Section 4.4.1): code pages at PPL 1 so extensions can call
// non-buffering routines directly; data pages at PPL 0 so extensions
// cannot corrupt library state; the GOT on its own PPL-1 page, sealed
// read-only after eager binding.
func LibraryOptions() Options {
	return Options{GOT: true, SealGOT: true, TextPPL1: true, DataPPL1: false, GOTPPL1: true}
}

// ExtensionOptions places everything at PPL 1: the extension owns its
// text, data and GOT, and corrupting them harms only itself.
func ExtensionOptions() Options {
	return Options{GOT: true, SealGOT: false, TextPPL1: true, DataPPL1: true, GOTPPL1: true}
}

// Image is a loaded module.
type Image struct {
	Name     string
	TextBase uint32
	TextLen  int // instruction slots including PLT entries
	DataBase uint32
	DataSize uint32
	GOTBase  uint32 // 0 when no GOT was built
	GOTSize  uint32
	// Syms maps every defined symbol to its absolute address.
	Syms map[string]uint32
	// Globals lists the symbols exported to later loads.
	Globals []string
	// PLT maps external function names to their PLT entry addresses.
	PLT map[string]uint32

	space Space
}

// Lookup returns the address of a defined symbol.
func (im *Image) Lookup(name string) (uint32, bool) {
	a, ok := im.Syms[name]
	return a, ok
}

// Rebind copies the image descriptor onto another Space (a cloned
// machine's equivalent of the one it was loaded into). Addresses and
// symbol tables are identical — the clone's memory holds the same
// loaded bytes at the same addresses — only the Space used by a later
// Unload changes. The symbol maps are shared: they are immutable after
// Load.
func (im *Image) Rebind(space Space) *Image {
	c := *im
	c.space = space
	return &c
}

// Unload removes the module's text and releases its ranges.
func (im *Image) Unload() error {
	if err := im.space.RemoveText(im.TextBase, im.TextLen); err != nil {
		return err
	}
	if err := im.space.FreeRange(im.TextBase); err != nil {
		return err
	}
	if im.DataSize > 0 {
		if err := im.space.FreeRange(im.DataBase); err != nil {
			return err
		}
	}
	if im.GOTBase != 0 {
		if err := im.space.FreeRange(im.GOTBase); err != nil {
			return err
		}
	}
	return nil
}

// Load places obj into space, resolving externals through resolve.
// The returned image's symbol addresses are final (eager binding; no
// lazy PLT resolution, per Section 4.4.2: "symbols ... should be
// resolved eagerly, not lazily").
func Load(obj *isa.Object, space Space, resolve Resolver, opt Options) (*Image, error) {
	obj = obj.Clone()
	im := &Image{
		Name:  obj.Name,
		Syms:  make(map[string]uint32),
		PLT:   make(map[string]uint32),
		space: space,
	}

	// Classify external references: call/jmp immediate targets are
	// functions (PLT candidates); everything else binds directly.
	externFuncs := map[string]bool{}
	externData := map[string]bool{}
	for _, r := range obj.Relocs {
		s := obj.Symbol(r.Sym)
		if s == nil || s.Section != isa.SecUndef {
			continue
		}
		isCallTarget := r.Slot == isa.RelDstImm &&
			(obj.Text[r.Index].Op == isa.CALL || obj.Text[r.Index].Op == isa.JMP)
		if opt.GOT && isCallTarget {
			externFuncs[r.Sym] = true
		} else {
			externData[r.Sym] = true
		}
	}
	pltOrder := make([]string, 0, len(externFuncs))
	for s := range externFuncs {
		pltOrder = append(pltOrder, s)
	}
	sort.Strings(pltOrder)

	// Allocate ranges: text (+PLT), data+bss, GOT on its own page.
	textSlots := len(obj.Text) + len(pltOrder)
	textBase, err := space.AllocRange(uint32(textSlots)*isa.InstrSlot, obj.Name+".text", false, opt.TextPPL1)
	if err != nil {
		return nil, err
	}
	im.TextBase, im.TextLen = textBase, textSlots
	dataSize := uint32(len(obj.Data)) + obj.BSSSize
	if dataSize > 0 {
		im.DataBase, err = space.AllocRange(dataSize, obj.Name+".data", true, opt.DataPPL1)
		if err != nil {
			return nil, err
		}
		im.DataSize = dataSize
	}
	if len(pltOrder) > 0 {
		im.GOTSize = uint32(len(pltOrder)) * 4
		im.GOTBase, err = space.AllocRange(im.GOTSize, obj.Name+".got", true, opt.GOTPPL1)
		if err != nil {
			return nil, err
		}
		if im.GOTBase&mem.PageMask != 0 {
			return nil, fmt.Errorf("loader: GOT not page aligned at %#x", im.GOTBase)
		}
	}

	// Symbol addresses.
	addrOf := func(name string) (uint32, error) {
		s := obj.Symbol(name)
		if s != nil {
			switch s.Section {
			case isa.SecText:
				return textBase + s.Off, nil
			case isa.SecData:
				return im.DataBase + s.Off, nil
			case isa.SecBSS:
				return im.DataBase + uint32(len(obj.Data)) + s.Off, nil
			}
		}
		if externFuncs[name] {
			return im.pltAddr(obj, pltOrder, name), nil
		}
		if a, ok := resolve(name); ok {
			return a, nil
		}
		return 0, fmt.Errorf("loader: %s: unresolved symbol %q", obj.Name, name)
	}

	// Build the PLT: entry i is `jmp [GOT + 4*i]`, and the GOT slot
	// holds the eagerly resolved target.
	gotWords := make([]byte, im.GOTSize)
	plt := make([]isa.Instr, 0, len(pltOrder))
	for i, name := range pltOrder {
		target, ok := resolve(name)
		if !ok {
			return nil, fmt.Errorf("loader: %s: unresolved function %q", obj.Name, name)
		}
		slot := im.GOTBase + uint32(i)*4
		plt = append(plt, isa.Instr{Op: isa.JMP, Dst: isa.MAbs(int32(slot)), Size: 4})
		gotWords[i*4] = byte(target)
		gotWords[i*4+1] = byte(target >> 8)
		gotWords[i*4+2] = byte(target >> 16)
		gotWords[i*4+3] = byte(target >> 24)
		im.PLT[name] = im.pltAddr(obj, pltOrder, name)
	}

	// Apply relocations.
	for _, r := range obj.Relocs {
		v, err := addrOf(r.Sym)
		if err != nil {
			return nil, err
		}
		pv := int32(v) + r.Addend
		switch r.Slot {
		case isa.RelDstDisp:
			obj.Text[r.Index].Dst.Disp += pv
		case isa.RelSrcDisp:
			obj.Text[r.Index].Src.Disp += pv
		case isa.RelDstImm:
			obj.Text[r.Index].Dst.Imm += pv
		case isa.RelSrcImm:
			obj.Text[r.Index].Src.Imm += pv
		case isa.RelData:
			old := uint32(obj.Data[r.Index]) | uint32(obj.Data[r.Index+1])<<8 |
				uint32(obj.Data[r.Index+2])<<16 | uint32(obj.Data[r.Index+3])<<24
			nv := old + uint32(pv)
			obj.Data[r.Index] = byte(nv)
			obj.Data[r.Index+1] = byte(nv >> 8)
			obj.Data[r.Index+2] = byte(nv >> 16)
			obj.Data[r.Index+3] = byte(nv >> 24)
		}
	}

	// Record symbols.
	for name, s := range obj.Symbols {
		if s.Section == isa.SecUndef {
			continue
		}
		a, err := addrOf(name)
		if err != nil {
			return nil, err
		}
		im.Syms[name] = a
		if s.Global {
			im.Globals = append(im.Globals, name)
		}
	}
	sort.Strings(im.Globals)

	// Materialize: data, GOT, text+PLT.
	if len(obj.Data) > 0 {
		if err := space.Write(im.DataBase, obj.Data); err != nil {
			return nil, err
		}
	}
	if obj.BSSSize > 0 {
		if err := space.Write(im.DataBase+uint32(len(obj.Data)), make([]byte, obj.BSSSize)); err != nil {
			return nil, err
		}
	}
	if im.GOTBase != 0 {
		if err := space.Write(im.GOTBase, gotWords); err != nil {
			return nil, err
		}
	}
	text := append(obj.Text, plt...)
	if err := space.InstallText(textBase, text); err != nil {
		return nil, err
	}
	if opt.SealGOT && im.GOTBase != 0 {
		if err := space.SetWritable(im.GOTBase, im.GOTSize, false); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// pltAddr returns the address of the PLT entry for name: PLT entries
// sit immediately after the object's own text.
func (im *Image) pltAddr(obj *isa.Object, order []string, name string) uint32 {
	base := im.TextBase + uint32(len(obj.Text))*isa.InstrSlot
	for i, n := range order {
		if n == name {
			return base + uint32(i)*isa.InstrSlot
		}
	}
	return 0
}
