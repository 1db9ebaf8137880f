package mmu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// Page-table entry bits, matching the Intel two-level page-table entry
// format of Figure 1 in the paper. The "U" (user) bit is the page
// privilege level: U=1 is PPL 1 (accessible at CPL 3), U=0 is PPL 0
// (supervisor-only, accessible at CPL 0-2). Palladium's user-level
// extension mechanism is built entirely on flipping this bit.
const (
	pteP = 1 << 0 // present
	pteW = 1 << 1 // writable
	pteU = 1 << 2 // user (PPL 1)

	pteFrameMask = ^uint32(mem.PageMask)
)

// PTE is a page-table (or page-directory) entry.
type PTE uint32

// MakePTE assembles an entry pointing at the frame with base pa.
func MakePTE(pa uint32, present, writable, user bool) PTE {
	e := PTE(pa & pteFrameMask)
	if present {
		e |= pteP
	}
	if writable {
		e |= pteW
	}
	if user {
		e |= pteU
	}
	return e
}

// Present reports the P bit.
func (e PTE) Present() bool { return e&pteP != 0 }

// Writable reports the W bit.
func (e PTE) Writable() bool { return e&pteW != 0 }

// User reports the U bit (true = PPL 1, false = PPL 0).
func (e PTE) User() bool { return e&pteU != 0 }

// Frame returns the physical base address of the mapped frame.
func (e PTE) Frame() uint32 { return uint32(e) & pteFrameMask }

// AddressSpace owns a two-level page table rooted at a page-directory
// frame (the value a process loads into CR3). All page-table memory
// lives in simulated physical memory, exactly as on hardware, so the
// page walk performed on a TLB miss reads real PDE/PTE words.
type AddressSpace struct {
	phys   *mem.Physical
	alloc  *mem.FrameAllocator
	pdBase uint32 // physical base of the page directory
}

// NewAddressSpace allocates an empty page directory.
func NewAddressSpace(phys *mem.Physical, alloc *mem.FrameAllocator) (*AddressSpace, error) {
	pd, err := alloc.Alloc()
	if err != nil {
		return nil, fmt.Errorf("mmu: allocating page directory: %w", err)
	}
	phys.Zero(pd, mem.PageSize)
	return &AddressSpace{phys: phys, alloc: alloc, pdBase: pd}, nil
}

// CR3 returns the physical base address of the page directory.
func (as *AddressSpace) CR3() uint32 { return as.pdBase }

// AdoptAddressSpace wraps an existing page directory (identified by its
// CR3 value) in a new AddressSpace bound to a cloned machine's physical
// memory and allocator. The page-table contents themselves live in
// simulated physical memory and were carried over by the COW clone; the
// wrapper only needs the clone's pointers.
func AdoptAddressSpace(phys *mem.Physical, alloc *mem.FrameAllocator, cr3 uint32) *AddressSpace {
	return &AddressSpace{phys: phys, alloc: alloc, pdBase: cr3}
}

func splitLinear(la uint32) (pdi, pti, off uint32) {
	return la >> 22, (la >> 12) & 0x3FF, la & mem.PageMask
}

func (as *AddressSpace) pde(pdi uint32) PTE {
	return PTE(as.phys.Read32(as.pdBase + pdi*4))
}

func (as *AddressSpace) setPDE(pdi uint32, e PTE) {
	as.phys.Write32(as.pdBase+pdi*4, uint32(e))
}

// ensurePT returns the physical base of the page table covering pdi,
// allocating it if needed. Page directories mark intermediate levels
// writable and user; the effective permission is the AND of both
// levels, and we keep restrictions at the leaf as Linux does.
func (as *AddressSpace) ensurePT(pdi uint32) (uint32, error) {
	e := as.pde(pdi)
	if e.Present() {
		return e.Frame(), nil
	}
	pt, err := as.alloc.Alloc()
	if err != nil {
		return 0, fmt.Errorf("mmu: allocating page table: %w", err)
	}
	as.phys.Zero(pt, mem.PageSize)
	as.setPDE(pdi, MakePTE(pt, true, true, true))
	return pt, nil
}

// Map installs a translation linear -> frame with the given leaf
// permissions. Both addresses must be page-aligned.
func (as *AddressSpace) Map(linear, frame uint32, writable, user bool) error {
	if linear&mem.PageMask != 0 || frame&mem.PageMask != 0 {
		return fmt.Errorf("mmu: unaligned mapping %#x -> %#x", linear, frame)
	}
	pdi, pti, _ := splitLinear(linear)
	pt, err := as.ensurePT(pdi)
	if err != nil {
		return err
	}
	as.phys.Write32(pt+pti*4, uint32(MakePTE(frame, true, writable, user)))
	return nil
}

// Unmap removes the translation for the page containing linear.
func (as *AddressSpace) Unmap(linear uint32) {
	pdi, pti, _ := splitLinear(linear)
	e := as.pde(pdi)
	if !e.Present() {
		return
	}
	as.phys.Write32(e.Frame()+pti*4, 0)
}

// HasTable reports whether a page table is present for the 4 MB slice
// containing linear.
func (as *AddressSpace) HasTable(linear uint32) bool {
	return as.pde(linear >> 22).Present()
}

// Lookup returns the leaf PTE for linear (zero if the page table is
// absent).
func (as *AddressSpace) Lookup(linear uint32) PTE {
	pdi, pti, _ := splitLinear(linear)
	e := as.pde(pdi)
	if !e.Present() {
		return 0
	}
	return PTE(as.phys.Read32(e.Frame() + pti*4))
}

// SetUser flips the page privilege level of the page containing
// linear: user=true puts it at PPL 1 (extension-accessible), false at
// PPL 0 (hidden from CPL 3). It is a no-op on non-present pages and
// reports whether a present page was modified. This is the primitive
// behind Palladium's init_PL and set_range.
func (as *AddressSpace) SetUser(linear uint32, user bool) bool {
	pdi, pti, _ := splitLinear(linear)
	e := as.pde(pdi)
	if !e.Present() {
		return false
	}
	addr := e.Frame() + pti*4
	leaf := PTE(as.phys.Read32(addr))
	if !leaf.Present() {
		return false
	}
	leaf = MakePTE(leaf.Frame(), true, leaf.Writable(), user)
	as.phys.Write32(addr, uint32(leaf))
	return true
}

// SetWritable flips the write permission of the page containing
// linear; used to make the GOT page read-only after eager binding.
func (as *AddressSpace) SetWritable(linear uint32, writable bool) bool {
	pdi, pti, _ := splitLinear(linear)
	e := as.pde(pdi)
	if !e.Present() {
		return false
	}
	addr := e.Frame() + pti*4
	leaf := PTE(as.phys.Read32(addr))
	if !leaf.Present() {
		return false
	}
	leaf = MakePTE(leaf.Frame(), true, writable, leaf.User())
	as.phys.Write32(addr, uint32(leaf))
	return true
}

// entryAt decodes entry i of a page-directory or page-table frame.
func entryAt(frame *[mem.PageSize]byte, i uint32) PTE {
	return PTE(binary.LittleEndian.Uint32(frame[i*4 : i*4+4]))
}

// CopyRangeFrom deep-copies src's mappings covering [startLinear,
// endLinear] into this address space: fresh page-table frames, leaf
// entries copied verbatim (same frames, same permissions — the fork()
// inheritance of segment/page privilege levels in Section 4.5.2).
// src's directory is read through one frame view, so absent entries
// cost no memory access, and each present table is copied as a whole
// frame. The view stays valid across the loop because only this
// address space's directory and tables are written.
func (as *AddressSpace) CopyRangeFrom(src *AddressSpace, startLinear, endLinear uint32) error {
	dir := src.phys.FrameView(src.pdBase)
	for pdi := startLinear >> 22; pdi <= endLinear>>22; pdi++ {
		e := entryAt(dir, pdi)
		if !e.Present() {
			continue
		}
		pt, err := as.ensurePT(pdi)
		if err != nil {
			return err
		}
		from := src.phys.FrameView(e.Frame())
		dst := as.phys.FrameMut(pt)
		copy(dst[:], from[:])
	}
	return nil
}

// ShareRangeFrom aliases src's page-directory entries covering
// [startLinear, endLinear] into this address space: both spaces then
// use the *same page-table frames* for that range, so mappings made in
// one are visible in the other. Used for the shared kernel half of
// every process. The entries move as one byte-range copy between the
// two directory frames.
func (as *AddressSpace) ShareRangeFrom(src *AddressSpace, startLinear, endLinear uint32) {
	lo, hi := (startLinear>>22)*4, (endLinear>>22)*4+4
	from := src.phys.FrameView(src.pdBase)
	dst := as.phys.FrameMut(as.pdBase)
	copy(dst[lo:hi], from[lo:hi])
}

// VisitMapped calls fn for every present leaf mapping. The directory
// is read through one frame view, and each present page table is
// captured the same way (one lookup per frame instead of 1024 word
// reads) before its callbacks run, so a callback may mutate the visited
// entry (InitPL's PPL demotion does, possibly COW-splitting the table
// frame) without perturbing the scan. fn must not add or remove page
// tables: the directory view is held across the callbacks.
func (as *AddressSpace) VisitMapped(fn func(linear uint32, e PTE)) {
	dir := as.phys.FrameView(as.pdBase)
	var table [mem.PageSize]byte
	for pdi := uint32(0); pdi < 1024; pdi++ {
		pde := entryAt(dir, pdi)
		if !pde.Present() {
			continue
		}
		table = *as.phys.FrameView(pde.Frame())
		for pti := uint32(0); pti < 1024; pti++ {
			leaf := entryAt(&table, pti)
			if leaf.Present() {
				fn(pdi<<22|pti<<12, leaf)
			}
		}
	}
}
