package mmu

import (
	"repro/internal/cycles"
	"repro/internal/mem"
)

// MMU binds the segmentation unit, the paging unit and the TLB into the
// translation-and-check pipeline of Figure 1. One MMU is shared by the
// CPU and the kernel of a simulated machine.
type MMU struct {
	Phys *mem.Physical
	GDT  *Table

	clock *cycles.Clock
	model *cycles.Model

	space *AddressSpace // current address space (CR3)
	tlb   *TLB

	// gen counts every event that can change the outcome of a
	// translation performed through this MMU: CR3 loads, single-page
	// invalidations and GDT descriptor mutations.
	// The CPU's block tier checks it after every timer-hook firing: a
	// changed generation means cached per-run translation state (the
	// same-page fetch fast path) must be revalidated from scratch.
	gen uint64

	// segGen counts only the events that can change the outcome of a
	// SEGMENT-level check: GDT descriptor mutations and image loads.
	// The decoded-block cache tags blocks with it (a block's build-time
	// segment checks stay valid while it is unchanged), and SegProbes
	// validate against it. Page-level
	// events (CR3 loads, invlpg) deliberately do NOT advance it: the
	// page-level check runs live on every executed instruction, so
	// cached blocks follow remaps lazily and correctly without being
	// rebuilt — which keeps the per-request PPL flipping of the
	// protected serving path from flushing the block cache.
	segGen uint64

	// WriteProtect mirrors CR0.WP: when true, supervisor-level code
	// (CPL 0-2) also honours page write protection. Palladium's
	// read-only GOT needs protection only against CPL 3, but we model
	// the full WP=1 behaviour of later Linux kernels; it is
	// configurable for the ablation tests.
	WriteProtect bool
}

// New returns an MMU over the given physical memory, charging
// translation costs (TLB misses, flushes) to clock under model.
func New(phys *mem.Physical, gdtSize int, clock *cycles.Clock, model *cycles.Model) *MMU {
	m := &MMU{
		Phys:         phys,
		GDT:          NewTable("gdt", gdtSize),
		clock:        clock,
		model:        model,
		tlb:          NewTLB(),
		WriteProtect: true,
	}
	m.GDT.onMutate = m.bumpSegGen
	// Loading a byte image (mem.Physical.LoadFrom) can put different
	// bytes (and different installed code) behind live physical
	// addresses, so it must advance both generations — every decoded
	// block tagged with an older segment generation then misses and
	// rebuilds from the loaded image. TLB entries key physical
	// *addresses*, which the image load never changes, so the TLB needs
	// no flush here; the machine's LoadFrom decodes its contents.
	phys.OnRestore(m.bumpSegGen)
	return m
}

// Clone copies the MMU onto a cloned machine's physical memory and
// clock: descriptor tables (shared copy-on-write), TLB state and
// generation carry over, so the clone translates exactly as its source
// would.
func (m *MMU) Clone(phys *mem.Physical, clock *cycles.Clock) *MMU {
	c := &MMU{
		Phys:         phys,
		GDT:          m.GDT.Clone(),
		clock:        clock,
		model:        m.model,
		tlb:          m.tlb.Clone(),
		gen:          m.gen,
		segGen:       m.segGen,
		WriteProtect: m.WriteProtect,
	}
	c.GDT.onMutate = c.bumpSegGen
	phys.OnRestore(c.bumpSegGen)
	return c
}

// ResetTo rewinds the MMU in place to t, either the MMU it was cloned
// from or a frozen clone of itself: descriptor tables, TLB contents
// and counters, and control bits. The caller rebinds the current
// address space (AdoptSpace), as after Clone. The translation
// generation always advances, because the TLB was rewound. The segment
// generation advances only when the GDT no longer shares t's entries,
// so blocks and probes tagged with it survive a reset over an untouched
// table. Neither generation ever moves back: a rewound generation could
// let a stale block match. ResetTo only reads t.
func (m *MMU) ResetTo(t *MMU) {
	if !m.GDT.sharesEntries(t.GDT) {
		m.GDT.RestoreEntries(t.GDT.Snapshot()) // fires bumpSegGen
	}
	m.tlb.restoreFrom(t.tlb)
	m.WriteProtect = t.WriteProtect
	m.bumpGen()
}

// AdoptSpace installs an address space without a TLB flush or cycle
// charge: used when rebinding a cloned or reset MMU to the machine's own
// AddressSpace objects (the page-table contents, which live in
// simulated memory, are already identical).
//
//lint:genbump-exempt clone and reset rebinding only: the adopted page tables are bit-identical, Clone carried the generations over, ResetTo advanced them, and image loads bump via phys.OnRestore
func (m *MMU) AdoptSpace(space *AddressSpace) { m.space = space }

// bumpGen advances the translation generation (see the gen field).
func (m *MMU) bumpGen() { m.gen++ }

// bumpSegGen advances both generations: a segment-level change is
// also a translation-level change.
func (m *MMU) bumpSegGen() { m.segGen++; m.gen++ }

// TransGen returns the current translation generation. It changes
// whenever CR3 is loaded, a page is invalidated, or a GDT descriptor is
// installed or cleared.
func (m *MMU) TransGen() uint64 { return m.gen }

// SegGen returns the current segment-check generation (see segGen).
func (m *MMU) SegGen() uint64 { return m.segGen }

// Model returns the active cost model.
func (m *MMU) Model() *cycles.Model { return m.model }

// Clock returns the shared cycle clock.
func (m *MMU) Clock() *cycles.Clock { return m.clock }

// TLB exposes the TLB (for tests and statistics).
func (m *MMU) TLB() *TLB { return m.tlb }

// Space returns the current address space.
func (m *MMU) Space() *AddressSpace { return m.space }

// LoadCR3 switches to a new address space and flushes the TLB, charging
// the flush cost — this is the page-table switch penalty that
// Palladium's intra-address-space design avoids and that the RPC
// baseline pays on every context switch.
func (m *MMU) LoadCR3(space *AddressSpace) {
	m.space = space
	m.tlb.Flush()
	m.bumpGen()
	m.clock.Charge(m.model, cycles.TLBFlushBase)
}

// InvalidatePage drops one page translation (after a permission
// change) without a full flush.
func (m *MMU) InvalidatePage(linear uint32) {
	m.tlb.Invalidate(linear &^ uint32(mem.PageMask))
	m.bumpGen()
}

// Descriptor resolves a selector to its descriptor. A nil return means
// the selector is out of range for the GDT, or names the LDT: no
// machine installs one, so an LDT selector faults #GP as it would under
// a null LDTR.
func (m *MMU) Descriptor(sel Selector) *Descriptor {
	if sel.IsLDT() {
		return nil
	}
	return m.GDT.Get(sel.Index())
}

func fault(k FaultKind, sel Selector, off, linear uint32, acc Access, cpl int, reason string) *Fault {
	return &Fault{Kind: k, Sel: sel, Off: off, Linear: linear, Access: acc, CPL: cpl, Reason: reason}
}

// CheckSegment performs the segment-level half of the access check and
// returns the linear address on success. It is exposed separately so
// the CPU can reuse it for control transfers (where the page-level
// check happens on the subsequent fetch).
func (m *MMU) CheckSegment(sel Selector, off, size uint32, acc Access, cpl int) (uint32, *Fault) {
	if sel.IsNull() {
		return 0, fault(GP, sel, off, 0, acc, cpl, "null selector")
	}
	d := m.Descriptor(sel)
	if d == nil || d.Kind == SegNull {
		return 0, fault(GP, sel, off, 0, acc, cpl, "no such descriptor")
	}
	if !d.Present {
		return 0, fault(NP, sel, off, 0, acc, cpl, "segment not present")
	}
	switch acc {
	case Execute:
		if d.Kind != SegCode {
			return 0, fault(GP, sel, off, 0, acc, cpl, "fetch from non-code segment")
		}
		// Non-conforming code executes only at exactly DPL == CPL;
		// transfers that change CPL go through gates, which the CPU
		// checks separately.
		if !d.Conforming && cpl != d.DPL {
			return 0, fault(GP, sel, off, 0, acc, cpl, "code segment DPL != CPL")
		}
	case Write:
		if d.Kind != SegData {
			return 0, fault(GP, sel, off, 0, acc, cpl, "write to non-data segment")
		}
		if !d.Writable {
			return 0, fault(GP, sel, off, 0, acc, cpl, "segment not writable")
		}
		if max(cpl, sel.RPL()) > d.DPL {
			return 0, fault(GP, sel, off, 0, acc, cpl, "privilege: data segment DPL below access level")
		}
	case Read:
		if d.Kind == SegCode && !d.Readable {
			return 0, fault(GP, sel, off, 0, acc, cpl, "code segment not readable")
		}
		if d.Kind == SegCallGate || d.Kind == SegIntGate || d.Kind == SegTSS {
			return 0, fault(GP, sel, off, 0, acc, cpl, "data access through gate descriptor")
		}
		if d.Kind == SegData && max(cpl, sel.RPL()) > d.DPL {
			return 0, fault(GP, sel, off, 0, acc, cpl, "privilege: data segment DPL below access level")
		}
	}
	if !d.Contains(off, size) {
		// This is the segment-limit check that confines Palladium's
		// kernel extensions to their extension segment.
		return 0, fault(GP, sel, off, 0, acc, cpl, "segment limit violation")
	}
	return d.Base + off, nil
}

// CheckPage performs the page-level half: translation through the TLB
// or a charged two-level walk, then the PPL and write-permission
// checks. It returns the physical address.
func (m *MMU) CheckPage(linear uint32, acc Access, cpl int, sel Selector, off uint32) (uint32, *Fault) {
	page := linear &^ uint32(mem.PageMask)
	e, ok := m.tlb.lookup(page)
	if !ok {
		if m.space == nil {
			return 0, fault(PF, sel, off, linear, acc, cpl, "no address space")
		}
		m.clock.Charge(m.model, cycles.TLBMiss)
		leaf := m.space.Lookup(linear)
		if !leaf.Present() {
			return 0, fault(PF, sel, off, linear, acc, cpl, "page not present")
		}
		e = makeTLBEntry(leaf)
		m.tlb.insert(page, e)
	}
	// Page privilege check: CPL 3 cannot access PPL 0 (supervisor)
	// pages — the core of Palladium's user-extension protection.
	if cpl == 3 && !e.user() {
		return 0, fault(PF, sel, off, linear, acc, cpl, "page privilege violation (PPL 0 page at CPL 3)")
	}
	if acc == Write && !e.writable() {
		if cpl == 3 || m.WriteProtect {
			return 0, fault(PF, sel, off, linear, acc, cpl, "write to read-only page")
		}
	}
	return e.frame() | (linear & mem.PageMask), nil
}

// FastFetchHit is the inlineable same-page fetch probe: the CPU calls
// it instead of CheckPage when the fetch lands on the same linear page
// as the immediately preceding fetch of a straight-line run and the
// translation generation is unchanged. Under those conditions CheckPage
// is guaranteed to take the TLB-hit path with the same entry (the
// previous fetch inserted or verified it, hardware events that could
// evict it all advance TransGen, and simulated code cannot touch the
// TLB), its privilege checks are guaranteed to repeat the previous
// outcome (same entry bits, same CPL — far transfers end blocks), and
// no walk is charged. The observable effect is therefore exactly one
// TLB hit, which this records; the caller reuses the frame base from
// the full check. Pinned by TestFastFetchHitMatchesCheckPage.
func (m *MMU) FastFetchHit() { m.tlb.CountHit() }

// PeekPage resolves a linear address to a physical one without
// charging cycles, counting TLB statistics, or filling the TLB: the
// cached translation is used when present, otherwise the page tables
// are walked read-only. Privilege and write-permission bits are NOT
// checked. The CPU's block builder uses this to pre-resolve fetch
// addresses; the counted, charged, checked translation still happens
// on every execution of the cached block, so accounting is unchanged.
func (m *MMU) PeekPage(linear uint32) (uint32, bool) {
	page := linear &^ uint32(mem.PageMask)
	if e, ok := m.tlb.peek(page); ok {
		return e.frame() | (linear & mem.PageMask), true
	}
	if m.space == nil {
		return 0, false
	}
	leaf := m.space.Lookup(linear)
	if !leaf.Present() {
		return 0, false
	}
	return leaf.Frame() | (linear & mem.PageMask), true
}

// Translate runs the full segment + page pipeline for an access of
// `size` bytes at sel:off performed at privilege cpl.
func (m *MMU) Translate(sel Selector, off, size uint32, acc Access, cpl int) (uint32, *Fault) {
	linear, f := m.CheckSegment(sel, off, size, acc, cpl)
	if f != nil {
		return 0, f
	}
	return m.CheckPage(linear, acc, cpl, sel, off)
}

// SegProbe caches the outcome of one passing segment-level check. The
// segment checks that do not depend on the offset — descriptor
// presence, type, readability/writability, privilege — are functions
// of (selector, access kind, CPL, descriptor contents) only, and every
// descriptor mutation advances the translation generation; so while
// the generation, selector, access and CPL match, only the offset-
// dependent limit check needs re-running, against the cached base and
// limit. The CPU binds one probe to each stack primitive and the trace
// tier one to each fused memory operand, turning the common-case data
// translation into two compares plus the page-level check.
//
// Segment checks charge no cycles and count no statistics, so a probe
// hit is observationally identical to the full CheckSegment; pinned by
// TestTranslateProbedMatchesTranslate.
type SegProbe struct {
	gen   uint64
	sel   Selector
	acc   Access
	cpl   int8
	valid bool
	base  uint32
	limit uint32
}

// TranslateProbed is Translate with the segment-level half served from
// the probe when it still matches. The fault identities are exactly
// Translate's: a probe hit can only fail the limit check, whose fault
// CheckSegment would raise with identical fields (the offset-
// independent checks all passed when the probe was filled and their
// inputs are unchanged).
func (m *MMU) TranslateProbed(p *SegProbe, sel Selector, off, size uint32, acc Access, cpl int) (uint32, *Fault) {
	if p.valid && p.sel == sel && p.acc == acc && int(p.cpl) == cpl && p.gen == m.segGen {
		end := off + size - 1
		if end >= off && end <= p.limit {
			return m.CheckPage(p.base+off, acc, cpl, sel, off)
		}
		return 0, fault(GP, sel, off, 0, acc, cpl, "segment limit violation")
	}
	linear, f := m.CheckSegment(sel, off, size, acc, cpl)
	if f != nil {
		p.valid = false
		return 0, f
	}
	d := m.Descriptor(sel)
	*p = SegProbe{gen: m.segGen, sel: sel, acc: acc, cpl: int8(cpl), valid: true, base: d.Base, limit: d.Limit}
	return m.CheckPage(linear, acc, cpl, sel, off)
}

// ElidedChecks always returns 0: every segment-limit check runs. It
// stays because bench/probes.go still reads it.
func (m *MMU) ElidedChecks() uint64 { return 0 }

// Read32 translates and reads a 32-bit word.
func (m *MMU) Read32(sel Selector, off uint32, cpl int) (uint32, *Fault) {
	pa, f := m.Translate(sel, off, 4, Read, cpl)
	if f != nil {
		return 0, f
	}
	return m.Phys.Read32(pa), nil
}

// Write32 translates and writes a 32-bit word.
func (m *MMU) Write32(sel Selector, off uint32, v uint32, cpl int) *Fault {
	pa, f := m.Translate(sel, off, 4, Write, cpl)
	if f != nil {
		return f
	}
	m.Phys.Write32(pa, v)
	return nil
}

// Read8 translates and reads one byte.
func (m *MMU) Read8(sel Selector, off uint32, cpl int) (byte, *Fault) {
	pa, f := m.Translate(sel, off, 1, Read, cpl)
	if f != nil {
		return 0, f
	}
	return m.Phys.Read8(pa), nil
}

// Write8 translates and writes one byte.
func (m *MMU) Write8(sel Selector, off uint32, v byte, cpl int) *Fault {
	pa, f := m.Translate(sel, off, 1, Write, cpl)
	if f != nil {
		return f
	}
	m.Phys.Write8(pa, v)
	return nil
}
