package mmu

import (
	"repro/internal/cycles"
	"repro/internal/mem"
)

// Trace-scoped batched accounting.
//
// The CPU's trace tier (tier 3) executes a fused superblock with hot
// state in locals and commits accounting once per exit. Its memory
// accesses still perform the same segment- and page-level checks as
// tier 1/2, with one difference in *bookkeeping*: a page-level check
// that is guaranteed to hit the TLB only increments a local batch
// counter, which the trace adds to the TLB's hit counter wholesale at
// commit (TLB.AddHits). Misses cannot be batched — they charge a page
// walk to the simulated clock and fill the TLB — so they are taken
// live through the same code path CheckPage uses. The observable
// sequence of hits, misses, charges and faults is therefore exactly
// the uncached interpreter's; only the moment the hit counter moves
// differs, which no simulated metric can see.

// PageSlot is a trace-scoped single-entry page-translation cache. The
// trace tier binds one to each memory operand of a fused trace; seq is
// the owning trace's dispatch sequence number, so a slot is valid only
// within the dispatch that filled it. Within one trace dispatch no
// hardware event can evict or reshape a TLB entry (anything that could
// — CR3 load, invlpg, descriptor mutation, a timer hook running — ends
// the dispatch first), so a slot hit is a guaranteed TLB hit with the
// same entry bits the filling check saw, and is accounted as exactly
// one TLB hit through the batch counter.
type PageSlot struct {
	seq   uint32
	page  uint32
	frame uint32
}

// AddHits credits n TLB hits at once: the commit half of the trace
// tier's batched fetch/operand accounting. Each credited hit stands
// for one page-level check that was individually guaranteed to hit
// (see PageSlot and the CPU's trace fetch accounting); the counter
// effect is that of n hitting lookups — hits+n, misses+0, no charge.
func (t *TLB) AddHits(n uint64) { t.hits += n }

// AddElided credits n elided segment-limit checks at once: the commit
// half of the trace tier's batched verified-access accounting. Each
// credited elision stands for one warm verified translation whose
// limit check the load-time proof made redundant, exactly as
// TranslateBatched counts them one at a time.
func (m *MMU) AddElided(n uint64) { m.elided += n }

// Base reports the probe's cached segment base; Limit its cached
// limit; Elide whether the load-time verifier's bound lets warm
// translations skip the limit check. The CPU's trace tier mirrors
// these into its per-op dispatch-scoped fast path after a successful
// TranslateBatched, so the probe remains the single source of truth.
func (p *SegProbe) Base() uint32  { return p.base }
func (p *SegProbe) Limit() uint32 { return p.limit }
func (p *SegProbe) Elide() bool   { return p.elide }

// CheckPageBatched is CheckPage with hit-side accounting deferred to
// the caller's batch counter: a TLB hit increments *batch instead of
// the TLB's hit counter (the trace commit settles the difference via
// AddHits), while the miss path — page-walk charge, miss count, TLB
// fill — and every privilege check and fault identity are exactly
// CheckPage's, taken live.
func (m *MMU) CheckPageBatched(linear uint32, acc Access, cpl int, sel Selector, off uint32, batch *uint64) (uint32, *Fault) {
	page := linear &^ uint32(mem.PageMask)
	e, ok := m.tlb.peek(page)
	if ok {
		*batch++
	} else {
		m.tlb.misses++
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

// TranslateBatched is TranslateProbed with the page-level half running
// through CheckPageBatched and a PageSlot short-circuit: when the probe
// is warm and the operand lands on the page this very operand
// translated earlier in the same trace dispatch (pc.seq == seq), the
// result is the cached frame and one batched hit — the permission
// outcome is guaranteed to repeat (same entry bits, same access kind,
// same CPL, and nothing can have touched the TLB or the descriptor
// mid-dispatch). proved carries the operand's load-time
// verifier fact: the static analysis proved that every runtime offset
// of this operand satisfies off+size-1 <= bound. The bound is
// re-attested against the live descriptor each time the probe is
// (re)filled — a descriptor mutation bumps the segment generation,
// forcing a refill — so on a warm hit with the probe's elide set the
// limit check is provably redundant and is skipped (counted in
// ElidedChecks). The page-level check still runs on every access: PPL
// enforcement is never elided. bound is ignored when proved is false.
// Pinned by TestTranslateVerifiedMatchesProbed and the soundness fuzz.
func (m *MMU) TranslateBatched(p *SegProbe, proved bool, bound uint32, sel Selector, off, size uint32, acc Access, cpl int, pc *PageSlot, seq uint32, batch *uint64) (uint32, *Fault) {
	if p.valid && p.sel == sel && p.acc == acc && int(p.cpl) == cpl && p.gen == m.segGen {
		if p.elide {
			m.elided++
		} else {
			end := off + size - 1
			if end < off || end > p.limit {
				return 0, fault(GP, sel, off, 0, acc, cpl, "segment limit violation")
			}
		}
		linear := p.base + off
		if page := linear &^ uint32(mem.PageMask); pc.seq == seq && pc.page == page {
			*batch++
			return pc.frame | (linear & mem.PageMask), nil
		}
		pa, f := m.CheckPageBatched(linear, acc, cpl, sel, off, batch)
		if f != nil {
			return 0, f
		}
		pc.seq, pc.page, pc.frame = seq, linear&^uint32(mem.PageMask), pa&^uint32(mem.PageMask)
		return pa, nil
	}
	linear, f := m.CheckSegment(sel, off, size, acc, cpl)
	if f != nil {
		p.valid = false
		return 0, f
	}
	d := m.Descriptor(sel)
	*p = SegProbe{gen: m.segGen, sel: sel, acc: acc, cpl: int8(cpl), valid: true, base: d.Base, limit: d.Limit,
		elide: proved && bound <= d.Limit}
	pa, f := m.CheckPageBatched(linear, acc, cpl, sel, off, batch)
	if f != nil {
		return 0, f
	}
	pc.seq, pc.page, pc.frame = seq, linear&^uint32(mem.PageMask), pa&^uint32(mem.PageMask)
	return pa, nil
}
