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
// that is guaranteed to hit the TLB only increments a batch counter,
// which the trace adds to the TLB's hit counter wholesale at commit
// (TLB.AddHits). Misses cannot be batched — they charge a page walk to
// the simulated clock and fill the TLB — so they are taken live
// through the same code path CheckPage uses. The observable sequence
// of hits, misses, charges and faults is therefore exactly the
// uncached interpreter's; only the moment the hit counter moves
// differs, which no simulated metric can see. The trace tier keeps its
// own dispatch-scoped operand caches over TranslateBatched's results
// (see the CPU's traceOp); this package only supplies the checks.

// AddHits credits n TLB hits at once: the commit half of the trace
// tier's batched fetch/operand accounting. Each credited hit stands
// for one page-level check that was individually guaranteed to hit
// (the CPU's trace fetch and operand accounting); the counter
// effect is that of n hitting lookups — hits+n, misses+0, no charge.
func (t *TLB) AddHits(n uint64) { t.hits += n }

// Base reports the probe's cached segment base; Limit its cached
// limit. The CPU's trace tier derives its per-op dispatch-scoped
// operand cache from these after a successful TranslateBatched, so the
// probe remains the single source of truth.
func (p *SegProbe) Base() uint32  { return p.base }
func (p *SegProbe) Limit() uint32 { return p.limit }

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
// through CheckPageBatched: a TLB hit increments *batch instead of the
// TLB's hit counter. The segment-limit check runs on every access.
// Pinned by TestTranslateBatchedMatchesProbed.
func (m *MMU) TranslateBatched(p *SegProbe, sel Selector, off, size uint32, acc Access, cpl int, batch *uint64) (uint32, *Fault) {
	if p.valid && p.sel == sel && p.acc == acc && int(p.cpl) == cpl && p.gen == m.segGen {
		end := off + size - 1
		if end < off || end > p.limit {
			return 0, fault(GP, sel, off, 0, acc, cpl, "segment limit violation")
		}
		return m.CheckPageBatched(p.base+off, acc, cpl, sel, off, batch)
	}
	linear, f := m.CheckSegment(sel, off, size, acc, cpl)
	if f != nil {
		p.valid = false
		return 0, f
	}
	d := m.Descriptor(sel)
	*p = SegProbe{gen: m.segGen, sel: sel, acc: acc, cpl: int8(cpl), valid: true, base: d.Base, limit: d.Limit}
	return m.CheckPageBatched(linear, acc, cpl, sel, off, batch)
}
