package mmu

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/mem"
)

// probeMMU builds an MMU with one mapped page and a flat data segment,
// returning the mmu and the address space.
func probeMMU(t *testing.T) (*MMU, *AddressSpace) {
	t.Helper()
	phys := mem.NewPhysical()
	clock := cycles.NewClock(200)
	m := New(phys, 16, clock, cycles.Measured())
	m.GDT.Set(1, Descriptor{Kind: SegData, Base: 0, Limit: 0xFFFF_FFFF, DPL: 3, Present: true, Writable: true})
	m.GDT.Set(2, Descriptor{Kind: SegCode, Base: 0, Limit: 0xFFFF_FFFF, DPL: 3, Present: true, Readable: true})
	alloc := mem.NewFrameAllocator(0x0010_0000, 64*mem.PageSize)
	as, err := NewAddressSpace(phys, alloc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := alloc.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x0000_4000, f, true, true); err != nil {
		t.Fatal(err)
	}
	m.LoadCR3(as)
	return m, as
}

// TestFastFetchHitMatchesCheckPage pins the same-page fetch fast path's
// accounting to the full check: under the fast path's preconditions
// (immediately repeated fetch on a just-translated page, generation
// unchanged), CheckPage is a guaranteed TLB hit — so FastFetchHit must
// move the counters exactly as that hitting CheckPage would (hits+1,
// misses+0) and charge nothing.
func TestFastFetchHitMatchesCheckPage(t *testing.T) {
	m, _ := probeMMU(t)
	sel := MakeSelector(2, false, 3)

	// Prime the page (one counted miss + one walk charge).
	if _, f := m.CheckPage(0x4000, Execute, 3, sel, 0x4000); f != nil {
		t.Fatal(f)
	}
	h0, ms0, _ := m.TLB().Stats()
	c0 := m.Clock().Cycles()

	// Reference: a repeated CheckPage on the primed page.
	pa, f := m.CheckPage(0x4004, Execute, 3, sel, 0x4004)
	if f != nil {
		t.Fatal(f)
	}
	h1, ms1, _ := m.TLB().Stats()
	c1 := m.Clock().Cycles()
	if h1 != h0+1 || ms1 != ms0 {
		t.Fatalf("reference CheckPage moved counters %d/%d -> %d/%d, want one hit", h0, ms0, h1, ms1)
	}
	if c1 != c0 {
		t.Fatalf("reference CheckPage charged %v cycles on a hit", c1-c0)
	}

	// Fast path: must be observationally identical.
	m.FastFetchHit()
	h2, ms2, _ := m.TLB().Stats()
	if h2 != h1+1 || ms2 != ms1 {
		t.Errorf("FastFetchHit moved counters %d/%d -> %d/%d, want one hit", h1, ms1, h2, ms2)
	}
	if got := m.Clock().Cycles(); got != c1 {
		t.Errorf("FastFetchHit charged %v cycles", got-c1)
	}
	// And the frame the caller would reuse matches the full check's.
	if want := pa &^ uint32(mem.PageMask); want != 0 && pa == 0 {
		t.Fatalf("impossible") // pa sanity only; frame reuse is pinned by the CPU differential fuzz
	}
}

// TestTranslateProbedMatchesTranslate pins the segment-probe fast path
// to the full pipeline: hits and refills return identical addresses
// and identical fault identities, descriptor mutations invalidate the
// probe, and probe-hit limit violations raise exactly the fault
// CheckSegment would.
func TestTranslateProbedMatchesTranslate(t *testing.T) {
	m, _ := probeMMU(t)
	sel := MakeSelector(1, false, 3)
	var p SegProbe

	check := func(off, size uint32) {
		t.Helper()
		ref := m.tlb.Clone()
		wantPA, wantF := m.Translate(sel, off, size, Write, 3)
		// Rewind the TLB so the probed run sees identical state (the
		// page-level half is shared and counted in both).
		m.tlb.restoreFrom(ref)
		gotPA, gotF := m.TranslateProbed(&p, sel, off, size, Write, 3)
		m.tlb.restoreFrom(ref)
		if (wantF == nil) != (gotF == nil) {
			t.Fatalf("off %#x: fault mismatch: Translate %v, probed %v", off, wantF, gotF)
		}
		if wantF != nil && *wantF != *gotF {
			t.Fatalf("off %#x: fault identity: Translate %+v, probed %+v", off, wantF, gotF)
		}
		if wantPA != gotPA {
			t.Fatalf("off %#x: pa: Translate %#x, probed %#x", off, wantPA, gotPA)
		}
	}

	check(0x4000, 4) // refill
	check(0x4008, 4) // hit
	check(0x4001, 1) // hit, byte access

	// Shrink the segment: the mutation advances SegGen, so the probe
	// must refill and fault identically to the full pipeline.
	m.GDT.Set(1, Descriptor{Kind: SegData, Base: 0, Limit: 0x4100, DPL: 3, Present: true, Writable: true})
	check(0x4000, 4)      // refill under the new descriptor
	check(0x4200, 4)      // limit violation (both sides fault)
	check(0x40FE, 4)      // straddles the limit
	check(0xFFFF_FFFE, 4) // offset wraparound

	// Privilege change invalidates by key, not generation.
	checkCPL := func(cpl int) {
		t.Helper()
		wantPA, wantF := m.Translate(sel, 0x4000, 4, Write, cpl)
		gotPA, gotF := m.TranslateProbed(&p, sel, 0x4000, 4, Write, cpl)
		if (wantF == nil) != (gotF == nil) || wantPA != gotPA {
			t.Fatalf("cpl %d: Translate (%#x,%v), probed (%#x,%v)", cpl, wantPA, wantF, gotPA, gotF)
		}
	}
	checkCPL(3)
	checkCPL(0)
}

// TestSegGenTracksOnlySegmentEvents pins the generation split: paging
// events advance TransGen but not SegGen (cached blocks and probes
// survive them), while descriptor events advance both.
func TestSegGenTracksOnlySegmentEvents(t *testing.T) {
	m, as := probeMMU(t)
	sg, tg := m.SegGen(), m.TransGen()

	m.InvalidatePage(0x4000)
	if m.SegGen() != sg {
		t.Errorf("InvalidatePage advanced SegGen")
	}
	if m.TransGen() == tg {
		t.Errorf("InvalidatePage did not advance TransGen")
	}

	sg, tg = m.SegGen(), m.TransGen()
	m.LoadCR3(as)
	if m.SegGen() != sg {
		t.Errorf("LoadCR3 advanced SegGen")
	}
	if m.TransGen() == tg {
		t.Errorf("LoadCR3 did not advance TransGen")
	}

	sg, tg = m.SegGen(), m.TransGen()
	m.GDT.Set(3, Descriptor{Kind: SegData, Base: 0, Limit: 0xFFFF, DPL: 3, Present: true})
	if m.SegGen() == sg {
		t.Errorf("descriptor mutation did not advance SegGen")
	}
	if m.TransGen() == tg {
		t.Errorf("descriptor mutation did not advance TransGen")
	}
}

// TestTranslateBatchedMatchesProbed pins the trace tier's translation
// (TranslateBatched, a fresh dispatch seq per call so the PageSlot
// never short-circuits) to the probed one: identical addresses and
// fault identities on fills, warm hits and limit violations, a refill
// on descriptor mutation, and a live page-level check on every warm
// access.
func TestTranslateBatchedMatchesProbed(t *testing.T) {
	m, as := probeMMU(t)
	sel := MakeSelector(1, false, 3)

	var pp, pb SegProbe
	var pc PageSlot
	var seq uint32
	batched := func(off, size uint32) (uint32, *Fault) {
		seq++
		var batch uint64
		return m.TranslateBatched(&pb, sel, off, size, Write, 3, &pc, seq, &batch)
	}
	check := func(off, size uint32) {
		t.Helper()
		ref := m.tlb.Clone()
		wantPA, wantF := m.TranslateProbed(&pp, sel, off, size, Write, 3)
		m.tlb.restoreFrom(ref)
		gotPA, gotF := batched(off, size)
		m.tlb.restoreFrom(ref)
		if (wantF == nil) != (gotF == nil) {
			t.Fatalf("off %#x: fault mismatch: probed %v, batched %v", off, wantF, gotF)
		}
		if wantF != nil && *wantF != *gotF {
			t.Fatalf("off %#x: fault identity: probed %+v, batched %+v", off, wantF, gotF)
		}
		if wantPA != gotPA {
			t.Fatalf("off %#x: pa: probed %#x, batched %#x", off, wantPA, gotPA)
		}
	}

	check(0x4000, 4) // refill
	check(0x4008, 4) // warm hit
	check(0x4001, 1)

	// Shrink the segment: the mutation bumps SegGen and the refill
	// takes the new limit.
	m.GDT.Set(1, Descriptor{Kind: SegData, Base: 0, Limit: 0x4100, DPL: 3, Present: true, Writable: true})
	check(0x4000, 4)
	check(0x4200, 4)      // limit violation: both sides fault identically
	check(0x40FE, 4)      // straddles the limit
	check(0xFFFF_FFFE, 4) // offset wraparound

	// The page-level check runs on every warm access: unmap the page
	// and the very next warm hit must page-fault.
	m.GDT.Set(1, Descriptor{Kind: SegData, Base: 0, Limit: 0xFFFF_FFFF, DPL: 3, Present: true, Writable: true})
	check(0x4000, 4)
	as.Unmap(0x4000)
	m.InvalidatePage(0x4000) // paging event: TransGen only, probes stay warm
	_, f := batched(0x4000, 4)
	if f == nil || f.Kind != PF {
		t.Fatalf("warm hit on an unmapped page: fault = %v, want PF", f)
	}
}
