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
		ref := copyTLB(m.tlb)
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
// (TranslateBatched) to the probed one: identical addresses, fault
// identities, charges and TLB counts — a hit counted in the batch
// instead of the TLB — on fills, warm hits and limit violations, a
// refill on descriptor mutation, and a live page-level check on every
// warm access.
func TestTranslateBatchedMatchesProbed(t *testing.T) {
	m, as := probeMMU(t)
	sel := MakeSelector(1, false, 3)

	var pp, pb SegProbe
	var batch uint64
	batched := func(off, size uint32) (uint32, *Fault) {
		batch = 0
		return m.TranslateBatched(&pb, sel, off, size, Write, 3, &batch)
	}
	check := func(off, size uint32) {
		t.Helper()
		ref := copyTLB(m.tlb)
		c0 := m.clock.Cycles()
		wantPA, wantF := m.TranslateProbed(&pp, sel, off, size, Write, 3)
		wantHits, wantMisses, _ := m.tlb.Stats()
		c1 := m.clock.Cycles()
		m.tlb.restoreFrom(ref)
		gotPA, gotF := batched(off, size)
		gotHits, gotMisses, _ := m.tlb.Stats()
		c2 := m.clock.Cycles()
		m.tlb.restoreFrom(ref)
		if gotHits+batch != wantHits || gotMisses != wantMisses || c2-c1 != c1-c0 {
			t.Fatalf("off %#x: TLB hits/misses/charge: probed %d/%d/%v, batched %d+%d/%d/%v",
				off, wantHits, wantMisses, c1-c0, gotHits, batch, gotMisses, c2-c1)
		}
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
