package mmu

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"repro/internal/mem"
)

// mapModelTLB is a reference model of the TLB: an unbounded map from
// cached page to its translation. Replaying an access trace against
// both and comparing the counters and the live set pins the hashed
// TLB to the exact hit/miss/flush accounting of the map.
type mapModelTLB struct {
	cached  map[uint32]tlbEntry
	hits    uint64
	misses  uint64
	flushes uint64
}

func (m *mapModelTLB) access(page uint32, e tlbEntry) {
	if _, ok := m.cached[page]; ok {
		m.hits++
		return
	}
	m.misses++
	m.cached[page] = e
}

func (m *mapModelTLB) invalidate(page uint32) { delete(m.cached, page) }

func (m *mapModelTLB) flush() {
	clear(m.cached)
	m.flushes++
}

func (m *mapModelTLB) clone() *mapModelTLB {
	c := *m
	c.cached = maps.Clone(m.cached)
	return &c
}

// modelEntry is the translation the model's pages map to: distinct
// frames, writability varying with the page.
func modelEntry(page uint32) tlbEntry {
	vpn := page >> mem.PageShift
	return makeTLBEntry(MakePTE(0x0100_0000+(vpn&0xFFF)<<mem.PageShift, true, vpn&1 == 0, true))
}

// spreadPage returns the i'th of 1<<20 distinct pages scattered over
// the whole linear address space.
func spreadPage(i int) uint32 {
	return uint32(i*0x9E37+0x400) & (1<<tlbVPNBits - 1) << mem.PageShift
}

func saveTLB(t *TLB) []byte {
	var e mem.Enc
	t.SaveTo(&e)
	return e.Data()
}

// TestTLBMatchesMapModel drives the TLB and the map model in lockstep
// through phases that exercise each part of the hashed table —
// translations through MMU.Translate with invalidations and flushes,
// growth past the initial table, more flushes than the epoch field
// holds, tombstone reuse within one probe chain, and a Clone and
// restoreFrom mid-trace — and after each phase requires identical
// hit/miss/flush counters and a SaveTo image equal to that of a TLB
// filled with the model's live set in VPN order.
func TestTLBMatchesMapModel(t *testing.T) {
	m, as := testMMU(t)
	tlb := m.TLB()
	model := &mapModelTLB{cached: make(map[uint32]tlbEntry)}
	// testMMU's boot LoadCR3 already counted a flush.
	model.hits, model.misses, model.flushes = tlb.Stats()

	check := func(phase string) {
		t.Helper()
		hits, misses, flushes := tlb.Stats()
		if hits != model.hits || misses != model.misses || flushes != model.flushes {
			t.Fatalf("%s: TLB %d/%d/%d (hit/miss/flush), map model %d/%d/%d", phase,
				hits, misses, flushes, model.hits, model.misses, model.flushes)
		}
		if tlb.Len() != len(model.cached) {
			t.Fatalf("%s: %d live entries, map model %d", phase, tlb.Len(), len(model.cached))
		}
		ref := NewTLB()
		ref.hits, ref.misses, ref.flushes = model.hits, model.misses, model.flushes
		for _, page := range slices.Sorted(maps.Keys(model.cached)) {
			ref.insert(page, model.cached[page])
		}
		if !bytes.Equal(saveTLB(tlb), saveTLB(ref)) {
			t.Fatalf("%s: SaveTo image differs from the map model's live set", phase)
		}
	}

	// direct mirrors CheckPage's use of the TLB for pages that need no
	// page-table mapping: a counted probe, then a fill on a miss.
	direct := func(page uint32) {
		e := modelEntry(page)
		if _, ok := tlb.peek(page); ok {
			tlb.hits++
		} else {
			tlb.misses++
			tlb.insert(page, e)
		}
		model.access(page, e)
	}
	invalidate := func(page uint32) {
		m.InvalidatePage(page)
		model.invalidate(page)
	}
	flush := func() {
		m.LoadCR3(as)
		model.flush()
	}

	// xorshift PRNG with a fixed seed keeps the trace deterministic.
	state := uint32(0x9E3779B9)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return int(state) & (n - 1)
	}
	mixed := func(rounds int, pages []uint32, access func(uint32)) {
		for round := 0; round < rounds; round++ {
			switch {
			case round%97 == 96:
				flush()
			case round%13 == 12:
				invalidate(pages[next(len(pages))])
			default:
				access(pages[next(len(pages))])
			}
		}
	}

	// Translations: strided and repeated accesses to 64 mapped user
	// pages through MMU.Translate, interleaved with single-page
	// invalidations and full flushes. (Mapping allocates page-table
	// frames but never touches the TLB.)
	pages := make([]uint32, 64)
	for i := range pages {
		lin := uint32(0x0040_0000 + i*mem.PageSize)
		e := modelEntry(lin)
		if err := as.Map(lin, e.frame(), e.writable(), true); err != nil {
			t.Fatal(err)
		}
		pages[i] = lin
	}
	mixed(2000, pages, func(lin uint32) {
		t.Helper()
		if _, f := m.Translate(MakeSelector(4, false, 3), lin, 4, Read, 3); f != nil {
			t.Fatalf("translate %#x: %v", lin, f)
		}
		model.access(lin, modelEntry(lin))
	})
	check("translate")
	if model.hits == 0 || model.misses == 0 || model.flushes == 0 {
		t.Fatalf("degenerate trace: %d/%d/%d", model.hits, model.misses, model.flushes)
	}

	// Growth: far more distinct pages than the initial table holds,
	// then every one of them again.
	flush()
	const grown = 1500
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < grown; i++ {
			direct(spreadPage(i))
		}
	}
	check("growth")
	if len(tlb.slots) < grown*4/3 {
		t.Fatalf("%d live entries in %d slots", tlb.Len(), len(tlb.slots))
	}

	// Epoch wrap: a distinct page per flush, for twice as many flushes
	// as the epoch field holds. A page stamped one wrap ago would hit
	// again if the wrap left the table's old stamps in place.
	for r := 0; r < 2*tlbEpochMax+16; r++ {
		direct(spreadPage(r % tlbEpochMax))
		direct(spreadPage(r % tlbEpochMax))
		flush()
	}
	direct(spreadPage(0))
	check("wrap")

	// Tombstones: pages sharing one home slot form a single probe
	// chain. Invalidating all but the last must leave it reachable,
	// and re-accessing them must refill the tombstones rather than
	// take new slots. Single pages inserted and invalidated, one after
	// another, fill the table with tombstones, which a same-size
	// rehash drops.
	flush()
	home := func(page uint32) uint32 { return page >> mem.PageShift * tlbHashMul >> tlb.shift }
	var chain []uint32
	for i := 0; len(chain) < 8; i++ {
		if page := spreadPage(i); home(page) == home(spreadPage(0)) {
			chain = append(chain, page)
		}
	}
	size := len(tlb.slots)
	for _, page := range chain {
		direct(page)
	}
	used := tlb.used
	for cycle := 0; cycle < 50; cycle++ {
		for _, page := range chain[:len(chain)-1] {
			invalidate(page)
		}
		direct(chain[len(chain)-1])
		for _, page := range chain[:len(chain)-1] {
			direct(page)
		}
		if tlb.used != used {
			t.Fatalf("re-accessing the chain took %d slots, the chain holds %d", tlb.used, used)
		}
	}
	for i := 0; i < 2*size; i++ {
		page := spreadPage(grown + i)
		direct(page)
		invalidate(page)
	}
	check("tombstones")
	if len(tlb.slots) != size {
		t.Fatalf("tombstones grew the table from %d to %d slots", size, len(tlb.slots))
	}

	// Clone and restore: snapshot a populated TLB and the model, run
	// on, rewind both, and run on again. A fresh TLB restored from the
	// same snapshot must match too.
	flush()
	work := make([]uint32, 256)
	for i := range work {
		work[i] = spreadPage(3 * i)
	}
	for _, page := range work[:100] {
		direct(page)
	}
	snap, modelSnap := copyTLB(tlb), model.clone()
	mixed(3000, work, direct)
	check("before restore")
	tlb.restoreFrom(snap)
	model = modelSnap.clone()
	check("restore")
	mixed(3000, work, direct)
	check("after restore")
	tlb = NewTLB()
	tlb.restoreFrom(snap)
	model = modelSnap
	check("restore into a new TLB")
}

// copyTLB returns a TLB holding t's live entries and counters, built
// the way MMU.Clone builds a clone's.
func copyTLB(t *TLB) *TLB {
	c := newTLB(len(t.slots))
	c.restoreFrom(t)
	return c
}
