package mmu

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cycles"
	"repro/internal/mem"
)

// testMMU builds an MMU with the canonical Palladium GDT layout:
//
//	1: kernel code   base 3G   limit 1G-1   DPL 0
//	2: kernel data   base 3G   limit 1G-1   DPL 0
//	3: user code     base 0    limit 3G-1   DPL 3
//	4: user data     base 0    limit 3G-1   DPL 3
//	5: kernel ext code base 3.125G limit 16M-1 DPL 1
//	6: kernel ext data base 3.125G limit 16M-1 DPL 1
func testMMU(t *testing.T) (*MMU, *AddressSpace) {
	t.Helper()
	phys := mem.NewPhysical()
	clock := cycles.NewClock(200)
	m := New(phys, 32, clock, cycles.Measured())
	const kBase, kLim = 0xC000_0000, 0x3FFF_FFFF
	const uLim = 0xBFFF_FFFF
	const xBase, xLim = 0xC800_0000, 0x00FF_FFFF
	m.GDT.Set(1, Descriptor{Kind: SegCode, Base: kBase, Limit: kLim, DPL: 0, Present: true, Readable: true})
	m.GDT.Set(2, Descriptor{Kind: SegData, Base: kBase, Limit: kLim, DPL: 0, Present: true, Writable: true})
	m.GDT.Set(3, Descriptor{Kind: SegCode, Base: 0, Limit: uLim, DPL: 3, Present: true, Readable: true})
	m.GDT.Set(4, Descriptor{Kind: SegData, Base: 0, Limit: uLim, DPL: 3, Present: true, Writable: true})
	m.GDT.Set(5, Descriptor{Kind: SegCode, Base: xBase, Limit: xLim, DPL: 1, Present: true, Readable: true})
	m.GDT.Set(6, Descriptor{Kind: SegData, Base: xBase, Limit: xLim, DPL: 1, Present: true, Writable: true})

	alloc := mem.NewFrameAllocator(0, 1024*mem.PageSize)
	as, err := NewAddressSpace(phys, alloc)
	if err != nil {
		t.Fatal(err)
	}
	m.LoadCR3(as)
	return m, as
}

func sel(idx, rpl int) Selector { return MakeSelector(idx, false, rpl) }

func mapPage(t *testing.T, as *AddressSpace, linear uint32, writable, user bool) {
	t.Helper()
	frame := uint32(0x40000) + (linear>>12)%512*mem.PageSize
	if err := as.Map(linear, frame, writable, user); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorBits(t *testing.T) {
	s := MakeSelector(5, true, 3)
	if s.Index() != 5 || !s.IsLDT() || s.RPL() != 3 {
		t.Errorf("selector round trip failed: %v", s)
	}
	if !Selector(2).IsNull() {
		t.Error("index 0 must be null regardless of RPL")
	}
	if MakeSelector(1, false, 0).IsNull() {
		t.Error("index 1 is not null")
	}
}

func TestSegmentLimitCheck(t *testing.T) {
	m, as := testMMU(t)
	// Kernel extension segment: 16 MB limit.
	mapPage(t, as, 0xC800_0000, true, false)
	if _, f := m.Translate(sel(6, 1), 0, 4, Write, 1); f != nil {
		t.Fatalf("in-limit access faulted: %v", f)
	}
	// One past the limit: the segment-limit check that confines
	// Palladium kernel extensions.
	_, f := m.Translate(sel(6, 1), 0x0100_0000, 4, Write, 1)
	if f == nil || f.Kind != GP {
		t.Fatalf("limit violation = %v, want #GP", f)
	}
	// Straddling the limit by one byte must also fault.
	_, f = m.Translate(sel(6, 1), 0x00FF_FFFD, 4, Write, 1)
	if f == nil || f.Kind != GP {
		t.Fatalf("straddling access = %v, want #GP", f)
	}
}

func TestSegmentPrivilegeCheck(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0xC000_1000, true, false)
	// CPL 3 touching kernel data (DPL 0) fails at the segment level.
	_, f := m.Translate(sel(2, 3), 0x1000, 4, Read, 3)
	if f == nil || f.Kind != GP || !strings.Contains(f.Reason, "privilege") {
		t.Fatalf("CPL3 -> kernel data = %v, want privilege #GP", f)
	}
	// Even with RPL 0 in the selector, CPL 3 still fails (max rule).
	_, f = m.Translate(sel(2, 0), 0x1000, 4, Read, 3)
	if f == nil || f.Kind != GP {
		t.Fatalf("CPL3 RPL0 -> kernel data = %v, want #GP", f)
	}
	// CPL 0 succeeds.
	if _, f := m.Translate(sel(2, 0), 0x1000, 4, Write, 0); f != nil {
		t.Fatalf("CPL0 -> kernel data faulted: %v", f)
	}
	// CPL 1 (kernel extension) cannot reach kernel data either.
	_, f = m.Translate(sel(2, 1), 0x1000, 4, Read, 1)
	if f == nil || f.Kind != GP {
		t.Fatalf("CPL1 -> kernel DPL0 data = %v, want #GP", f)
	}
}

func TestNullAndBadSelectors(t *testing.T) {
	m, _ := testMMU(t)
	if _, f := m.Translate(Selector(0), 0, 4, Read, 0); f == nil || f.Kind != GP {
		t.Error("null selector must #GP")
	}
	if _, f := m.Translate(sel(31, 0), 0, 4, Read, 0); f == nil || f.Kind != GP {
		t.Error("empty descriptor must #GP")
	}
	if _, f := m.Translate(MakeSelector(1, true, 0), 0, 4, Read, 0); f == nil || f.Kind != GP {
		t.Error("LDT selector without an LDT must #GP")
	}
}

func TestSegmentTypeChecks(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0x0000_1000, true, true)
	// Write to a code segment.
	if _, f := m.Translate(sel(3, 3), 0x1000, 4, Write, 3); f == nil || f.Kind != GP {
		t.Error("write via code segment must #GP")
	}
	// Execute from a data segment.
	if _, f := m.Translate(sel(4, 3), 0x1000, 4, Execute, 3); f == nil || f.Kind != GP {
		t.Error("fetch from data segment must #GP")
	}
	// Read through a readable code segment is allowed.
	if _, f := m.Translate(sel(3, 3), 0x1000, 4, Read, 3); f != nil {
		t.Errorf("read via readable code segment faulted: %v", f)
	}
	// Execute-only code cannot be read.
	m.GDT.Set(7, Descriptor{Kind: SegCode, Base: 0, Limit: 0xBFFF_FFFF, DPL: 3, Present: true})
	if _, f := m.Translate(sel(7, 3), 0x1000, 4, Read, 3); f == nil || f.Kind != GP {
		t.Error("read from execute-only segment must #GP")
	}
}

func TestNonConformingCodeDPLEqualsCPL(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0x0000_2000, false, true)
	// CPL 2 fetching through a DPL 3 code segment faults: transfers
	// between levels must go through gates.
	if _, f := m.Translate(sel(3, 3), 0x2000, 4, Execute, 2); f == nil || f.Kind != GP {
		t.Error("CPL2 fetch from DPL3 non-conforming code must #GP")
	}
	if _, f := m.Translate(sel(3, 3), 0x2000, 4, Execute, 3); f != nil {
		t.Errorf("CPL3 fetch from DPL3 code faulted: %v", f)
	}
}

func TestPagePrivilegeCheck(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0x0000_3000, true, false) // PPL 0 page in user range
	mapPage(t, as, 0x0000_4000, true, true)  // PPL 1 page

	// The Palladium user-extension check: CPL 3 cannot touch a PPL 0
	// page even though the segment check passes.
	_, f := m.Translate(sel(4, 3), 0x3000, 4, Read, 3)
	if f == nil || f.Kind != PF {
		t.Fatalf("CPL3 -> PPL0 page = %v, want #PF", f)
	}
	// CPL 2 (the promoted extensible application) can.
	if _, f := m.Translate(sel(4, 2), 0x3000, 4, Write, 2); f != nil {
		t.Fatalf("CPL2 -> PPL0 page faulted: %v", f)
	}
	// CPL 3 on a PPL 1 page is fine.
	if _, f := m.Translate(sel(4, 3), 0x4000, 4, Write, 3); f != nil {
		t.Fatalf("CPL3 -> PPL1 page faulted: %v", f)
	}
}

func TestPageWriteProtection(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0x0000_5000, false, true) // read-only PPL 1 (the GOT page)
	if _, f := m.Translate(sel(4, 3), 0x5000, 4, Write, 3); f == nil || f.Kind != PF {
		t.Error("CPL3 write to read-only page must #PF (GOT protection)")
	}
	if _, f := m.Translate(sel(4, 3), 0x5000, 4, Read, 3); f != nil {
		t.Error("CPL3 read of read-only page must succeed")
	}
	// Supervisor write with WP=1 faults; with WP=0 succeeds.
	if _, f := m.Translate(sel(4, 2), 0x5000, 4, Write, 2); f == nil {
		t.Error("supervisor write with WP=1 must fault")
	}
	m.WriteProtect = false
	m.InvalidatePage(0x5000)
	if _, f := m.Translate(sel(4, 2), 0x5000, 4, Write, 2); f != nil {
		t.Errorf("supervisor write with WP=0 faulted: %v", f)
	}
}

func TestNotPresentPage(t *testing.T) {
	m, _ := testMMU(t)
	_, f := m.Translate(sel(4, 3), 0x0000_6000, 4, Read, 3)
	if f == nil || f.Kind != PF || !strings.Contains(f.Reason, "not present") {
		t.Fatalf("unmapped page = %v, want not-present #PF", f)
	}
}

func TestLinearAddressFormation(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0xC800_0000, true, false)
	pa, f := m.Translate(sel(6, 1), 0x123, 4, Read, 1)
	if f != nil {
		t.Fatal(f)
	}
	// Offset 0x123 in a segment based at 0xC8000000 lands in the
	// frame mapped for that linear page, at page offset 0x123.
	want := as.Lookup(0xC800_0000).Frame() | 0x123
	if pa != want {
		t.Errorf("pa = %#x, want %#x", pa, want)
	}
}

func TestTLBCaching(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0x0000_7000, true, true)
	before := m.Clock().Cycles()
	if _, f := m.Translate(sel(4, 3), 0x7000, 4, Read, 3); f != nil {
		t.Fatal(f)
	}
	missCost := m.Clock().Cycles() - before
	if missCost != m.Model().Cost(cycles.TLBMiss) {
		t.Errorf("first access cost %v, want a TLB miss (%v)", missCost, m.Model().Cost(cycles.TLBMiss))
	}
	before = m.Clock().Cycles()
	if _, f := m.Translate(sel(4, 3), 0x7004, 4, Read, 3); f != nil {
		t.Fatal(f)
	}
	if got := m.Clock().Cycles() - before; got != 0 {
		t.Errorf("TLB hit charged %v cycles, want 0", got)
	}
	hits, misses, _ := m.TLB().Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestTLBFlushOnCR3Load(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0x0000_8000, true, true)
	if _, f := m.Translate(sel(4, 3), 0x8000, 4, Read, 3); f != nil {
		t.Fatal(f)
	}
	if m.TLB().Len() == 0 {
		t.Fatal("expected a TLB entry")
	}
	m.LoadCR3(as)
	if m.TLB().Len() != 0 {
		t.Error("CR3 load must flush the TLB")
	}
}

func TestTLBStaleEntryInvalidation(t *testing.T) {
	m, as := testMMU(t)
	mapPage(t, as, 0x0000_9000, true, true)
	if _, f := m.Translate(sel(4, 3), 0x9000, 4, Write, 3); f != nil {
		t.Fatal(f)
	}
	// Change the PPL under the TLB's feet, as init_PL does; without
	// invalidation the stale entry would still allow access.
	as.SetUser(0x9000, false)
	if _, f := m.Translate(sel(4, 3), 0x9000, 4, Write, 3); f != nil {
		t.Fatal("stale TLB entry should still hit (models hardware)")
	}
	m.InvalidatePage(0x9000)
	if _, f := m.Translate(sel(4, 3), 0x9000, 4, Write, 3); f == nil || f.Kind != PF {
		t.Error("after invlpg the PPL0 page must #PF at CPL3")
	}
}

func TestSetUserAndSetWritable(t *testing.T) {
	_, as := testMMU(t)
	mapPage(t, as, 0x0000_A000, true, true)
	if !as.SetUser(0xA000, false) {
		t.Fatal("SetUser on mapped page returned false")
	}
	if as.Lookup(0xA000).User() {
		t.Error("page still PPL1 after SetUser(false)")
	}
	if !as.SetWritable(0xA000, false) {
		t.Fatal("SetWritable on mapped page returned false")
	}
	if as.Lookup(0xA000).Writable() {
		t.Error("page still writable")
	}
	if as.SetUser(0xDEAD_0000, false) {
		t.Error("SetUser on unmapped page must return false")
	}
}

func TestCopyRangeFromIndependence(t *testing.T) {
	_, as := testMMU(t)
	mapPage(t, as, 0x0000_B000, true, false)
	child, err := NewAddressSpace(as.phys, as.alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.CopyRangeFrom(as, 0, 0xBFFF_FFFF); err != nil {
		t.Fatal(err)
	}
	// Same frame, same permissions (fork inheritance).
	if child.Lookup(0xB000) != as.Lookup(0xB000) {
		t.Fatal("child leaf differs from parent")
	}
	// Permission change in the child must not affect the parent.
	child.SetUser(0xB000, true)
	if as.Lookup(0xB000).User() {
		t.Error("parent page table mutated through child")
	}
}

func TestVisitMapped(t *testing.T) {
	_, as := testMMU(t)
	mapPage(t, as, 0x0000_C000, true, true)
	mapPage(t, as, 0x4000_0000, false, false)
	got := map[uint32]bool{}
	as.VisitMapped(func(lin uint32, e PTE) { got[lin] = true })
	if !got[0xC000] || !got[0x4000_0000] || len(got) != 2 {
		t.Errorf("VisitMapped saw %v", got)
	}
}

func TestPTERoundTripProperty(t *testing.T) {
	f := func(frame uint32, p, w, u bool) bool {
		frame &^= uint32(mem.PageMask)
		e := MakePTE(frame, p, w, u)
		return e.Frame() == frame && e.Present() == p && e.Writable() == w && e.User() == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslateConsistencyProperty(t *testing.T) {
	// For any mapped page and in-page offset, translation preserves
	// the page offset and lands in the mapped frame.
	m, as := testMMU(t)
	mapPage(t, as, 0x0001_0000, true, true)
	frame := as.Lookup(0x0001_0000).Frame()
	f := func(off uint16) bool {
		o := uint32(off) % (mem.PageSize - 4)
		pa, fault := m.Translate(sel(4, 3), 0x0001_0000+o, 4, Read, 3)
		return fault == nil && pa == frame|o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCPL3NeverReachesSupervisorPagesProperty(t *testing.T) {
	// Property: no CPL-3 access to any supervisor page succeeds, for
	// any offset and access type — the invariant Palladium's user
	// extension confinement rests on.
	m, as := testMMU(t)
	base := uint32(0x0002_0000)
	for i := uint32(0); i < 8; i++ {
		mapPage(t, as, base+i*mem.PageSize, true, false)
	}
	f := func(off uint32, writeAccess bool) bool {
		o := off % (8*mem.PageSize - 4)
		acc := Read
		if writeAccess {
			acc = Write
		}
		_, fault := m.Translate(sel(4, 3), base+o, 4, acc, 3)
		return fault != nil && fault.Kind == PF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDescriptorContains(t *testing.T) {
	d := Descriptor{Limit: 0xFFF}
	cases := []struct {
		off, size uint32
		want      bool
	}{
		{0, 1, true},
		{0xFFF, 1, true},
		{0xFFF, 2, false},
		{0x1000, 1, false},
		{0xFFC, 4, true},
		{0xFFD, 4, false},
		{0xFFFF_FFFF, 4, false}, // wraparound
	}
	for _, c := range cases {
		if got := d.Contains(c.off, c.size); got != c.want {
			t.Errorf("Contains(%#x,%d) = %v, want %v", c.off, c.size, got, c.want)
		}
	}
}

func TestTableAllocAndClear(t *testing.T) {
	tb := NewTable("t", 4)
	tb.Set(1, Descriptor{Kind: SegData, Present: true})
	if d := tb.Get(1); d.Kind != SegData || !d.Present {
		t.Fatalf("installed descriptor reads back as %+v", *d)
	}
	tb.Set(1, Descriptor{})
	if *tb.Get(1) != (Descriptor{}) {
		t.Error("a cleared index should hold the null descriptor")
	}
	if tb.Get(0) != nil || tb.Get(99) != nil {
		t.Error("Get must return nil out of range / for entry 0")
	}
}

// TestTableCopyOnWrite: clones, snapshots and restored tables share one
// descriptor slice until a write, and a write on any side never shows
// through another.
func TestTableCopyOnWrite(t *testing.T) {
	data := func(base uint32) Descriptor { return Descriptor{Kind: SegData, Base: base, Present: true} }
	tb := NewTable("t", 4)
	tb.Set(1, data(1))
	c := &Table{name: "t"} // as MMU.Clone builds a clone's table
	c.RestoreEntries(tb.Snapshot())
	if &c.entries[0] != &tb.entries[0] {
		t.Fatal("a clone copied the descriptors instead of sharing them")
	}
	c.Set(1, data(2))
	tb.Set(2, data(3))
	if tb.Get(1).Base != 1 || c.Get(2).Kind != SegNull {
		t.Error("write through one table showed through its clone")
	}
	if c.Get(1).Base != 2 || tb.Get(2).Base != 3 {
		t.Error("own writes lost")
	}

	saved := tb.Snapshot()
	tb.Set(1, Descriptor{})
	if saved[1].Base != 1 {
		t.Error("a clear after Snapshot modified the saved descriptors")
	}
	for round := 0; round < 2; round++ {
		tb.RestoreEntries(saved)
		if tb.Get(1).Base != 1 {
			t.Fatalf("round %d: restore lost descriptor 1", round)
		}
		tb.Set(1, data(9)) // must not write through to saved
	}
	if saved[1].Base != 1 {
		t.Error("Set after RestoreEntries modified the saved descriptors")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Kind: GP, Sel: sel(2, 3), Off: 0x10, Access: Read, CPL: 3, Reason: "privilege"}
	msg := f.Error()
	for _, want := range []string{"#GP", "read", "privilege", "cpl 3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("fault message %q missing %q", msg, want)
		}
	}
}
