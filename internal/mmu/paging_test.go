package mmu

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/mem"
)

// Word-at-a-time references for the bulk directory operations: one
// Physical.Read32 and one Physical.Write32 per entry. The bulk versions
// in paging.go must leave exactly the memory these leave.

func refShareRangeFrom(dst, src *AddressSpace, start, end uint32) error {
	for pdi := start >> 22; pdi <= end>>22; pdi++ {
		dst.setPDE(pdi, src.pde(pdi))
	}
	return nil
}

func refCopyRangeFrom(dst, src *AddressSpace, start, end uint32) error {
	for pdi := start >> 22; pdi <= end>>22; pdi++ {
		e := src.pde(pdi)
		if !e.Present() {
			continue
		}
		pt, err := dst.ensurePT(pdi)
		if err != nil {
			return err
		}
		for pti := uint32(0); pti < 1024; pti++ {
			dst.phys.Write32(pt+pti*4, src.phys.Read32(e.Frame()+pti*4))
		}
	}
	return nil
}

// refVisitMapped captures each present table before its callbacks run,
// as VisitMapped documents.
func refVisitMapped(as *AddressSpace, fn func(linear uint32, e PTE)) {
	for pdi := uint32(0); pdi < 1024; pdi++ {
		pde := as.pde(pdi)
		if !pde.Present() {
			continue
		}
		var table [1024]PTE
		for pti := range table {
			table[pti] = PTE(as.phys.Read32(pde.Frame() + uint32(pti)*4))
		}
		for pti, leaf := range table {
			if leaf.Present() {
				fn(pdi<<22|uint32(pti)<<12, leaf)
			}
		}
	}
}

// edgePages are the source mappings: both ends of the user half, both
// sides of the 0xC0000000 kernel boundary, the kernel heap and the very
// top of the linear space. Some share a page table with a neighbour.
var edgePages = []uint32{
	0x0000_0000, 0x0000_1000, 0x0040_1000, 0x4000_0000, 0xBFFF_F000,
	0xC000_0000, 0xC010_0000, 0xC400_0000, 0xFFFF_E000, 0xFFFF_F000,
}

// pagingWorld is one memory holding a populated source address space
// and a destination that already has entries of its own.
type pagingWorld struct {
	phys     *mem.Physical
	alloc    *mem.FrameAllocator
	src, dst *AddressSpace

	// parent and parentPrint are set when the world is a clone: the
	// memory it was cloned from, and that memory's fingerprint at the
	// moment of cloning. snap and snapPrint are the same for a world
	// operated on under a live snapshot.
	parent      *mem.Physical
	parentPrint uint64
	snap        *mem.Snapshot
	snapPrint   uint64
}

func newPagingWorld(t *testing.T) *pagingWorld {
	t.Helper()
	phys := mem.NewPhysical()
	alloc := mem.NewFrameAllocator(0x0010_0000, 1024*mem.PageSize)
	w := &pagingWorld{phys: phys, alloc: alloc}
	var err error
	if w.src, err = NewAddressSpace(phys, alloc); err != nil {
		t.Fatal(err)
	}
	for i, lin := range edgePages {
		if err := w.src.Map(lin, 0x4000_0000+uint32(i)*mem.PageSize, i%2 == 0, i%3 != 0); err != nil {
			t.Fatal(err)
		}
	}
	if w.dst, err = NewAddressSpace(phys, alloc); err != nil {
		t.Fatal(err)
	}
	// The destination's own tables lie inside the half-space ranges and
	// outside the single-entry ones; one shares its directory slot with
	// a source table, so CopyRangeFrom copies over an existing table.
	for _, lin := range []uint32{0x0080_0000, 0x4000_5000, 0xE000_0000} {
		if err := w.dst.Map(lin, 0x5000_0000, true, true); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// share puts the world's frames under copy-on-write sharing: "snapshot"
// takes a live snapshot of its memory, "clone" moves the world onto a
// Physical.Clone of it, and "private" leaves it alone.
func (w *pagingWorld) share(mode string) *pagingWorld {
	switch mode {
	case "snapshot":
		w.snapPrint = w.phys.Fingerprint()
		w.snap = w.phys.Snapshot()
	case "clone":
		c := &pagingWorld{phys: w.phys.Clone(), alloc: w.alloc.Clone(), parent: w.phys, parentPrint: w.phys.Fingerprint()}
		c.src = AdoptAddressSpace(c.phys, c.alloc, w.src.CR3())
		c.dst = AdoptAddressSpace(c.phys, c.alloc, w.dst.CR3())
		return c
	}
	return w
}

// checkShared verifies that the operation wrote only through
// copy-on-write splits: the clone's parent and the snapshot still hold
// the bytes they held before it.
func (w *pagingWorld) checkShared(t *testing.T) {
	t.Helper()
	if w.parent != nil && w.parent.Fingerprint() != w.parentPrint {
		t.Error("operation on the clone changed its parent's memory")
	}
	if w.snap != nil {
		w.phys.Restore(w.snap)
		if w.phys.Fingerprint() != w.snapPrint {
			t.Error("operation changed the snapshot's memory")
		}
	}
}

// tableBytes is the directory of as followed by every present page
// table, in directory order.
func tableBytes(as *AddressSpace) []byte {
	out := as.phys.ReadBytes(as.pdBase, mem.PageSize)
	for pdi := uint32(0); pdi < 1024; pdi++ {
		if e := as.pde(pdi); e.Present() {
			out = append(out, as.phys.ReadBytes(e.Frame(), mem.PageSize)...)
		}
	}
	return out
}

// sameMemory compares a world after the bulk operation with its twin
// after the reference.
func sameMemory(t *testing.T, got, want *pagingWorld) {
	t.Helper()
	if g, w := got.phys.FrameCount(), want.phys.FrameCount(); g != w {
		t.Errorf("FrameCount %d, reference %d", g, w)
	}
	if g, w := got.phys.Fingerprint(), want.phys.Fingerprint(); g != w {
		t.Errorf("Fingerprint %#x, reference %#x", g, w)
	}
	_, gc, _ := got.phys.COWStats()
	_, wc, _ := want.phys.COWStats()
	if gc != wc {
		t.Errorf("%d copy-on-write frame copies, reference %d", gc, wc)
	}
	if g, w := got.alloc.Available(), want.alloc.Available(); g != w {
		t.Errorf("%d frames available, reference %d", g, w)
	}
	if !bytes.Equal(tableBytes(got.src), tableBytes(want.src)) {
		t.Error("source directory or page tables differ from the reference")
	}
	if !bytes.Equal(tableBytes(got.dst), tableBytes(want.dst)) {
		t.Error("destination directory or page tables differ from the reference")
	}
}

var shareModes = []string{"private", "snapshot", "clone"}

func TestBulkDirectoryOpsMatchReference(t *testing.T) {
	ranges := []struct {
		name       string
		start, end uint32
	}{
		{"kernel-half", 0xC000_0000, 0xFFFF_F000},
		{"user-half", 0, 0xBFFF_FFFF},
		{"whole-space", 0, 0xFFFF_FFFF},
		{"first-kernel-entry", 0xC000_0000, 0xC000_0000},
		{"kernel-heap-entry", 0xC400_0000, 0xC400_0000},
		{"top-entry", 0xFFFF_F000, 0xFFFF_F000},
		{"last-user-entry", 0xBFFF_F000, 0xBFFF_F000},
		{"absent-entry", 0x8000_0000, 0x8000_0000},
	}
	type op func(dst, src *AddressSpace, start, end uint32) error
	ops := []struct {
		name      string
		bulk, ref op
	}{
		{"ShareRangeFrom", func(dst, src *AddressSpace, start, end uint32) error {
			dst.ShareRangeFrom(src, start, end)
			return nil
		}, refShareRangeFrom},
		{"CopyRangeFrom", (*AddressSpace).CopyRangeFrom, refCopyRangeFrom},
	}
	for _, o := range ops {
		for _, r := range ranges {
			for _, mode := range shareModes {
				t.Run(o.name+"/"+r.name+"/"+mode, func(t *testing.T) {
					run := func(f op) *pagingWorld {
						w := newPagingWorld(t).share(mode)
						if err := f(w.dst, w.src, r.start, r.end); err != nil {
							t.Fatal(err)
						}
						return w
					}
					got, want := run(o.bulk), run(o.ref)
					sameMemory(t, got, want)
					got.checkShared(t)
				})
			}
		}
	}
}

func TestVisitMappedMatchesReference(t *testing.T) {
	type visit struct {
		linear uint32
		e      PTE
	}
	for _, mode := range shareModes {
		t.Run(mode, func(t *testing.T) {
			// The callback demotes writable pages as InitPL does, so a
			// shared table is split mid-scan.
			scan := func(w *pagingWorld, visitor func(*AddressSpace, func(uint32, PTE))) []visit {
				var seq []visit
				visitor(w.src, func(lin uint32, e PTE) {
					seq = append(seq, visit{lin, e})
					if e.Writable() {
						w.src.SetUser(lin, false)
					}
				})
				return seq
			}
			got, want := newPagingWorld(t).share(mode), newPagingWorld(t).share(mode)
			gotSeq := scan(got, (*AddressSpace).VisitMapped)
			wantSeq := scan(want, refVisitMapped)
			if !slices.Equal(gotSeq, wantSeq) {
				t.Errorf("visited %x, reference %x", gotSeq, wantSeq)
			}
			if len(gotSeq) != len(edgePages) {
				t.Errorf("visited %d mappings, want %d", len(gotSeq), len(edgePages))
			}
			sameMemory(t, got, want)
			got.checkShared(t)
		})
	}
}
