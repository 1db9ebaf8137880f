// Snapshot-to-bytes serialization of the translation state. The MMU's
// on-wire view is logical: descriptor-table contents, TLB contents and
// counters, the current CR3 and the control bits. The translation
// generations (gen, segGen) are deliberately NOT serialized — they are
// monotonic so decoded blocks from an abandoned timeline can never
// tag-match again, and a load advances them through the
// RestoreEntries mutate hook, as ResetTo does.
package mmu

import (
	"slices"

	"repro/internal/mem"
)

// SaveDescriptor appends one descriptor (shared with the cpu layer,
// which serializes IDT gates).
func SaveDescriptor(e *mem.Enc, d *Descriptor) {
	e.U8(uint8(d.Kind))
	e.U32(d.Base)
	e.U32(d.Limit)
	e.U8(uint8(d.DPL))
	e.Bool(d.Present)
	e.Bool(d.Writable)
	e.Bool(d.Readable)
	e.Bool(d.Conforming)
	e.U16(uint16(d.GateSel))
	e.U32(d.GateOff)
}

// LoadDescriptor decodes one descriptor, validating the enumerations.
func LoadDescriptor(d *mem.Dec) Descriptor {
	out := Descriptor{}
	kind := d.U8()
	if kind > uint8(SegTSS) {
		d.Failf("descriptor kind %d", kind)
		return out
	}
	out.Kind = SegKind(kind)
	out.Base = d.U32()
	out.Limit = d.U32()
	dpl := d.U8()
	if dpl > 3 {
		d.Failf("descriptor DPL %d", dpl)
		return out
	}
	out.DPL = int(dpl)
	out.Present = d.Bool()
	out.Writable = d.Bool()
	out.Readable = d.Bool()
	out.Conforming = d.Bool()
	out.GateSel = Selector(d.U16())
	out.GateOff = d.U32()
	return out
}

// SaveTo appends the table's descriptors.
func (t *Table) SaveTo(e *mem.Enc) {
	e.U32(uint32(len(t.entries)))
	for i := range t.entries {
		SaveDescriptor(e, &t.entries[i])
	}
}

// loadEntries decodes a table image of the expected size.
func loadTableEntries(d *mem.Dec, what string, want int) []Descriptor {
	n := d.Len(what+" descriptor", 1<<13)
	if d.Err() != nil {
		return nil
	}
	if want >= 0 && n != want {
		d.Failf("%s has %d descriptors, target table holds %d", what, n, want)
		return nil
	}
	out := make([]Descriptor, n)
	for i := range out {
		out[i] = LoadDescriptor(d)
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// SaveTo appends the TLB's logical contents: the statistics counters
// and every live translation in ascending virtual-page order. The
// epoch — an internal invalidation trick — is not serialized; two TLBs
// with identical live entries and counters serialize identically.
func (t *TLB) SaveTo(e *mem.Enc) {
	e.U64(t.hits)
	e.U64(t.misses)
	e.U64(t.flushes)
	e.U32(uint32(t.live))
	ents := make([]uint64, 0, t.live)
	for _, s := range t.slots {
		if vpn, ok := liveVPN(s, t.epoch); ok {
			ents = append(ents, uint64(vpn)<<32|uint64(uint32(s)))
		}
	}
	slices.Sort(ents) // VPNs are unique, so this is VPN order
	for _, ent := range ents {
		e.U32(uint32(ent >> 32)) // vpn
		e.U32(uint32(ent))       // frame | flag bits
	}
}

// loadTLB decodes a TLB image into a fresh TLB.
func loadTLB(d *mem.Dec) *TLB {
	t := NewTLB()
	t.hits = d.U64()
	t.misses = d.U64()
	t.flushes = d.U64()
	n := d.Len("tlb entry", 1<<tlbVPNBits)
	last := -1
	for i := 0; i < n; i++ {
		vpn := d.U32()
		lo := d.U32()
		if d.Err() != nil {
			return nil
		}
		if int(vpn) <= last {
			d.Failf("tlb entry %#x out of order", vpn)
			return nil
		}
		if vpn >= 1<<tlbVPNBits {
			d.Failf("tlb vpn %#x out of range", vpn)
			return nil
		}
		if tlbEntry(lo)&^tlbEntryBits != 0 {
			d.Failf("tlb entry %#x has invalid flag bits %#x", vpn, lo)
			return nil
		}
		last = int(vpn)
		t.insert(vpn<<mem.PageShift, tlbEntry(lo))
	}
	if d.Err() != nil {
		return nil
	}
	return t
}

// SaveTo appends the MMU state: control bits, GDT, LDT, TLB and the
// current address space's CR3.
func (m *MMU) SaveTo(e *mem.Enc) {
	e.Bool(m.WriteProtect)
	m.GDT.SaveTo(e)
	e.Bool(m.LDT != nil)
	if m.LDT != nil {
		m.LDT.SaveTo(e)
	}
	m.tlb.SaveTo(e)
	e.Bool(m.space != nil)
	if m.space != nil {
		e.U32(m.space.CR3())
	}
}

// LoadFrom decodes a SaveTo image and applies it. adopt resolves a
// serialized CR3 to the address-space object the restored machine
// should consider current (the kernel maps it to the owning process's
// AS so pointer identity matches a live machine's). Everything is
// decoded and validated before anything is applied; on error the MMU
// is untouched. The GDT restore fires the mutate hook, advancing both
// generations.
func (m *MMU) LoadFrom(d *mem.Dec, adopt func(cr3 uint32) *AddressSpace) error {
	wp := d.Bool()
	gdt := loadTableEntries(d, "gdt", m.GDT.Len())
	var ldt []Descriptor
	if d.Bool() {
		ldt = loadTableEntries(d, "ldt", -1)
	}
	if d.Err() != nil {
		return d.Err()
	}
	tlb := loadTLB(d)
	hasSpace := d.Bool()
	var cr3 uint32
	if hasSpace {
		cr3 = d.U32()
		if cr3&uint32(mem.PageMask) != 0 {
			d.Failf("cr3 %#x not page aligned", cr3)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}

	m.GDT.RestoreEntries(gdt) // fires bumpSegGen
	if ldt == nil {
		m.LDT = nil
	} else {
		m.LDT = &Table{name: "ldt", entries: ldt, onMutate: m.bumpSegGen}
	}
	m.tlb.restoreFrom(tlb)
	m.WriteProtect = wp
	if hasSpace {
		m.space = adopt(cr3)
	} else {
		m.space = nil
	}
	return nil
}
