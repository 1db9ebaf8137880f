// Package mmu models the Intel x86 virtual memory architecture as
// described in Section 3 of the paper: variable-length segments with a
// 4-level privilege ring selected through GDT/LDT descriptors, plus
// two-level page tables with a 2-level page privilege (user/supervisor)
// and read/write permission bits, fronted by a TLB that is flushed on
// every CR3 (page-table base) load.
//
// Every memory access of the simulated CPU goes through
// MMU.Translate, which performs, in hardware order:
//
//  1. segment present / type check,
//  2. segment-level privilege check (max(CPL,RPL) <= DPL for data),
//  3. segment limit check,
//  4. linear address formation (base + offset),
//  5. page-level translation (TLB, then two-level walk),
//  6. page privilege check (CPL 3 cannot touch supervisor/PPL-0 pages),
//  7. page write-permission check.
//
// Violations surface as *Fault values mirroring x86 exception classes
// (#GP for segment-level violations, #PF for page-level ones).
package mmu

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Selector is an x86 segment selector: a 13-bit descriptor-table index,
// a table-indicator bit (0 = GDT, 1 = LDT), and a 2-bit requested
// privilege level.
type Selector uint16

// MakeSelector builds a selector from a table index, table indicator
// and requested privilege level.
func MakeSelector(index int, ldt bool, rpl int) Selector {
	s := Selector(index<<3) | Selector(rpl&3)
	if ldt {
		s |= 1 << 2
	}
	return s
}

// Index returns the descriptor-table index.
func (s Selector) Index() int { return int(s >> 3) }

// IsLDT reports whether the selector refers to the LDT.
func (s Selector) IsLDT() bool { return s&(1<<2) != 0 }

// RPL returns the requested privilege level.
func (s Selector) RPL() int { return int(s & 3) }

// IsNull reports whether the selector is the null selector (index 0 in
// the GDT); loading a null selector into CS/SS faults, and using one
// for data access faults.
func (s Selector) IsNull() bool { return s&^3 == 0 }

// String formats the selector as index:table:rpl.
func (s Selector) String() string {
	t := "gdt"
	if s.IsLDT() {
		t = "ldt"
	}
	return fmt.Sprintf("%d(%s,rpl%d)", s.Index(), t, s.RPL())
}

// SegKind distinguishes descriptor types.
type SegKind int

const (
	// SegNull marks an unused descriptor slot.
	SegNull SegKind = iota
	// SegCode is an executable code segment.
	SegCode
	// SegData is a readable/writable data or stack segment.
	SegData
	// SegCallGate is a call-gate descriptor (Section 3.2).
	SegCallGate
	// SegIntGate is an interrupt-gate descriptor.
	SegIntGate
	// SegTSS is a task-state-segment descriptor.
	SegTSS
)

func (k SegKind) String() string {
	switch k {
	case SegNull:
		return "null"
	case SegCode:
		return "code"
	case SegData:
		return "data"
	case SegCallGate:
		return "callgate"
	case SegIntGate:
		return "intgate"
	case SegTSS:
		return "tss"
	}
	return fmt.Sprintf("SegKind(%d)", int(k))
}

// Descriptor is a segment or gate descriptor, the in-simulator
// equivalent of the 8-byte GDT/LDT entry in Figure 1 of the paper.
type Descriptor struct {
	Kind    SegKind
	Base    uint32 // segment start linear address
	Limit   uint32 // highest valid offset (inclusive)
	DPL     int    // descriptor privilege level, 0 (most) .. 3 (least)
	Present bool
	// Writable applies to data segments; Readable to code segments
	// (execute-only code cannot be read as data).
	Writable bool
	Readable bool
	// Conforming code segments execute at the caller's CPL.
	Conforming bool

	// Gate fields (SegCallGate / SegIntGate): control transfers
	// through the gate land at GateSel:GateOff.
	GateSel Selector
	GateOff uint32
}

// Contains reports whether [off, off+size-1] lies within the segment
// limit. Size must be >= 1.
func (d *Descriptor) Contains(off uint32, size uint32) bool {
	if size == 0 {
		size = 1
	}
	// Guard against wraparound: off+size-1 must not overflow and must
	// be within the limit.
	end := off + size - 1
	if end < off {
		return false
	}
	return end <= d.Limit
}

// Table is a descriptor table (GDT or LDT).
//
// The entries slice is shared copy-on-write: Clone and Snapshot hand
// out the same slice and mark it shared, and Set — the only in-place
// writer — copies it before its first write. A clone or a saved state
// therefore costs no descriptor copy until one side actually changes a
// descriptor, which a served request never does.
type Table struct {
	name    string
	entries []Descriptor

	// shared is set once entries may be referenced by another table or
	// a saved state; Set copies them before writing and clears it. It
	// is atomic because clones of one template may be forked from
	// different goroutines, each marking the template's slice shared.
	shared atomic.Bool

	// onMutate, when set (by the MMU that consults this table),
	// runs after every Set/Clear so cached decode state keyed on
	// descriptor contents can be invalidated.
	onMutate func()
}

// NewTable returns a table with capacity n (entry 0 is the null
// descriptor and is never valid).
func NewTable(name string, n int) *Table {
	return &Table{name: name, entries: make([]Descriptor, n)}
}

// Set installs a descriptor at index i, first copying the entries off
// when they are shared with a clone or a saved state.
func (t *Table) Set(i int, d Descriptor) {
	if i <= 0 || i >= len(t.entries) {
		panic(fmt.Sprintf("mmu: %s index %d out of range", t.name, i))
	}
	if t.shared.Load() {
		t.entries = slices.Clone(t.entries)
		t.shared.Store(false)
	}
	t.entries[i] = d
	if t.onMutate != nil {
		t.onMutate()
	}
}

// Get returns the descriptor at index i, or nil if out of range. The
// descriptor may be shared with clones and saved states: read it, and
// change it only through Set.
func (t *Table) Get(i int) *Descriptor {
	if i <= 0 || i >= len(t.entries) {
		return nil
	}
	return &t.entries[i]
}

// AllocIndex returns the first free (null) index, or -1 when full.
func (t *Table) AllocIndex() int {
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].Kind == SegNull && !t.entries[i].Present {
			return i
		}
	}
	return -1
}

// Clear resets index i to the null descriptor.
func (t *Table) Clear(i int) {
	if i <= 0 || i >= len(t.entries) {
		return
	}
	t.Set(i, Descriptor{})
}

// Len returns the table capacity.
func (t *Table) Len() int { return len(t.entries) }

// Snapshot returns the table's descriptors, shared copy-on-write: the
// table copies them before its next Set, so the returned slice stays
// frozen. Callers must not modify it.
func (t *Table) Snapshot() []Descriptor {
	t.shared.Store(true)
	return t.entries
}

// RestoreEntries rewinds the table to a snapshot produced by Snapshot
// (or a decoded image), adopting the slice copy-on-write, and fires
// onMutate once (descriptor contents may have changed, so any decode
// state keyed on them must be invalidated).
func (t *Table) RestoreEntries(entries []Descriptor) {
	if len(entries) != len(t.entries) {
		panic(fmt.Sprintf("mmu: %s snapshot size %d != table size %d", t.name, len(entries), len(t.entries)))
	}
	t.entries = entries
	t.shared.Store(true)
	if t.onMutate != nil {
		t.onMutate()
	}
}

// Clone derives the table for a cloned machine, sharing the entries
// copy-on-write. The clone's onMutate is left unset; the owning MMU
// rebinds it.
func (t *Table) Clone() *Table {
	c := &Table{name: t.name, entries: t.Snapshot()}
	c.shared.Store(true)
	return c
}

// Access describes the kind of memory access being checked.
type Access int

const (
	// Read is a data read.
	Read Access = iota
	// Write is a data write.
	Write
	// Execute is an instruction fetch.
	Execute
)

func (a Access) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Execute:
		return "execute"
	}
	return fmt.Sprintf("Access(%d)", int(a))
}

// FaultKind mirrors the x86 exception classes relevant to protection.
type FaultKind int

const (
	// GP is a general-protection fault (segment-level violation:
	// limit, privilege, type, or null selector).
	GP FaultKind = iota
	// PF is a page fault (not-present page, page-privilege violation,
	// or write to a read-only page).
	PF
	// SS is a stack-segment fault.
	SS
	// NP is a segment-not-present fault.
	NP
	// UD is an invalid-opcode fault.
	UD
)

func (k FaultKind) String() string {
	switch k {
	case GP:
		return "#GP"
	case PF:
		return "#PF"
	case SS:
		return "#SS"
	case NP:
		return "#NP"
	case UD:
		return "#UD"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault describes a protection violation or translation failure.
type Fault struct {
	Kind   FaultKind
	Sel    Selector // segment involved (segment-level faults)
	Off    uint32   // offending offset within the segment
	Linear uint32   // offending linear address (page-level faults)
	Access Access
	CPL    int
	Reason string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("%s: %s access at sel %s off %#x (linear %#x, cpl %d): %s",
		f.Kind, f.Access, f.Sel, f.Off, f.Linear, f.CPL, f.Reason)
}
