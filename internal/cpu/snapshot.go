package cpu

import (
	"maps"
	"reflect"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// MachineSnapshot captures everything a Machine needs to resume
// bit-identically: its state value, the clock, the MMU state
// (descriptor tables, TLB contents and statistics) and the physical
// memory image (copy-on-write, so a snapshot is O(chunks), not
// O(bytes)).
//
// The decoded-block cache and the trace-superblock registry are
// deliberately NOT captured: both are pure wall-clock accelerators with
// no simulated side effects, and restore invalidates them wholesale
// (clearBlockCache clears traces first, and the MMU generation bump
// retires anything decoded on the abandoned timeline) so stale
// translations can never execute. A restored machine re-detects heat
// and rebuilds its traces with bit-identical simulated metrics.
//
// The installed-code map — one entry per instruction, the only large
// machine table — is captured by reference and marked shared; the
// machine copies it off only if code is installed or removed while a
// snapshot holds it. A snapshot/restore cycle around a run that
// installs no code (the InvokeTx fast path) therefore costs O(small),
// matching the COW frame store.
type MachineSnapshot struct {
	phys  *mem.Snapshot
	mmu   *mmu.MMUState
	clock float64
	state machineState
}

// Snapshot captures the machine: CPU, MMU, counters, clock and the COW
// physical memory image. It charges no simulated cycles and perturbs
// no simulated metric, so a snapshot can be taken mid-run.
func (m *Machine) Snapshot() *MachineSnapshot {
	m.shareCode()
	return &MachineSnapshot{
		phys:  m.Phys.Snapshot(),
		mmu:   m.MMU.SaveState(),
		clock: m.Clock.Cycles(),
		state: m.machineState.copy(),
	}
}

// Restore rewinds the machine to a snapshot. Memory, translation
// state, TLB statistics, the clock and every architectural register
// return to exactly their captured values, so a restored run is
// bit-identical to one that never diverged. The decoded-block cache is
// dropped (rebuilt lazily; wall-clock only). The snapshot remains
// valid for further restores.
func (m *Machine) Restore(s *MachineSnapshot) {
	m.Phys.Restore(s.phys) // fires the MMU generation bump
	m.MMU.RestoreState(s.mmu)
	m.Clock.SetCycles(s.clock)
	m.machineState = s.state.copy()
	m.shareCode() // the snapshot still holds the code map
	m.recomputeDispatchHints()
	m.clearBlockCache()
}

// Release frees the snapshot's hold on the COW frame store so
// sole-owner frames become writable in place again.
func (s *MachineSnapshot) Release() { s.phys.Release() }

// Clone copies the machine onto already-cloned physical memory, MMU
// and clock (the caller clones those first so it can rebind the layers
// above them). The state value carries over, with the code map shared
// copy-on-write between source and clone: the first side to
// install/remove code splits its own copy off (the flag is per-machine,
// so each owner goroutine touches only its own). The decoded-block
// cache and trace registry start empty; the clone re-detects heat under
// the source's TraceThreshold, with bit-identical simulated metrics.
//
// The services map is copied as-is: handlers receive the executing
// machine as an argument, so capture-free handlers work unchanged on
// the clone. Handlers that close over owner state (the kernel's
// syscall entries) must be re-registered by that owner; OnTick is left
// nil for the same reason.
func (m *Machine) Clone(phys *mem.Physical, mu *mmu.MMU, clock *cycles.Clock) *Machine {
	m.shareCode()
	c := &Machine{
		Phys:  phys,
		MMU:   mu,
		Clock: clock,
		Model: m.Model,

		machineState:   m.machineState.copy(),
		TraceThreshold: m.TraceThreshold,
	}
	c.codeShared.Store(true)
	c.recomputeDispatchHints()
	return c
}

// ResetTo rewinds the machine in place to t, the machine it was cloned
// from: its state value, with the IDT, breakpoint and service maps
// refilled rather than reallocated and the code map shared with t
// again, and the clock. Memory and the MMU are their own layers; the
// owner resets them too. OnTick is left alone and the service handlers
// are t's: as after Clone, owners re-bind the handlers that close over
// them (the kernel's two endpoints).
//
// The decoded-block cache and traces survive when the code map, the
// breakpoint and service addresses and the IDT are t's: blocks are
// decoded from the code map, end at breakpoints and endpoints, and
// follow the live page tables, so none of the rewound memory makes
// them stale. Their segment checks are guarded by the MMU's segment
// generation, which MMU.ResetTo advances when a descriptor table
// differed. Otherwise the cache is dropped, as after Restore. ResetTo
// only reads t.
func (m *Machine) ResetTo(t *Machine) {
	keep := sameMap(m.code, t.code) && sameKeys(m.breaks, t.breaks) &&
		sameKeys(m.services, t.services) && maps.Equal(m.IDT, t.IDT)
	idt, breaks, services := m.IDT, m.breaks, m.services
	m.machineState = t.machineState
	m.IDT, m.breaks, m.services = refill(idt, t.IDT), refill(breaks, t.breaks), refill(services, t.services)
	t.shareCode()
	m.codeShared.Store(true)
	m.TraceThreshold = t.TraceThreshold
	m.Clock.SetCycles(t.Clock.Cycles())
	m.recomputeDispatchHints()
	if !keep {
		m.clearBlockCache()
	}
}

// sameMap reports whether a and b are the same map, not merely equal.
func sameMap[K comparable, V any](a, b map[K]V) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// sameKeys reports whether a and b hold the same key set.
func sameKeys[V any](a, b map[uint32]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// refill makes dst a copy of src, reusing dst's storage.
func refill[K comparable, V any](dst, src map[K]V) map[K]V {
	if dst == nil {
		return maps.Clone(src)
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}
