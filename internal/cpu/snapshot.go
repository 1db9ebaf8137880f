package cpu

import (
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
	m.codeShared = true
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
	m.codeShared = true // the snapshot still holds the code map
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
	m.codeShared = true
	c := &Machine{
		Phys:  phys,
		MMU:   mu,
		Clock: clock,
		Model: m.Model,

		machineState:   m.machineState.copy(),
		codeShared:     true,
		TraceThreshold: m.TraceThreshold,
	}
	c.recomputeDispatchHints()
	return c
}
