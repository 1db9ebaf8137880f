package cpu

import (
	"maps"
	"reflect"

	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// Clone copies the machine onto already-cloned physical memory, MMU
// and clock (the caller clones those first so it can rebind the layers
// above them): an empty machine reset to this one (ResetTo), so the
// state value carries over, with the code map shared copy-on-write
// between source and clone: the first side to install/remove code
// splits its own copy off (the flag is per-machine, so each owner
// goroutine touches only its own). The decoded-block cache, and with it
// every trace, starts empty; the clone re-detects heat under the
// source's TraceThreshold, with bit-identical simulated metrics.
//
// The services map is copied as-is: handlers receive the executing
// machine as an argument, so capture-free handlers work unchanged on
// the clone. Handlers that close over owner state must be
// re-registered by that owner; OnTick and Owner are left nil for the
// same reason.
func (m *Machine) Clone(phys *mem.Physical, mu *mmu.MMU, clock *cycles.Clock) *Machine {
	c := &Machine{Phys: phys, MMU: mu, Clock: clock, Model: m.Model, blocks: &noBlocks}
	c.ResetTo(m)
	return c
}

// ResetTo rewinds the machine in place to t, either the machine it was
// cloned from or a frozen clone of itself (a transaction's rollback,
// core.System.Tx): its state value, with the IDT, breakpoint and
// service maps refilled rather than reallocated and the code map shared
// with t again, and the clock. Memory and the MMU are their own layers;
// the owner resets them too. OnTick and Owner are left alone and the
// service handlers are t's: owners re-bind the handlers that close
// over them. An empty machine gets its maps here.
//
// The decoded-block cache and traces survive when the code map, the
// breakpoint and service addresses and the IDT are t's: blocks are
// decoded from the code map, end at breakpoints and endpoints, and
// follow the live page tables, so none of the rewound memory makes
// them stale. Their segment checks are guarded by the MMU's segment
// generation, which MMU.ResetTo advances when a descriptor table
// differed. Otherwise the cache is dropped. ResetTo only reads t.
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
