package kernel

import (
	"maps"

	"repro/internal/mmu"
)

// spaceFor returns the address-space object for cr3: the one owned by
// a process in procs, the kernel template, or a fresh wrapper, so the
// MMU's current space keeps pointer identity with its owner.
func (k *Kernel) spaceFor(procs map[int]*Process, cr3 uint32) *mmu.AddressSpace {
	for _, p := range procs {
		if p.AS.CR3() == cr3 {
			return p.AS
		}
	}
	if cr3 == k.kernelTemplate.CR3() {
		return k.kernelTemplate
	}
	return mmu.AdoptAddressSpace(k.Phys, k.Alloc, cr3)
}

// Clone derives a complete, independent kernel from this one: the
// physical memory image is shared copy-on-write, every Go-level
// structure (machine, MMU, descriptor tables, TLB, state value,
// allocator) is copied, and the clone owns its machine, so the shared
// trusted endpoints and timer hook act on it. The clone's simulated
// state — clock, counters, memory — is bit-identical to the source's
// at the moment of cloning, so a clone of a freshly booted kernel is
// indistinguishable from a fresh boot at a fraction of the wall-clock
// cost.
//
// Clone must be called while the source machine is quiescent (no
// simulated run in progress); the clone may then be used from another
// goroutine.
//
// Process.SignalHandler closures are user-owned and carried over
// verbatim (the kernel cannot re-bind them): a handler that captures
// Go state observes the *template's* state when a cloned process
// faults. Fleet workloads leave handlers unset; install per-clone
// handlers after cloning if you need per-machine signal state.
func (k *Kernel) Clone() (*Kernel, error) {
	phys := k.Phys.Clone()
	clock := k.Clock.Clone()
	mu := k.MMU.Clone(phys, clock)
	machine := k.Machine.Clone(phys, mu, clock)
	alloc := k.Alloc.Clone()

	k2 := &Kernel{
		Machine: machine,
		MMU:     mu,
		Phys:    phys,
		Clock:   clock,
		Model:   k.Model,
		Alloc:   alloc,

		kernelState:    k.kernelState.copy(),
		kernelTemplate: mmu.AdoptAddressSpace(phys, alloc, k.kernelTemplate.CR3()),
	}
	// Address spaces are wrapper objects over page tables that live in
	// the COW'd simulated memory: re-adopt them on the clone's memory.
	for _, p := range k2.procs {
		p.AS = mmu.AdoptAddressSpace(phys, alloc, p.AS.CR3())
	}
	if k2.cur != nil && k.procs[k2.cur.PID] == nil {
		k2.cur.AS = mmu.AdoptAddressSpace(phys, alloc, k2.cur.AS.CR3())
	}

	// Rebind the MMU's current address space to the clone's wrapper
	// object (same CR3, same page tables).
	if space := k.MMU.Space(); space != nil {
		mu.AdoptSpace(k2.spaceFor(k2.procs, space.CR3()))
	}

	k2.origin, k2.originTicks = k, len(k.tickFns)
	k2.clonedProcs = make([]clonedProc, 0, len(k.procs))
	for pid, p := range k.procs {
		k2.clonedProcs = append(k2.clonedProcs, clonedProc{pid, k2.procs[pid], p})
	}
	k2.own(machine)
	return k2, nil
}

// ResetTo rewinds the kernel in place to t, either the kernel it was
// cloned from, leaving it indistinguishable from a fresh t.Clone(), or
// a frozen clone of itself, leaving it as it was when t was cloned (a
// transaction's rollback). Memory, allocator, MMU, machine and the
// kernel's state value are rewound layer by layer (see each layer's
// ResetTo); the machine keeps its owner and timer hook. The tick
// subscribers registered before t was cloned from this kernel survive;
// every later one is dropped, so a clone reset to its template keeps
// none, as a clone starts with none. Each process t holds is restored
// into the struct of the same PID this kernel held when it was cloned
// from t, or when t was cloned from it (clonedProcs), so pointers held
// elsewhere stay valid even if the process exited; processes t lacks
// vanish. ResetTo only reads t, so clones of one quiescent template may
// reset concurrently.
func (k *Kernel) ResetTo(t *Kernel) {
	k.Phys.ResetTo(t.Phys)
	k.Alloc.ResetTo(t.Alloc)
	k.MMU.ResetTo(t.MMU)
	k.Machine.ResetTo(t.Machine)

	procs, syscalls, ksvcs, costs, console := k.procs, k.syscalls, k.kernelServices, k.Costs, k.ConsoleOut
	k.kernelState = t.kernelState
	for pid := range procs {
		if t.procs[pid] == nil {
			delete(procs, pid)
		}
	}
	rollback := t.origin == k // onto a frozen clone of this kernel
	cloned, keep := k.clonedProcs, 0
	if rollback {
		cloned, keep = t.clonedProcs, min(t.originTicks, len(k.tickFns))
	}
	for pid, tp := range t.procs {
		var p *Process
		for _, c := range cloned {
			if c.pid == pid {
				p = c.own
				if rollback {
					p = c.origin
				}
			}
		}
		if p == nil {
			p = new(Process)
		}
		p.resetTo(tp, k.Phys, k.Alloc)
		procs[pid] = p
	}
	k.procs = procs
	if t.cur != nil {
		if k.cur = procs[t.cur.PID]; t.procs[t.cur.PID] != t.cur { // an exited current process
			k.cur = new(Process)
			k.cur.resetTo(t.cur, k.Phys, k.Alloc)
		}
	}
	clear(syscalls)
	maps.Copy(syscalls, t.syscalls)
	clear(ksvcs)
	maps.Copy(ksvcs, t.kernelServices)
	k.syscalls, k.kernelServices = syscalls, ksvcs
	*costs = *t.Costs
	k.Costs = costs
	k.ConsoleOut = append(console[:0], t.ConsoleOut...)

	if space := t.MMU.Space(); space != nil {
		k.MMU.AdoptSpace(k.spaceFor(k.procs, space.CR3()))
	}
	clear(k.tickFns[keep:])
	k.tickFns = k.tickFns[:keep]
}
