package kernel

import (
	"maps"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// Snapshot captures the whole kernel: the machine (CPU + MMU + clock +
// COW memory image), the frame allocator and the kernel's state value.
// Taking a snapshot charges no simulated cycles.
type Snapshot struct {
	mach  *cpu.MachineSnapshot
	alloc mem.AllocatorState
	state kernelState
	// live is the process table at the snapshot: Restore writes the
	// captured processes back into these structs, so every reference
	// held elsewhere (core.App.P, a web server's CGI helper process)
	// stays valid across rollback.
	live    map[int]*Process
	tickLen int
}

// Snapshot captures the kernel state for a later Restore.
func (k *Kernel) Snapshot() *Snapshot {
	return &Snapshot{
		mach:    k.Machine.Snapshot(),
		alloc:   k.Alloc.Save(),
		state:   k.kernelState.copy(),
		live:    maps.Clone(k.procs),
		tickLen: len(k.tickFns),
	}
}

// Restore rewinds the kernel (and its machine) to the snapshot.
// Processes created after the snapshot vanish; processes alive at the
// snapshot are restored field-by-field into their original structs.
// The snapshot remains valid for further restores.
func (k *Kernel) Restore(s *Snapshot) {
	k.Machine.Restore(s.mach)
	k.Alloc.RestoreState(s.alloc)
	k.kernelState = s.state.copy()
	k.restoreInPlace(s.live, false)
	if len(k.tickFns) > s.tickLen {
		k.tickFns = k.tickFns[:s.tickLen]
	}
}

// restoreInPlace moves each restored process into the struct that held
// the same PID in live, so pointers to it stay valid. keepHandlers
// keeps that struct's signal handler, which a byte image cannot carry.
func (k *Kernel) restoreInPlace(live map[int]*Process, keepHandlers bool) {
	for pid, p := range k.procs {
		orig := live[pid]
		if orig == nil {
			continue
		}
		if keepHandlers {
			p.SignalHandler = orig.SignalHandler
		}
		*orig = *p
		k.procs[pid] = orig
		if k.cur == p {
			k.cur = orig
		}
	}
}

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

// Release frees the snapshot's hold on the COW frame store.
func (s *Snapshot) Release() { s.mach.Release() }

// Clone derives a complete, independent kernel from this one: the
// physical memory image is shared copy-on-write, every Go-level
// structure (machine, MMU, descriptor tables, TLB, state value,
// allocator) is copied, and the kernel-owned trusted endpoints
// (syscall and kernel-service entries, the timer hook) are re-bound to
// the clone. The clone's simulated state — clock, counters, memory —
// is bit-identical to the source's at the moment of cloning, so a
// clone of a freshly booted kernel is indistinguishable from a fresh
// boot at a fraction of the wall-clock cost.
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

	k2.resetProcs = maps.Clone(k2.procs)
	k2.bindEndpoints()
	return k2, nil
}

// ResetTo rewinds the kernel in place to t, the kernel it was cloned
// from, leaving it indistinguishable from a fresh t.Clone(): memory,
// allocator, MMU, machine and the kernel's state value are rewound
// layer by layer (see each layer's ResetTo), the endpoints and timer
// hook are re-bound as Clone binds them, and the tick subscribers are
// dropped, as a clone starts with none. Each process t holds is
// restored into the struct of the same PID this kernel was cloned
// with, so pointers held elsewhere (core.App.P, a web server's CGI
// helper) stay valid even if the process exited; processes t lacks
// vanish. ResetTo only reads t, so clones of one quiescent template
// may reset concurrently.
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
	for pid, tp := range t.procs {
		p := k.resetProcs[pid]
		if p == nil {
			p = new(Process)
			k.resetProcs[pid] = p
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
	clear(k.tickFns)
	k.tickFns = k.tickFns[:0]
	k.bindEndpoints()
}
