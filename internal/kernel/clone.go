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

// Clone derives a complete, independent kernel from this one: each
// lower layer is cloned (the physical memory image shared
// copy-on-write; machine, MMU, descriptor tables, TLB and allocator
// copied), and an empty kernel over them is reset to this one
// (resetState, the kernel's own step of ResetTo). The clone owns its
// machine, so the shared trusted endpoints and timer hook act on it.
// The clone's simulated state — clock, counters, memory — is
// bit-identical to the source's at the moment of cloning, so a clone of
// a freshly booted kernel is indistinguishable from a fresh boot at a
// fraction of the wall-clock cost. The error is always nil.
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
	c := &Kernel{
		Machine: k.Machine.Clone(phys, mu, clock),
		MMU:     mu,
		Phys:    phys,
		Clock:   clock,
		Model:   k.Model,
		Alloc:   k.Alloc.Clone(),

		origin:      k,
		originTicks: len(k.tickFns),
	}
	c.resetState(k)
	c.clonedProcs = make([]clonedProc, 0, len(k.procs))
	for pid, p := range k.procs {
		c.clonedProcs = append(c.clonedProcs, clonedProc{pid, c.procs[pid], p})
	}
	c.own(c.Machine)
	return c, nil
}

// ResetTo rewinds the kernel in place to t, either the kernel it was
// cloned from, leaving it indistinguishable from a fresh t.Clone(), or
// a frozen clone of itself, leaving it as it was when t was cloned (a
// transaction's rollback). Memory, allocator, MMU and machine are
// rewound layer by layer (see each layer's ResetTo), then the kernel's
// own state (resetState); the machine keeps its owner and timer hook.
// ResetTo only reads t, so clones of one quiescent template may reset
// concurrently.
func (k *Kernel) ResetTo(t *Kernel) {
	k.Phys.ResetTo(t.Phys)
	k.Alloc.ResetTo(t.Alloc)
	k.MMU.ResetTo(t.MMU)
	k.Machine.ResetTo(t.Machine)
	k.resetState(t)
}

// resetState rewinds the kernel's state value to t's, over lower
// layers already rewound, filling any storage an empty kernel lacks.
// The tick subscribers registered before t was cloned from this kernel
// survive; every later one is dropped, so a clone reset to its template
// keeps none, as a clone starts with none. Each process t holds is
// restored into the struct of the same PID this kernel held when it was
// cloned from t, or when t was cloned from it (clonedProcs), so
// pointers held elsewhere stay valid even if the process exited;
// processes t lacks vanish.
func (k *Kernel) resetState(t *Kernel) {
	procs, syscalls, ksvcs, costs, console, kstacks := k.procs, k.syscalls, k.kernelServices, k.Costs, k.ConsoleOut, k.freeKStacks
	k.kernelState = t.kernelState
	if procs == nil {
		procs = make(map[int]*Process, len(t.procs))
	}
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
	k.syscalls, k.kernelServices = refill(syscalls, t.syscalls), refill(ksvcs, t.kernelServices)
	if costs == nil {
		costs = new(CostSheet)
	}
	*costs = *t.Costs
	k.Costs = costs
	k.ConsoleOut = append(console[:0], t.ConsoleOut...)
	k.freeKStacks = append(kstacks[:0], t.freeKStacks...)

	if k.kernelTemplate == nil {
		k.kernelTemplate = mmu.AdoptAddressSpace(k.Phys, k.Alloc, t.kernelTemplate.CR3())
	}
	if space := t.MMU.Space(); space != nil {
		k.MMU.AdoptSpace(k.spaceFor(k.procs, space.CR3()))
	}
	clear(k.tickFns[keep:])
	k.tickFns = k.tickFns[:keep]
}

// refill makes dst a copy of src, reusing dst's storage.
func refill(dst, src map[uint32]SyscallFn) map[uint32]SyscallFn {
	if dst == nil {
		return maps.Clone(src)
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}
