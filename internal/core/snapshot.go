package core

import (
	"repro/internal/kernel"
	"repro/internal/loader"
)

// SystemSnapshot captures a whole Palladium system: the kernel (and
// through it the machine, MMU, clock and COW memory image), the
// system's state value and each live segment's state value. It is the
// unit of the InvokeTx rollback transaction.
type SystemSnapshot struct {
	kern  *kernel.Snapshot
	state systemState
	segs  []segState // parallel to state.segs
}

// Snapshot captures the system for a later Restore. It charges no
// simulated cycles and perturbs no simulated metric.
func (s *System) Snapshot() *SystemSnapshot {
	sn := &SystemSnapshot{
		kern:  s.K.Snapshot(),
		state: s.systemState.copy(),
		segs:  make([]segState, len(s.segs)),
	}
	for i, seg := range s.segs {
		sn.segs[i] = seg.segState.copy()
	}
	return sn
}

// Restore rewinds the system (kernel, machine, memory and the
// Palladium registries) to the snapshot. Segments created after the
// snapshot vanish; segments alive at the snapshot are restored in
// place, including an undo of any abort that happened since. The
// snapshot remains valid for further restores.
func (s *System) Restore(sn *SystemSnapshot) {
	s.K.Restore(sn.kern)
	s.systemState = sn.state.copy()
	for i, seg := range s.segs {
		seg.segState = sn.segs[i].copy()
	}
}

// Release frees the snapshot's hold on the COW frame store.
func (sn *SystemSnapshot) Release() { sn.kern.Release() }

// Clone derives a complete, independent Palladium system: the kernel
// clone shares physical memory copy-on-write, and every core-level
// structure (segments, stub arenas, the Extension Function Table) is
// re-built against the clone with identical addresses and cursors. A
// clone of a freshly booted system is bit-identical, in every
// simulated metric, to a system booted from scratch — at a fraction of
// the wall-clock cost, which is what lets a fleet boot one template
// and clone N workers.
//
// Clone must be called while the machine is quiescent; the clone may
// then be driven from another goroutine.
func (s *System) Clone() (*System, error) {
	k2, err := s.K.Clone()
	if err != nil {
		return nil, err
	}
	s2 := &System{K: k2, systemState: s.systemState.copy()}
	s2.kernPrep.rebind(&kernelTextSpace{s: s2})

	segMap := make(map[*ExtSegment]*ExtSegment, len(s.segs))
	imMap := make(map[*loader.Image]*loader.Image)
	for i, seg := range s.segs {
		seg2 := &ExtSegment{S: s2, segState: seg.segState.copy()}
		seg2.stubs.rebind(seg2)
		for j, im := range seg2.modules {
			seg2.modules[j] = im.Rebind(seg2)
			imMap[im] = seg2.modules[j]
		}
		segMap[seg] = seg2
		s2.segs[i] = seg2
	}
	for name, f := range s.eft {
		f2 := *f
		f2.Seg, f2.module = segMap[f.Seg], imMap[f.module]
		s2.eft[name] = &f2
	}
	// Pending async requests carry over by entry-point name.
	for _, seg2 := range s2.segs {
		queue := seg2.queue[:0]
		for _, req := range seg2.queue {
			if f2 := s2.eft[req.fn.Name]; f2 != nil {
				queue = append(queue, asyncReq{fn: f2, arg: req.arg})
			}
		}
		seg2.queue = queue
	}
	return s2, nil
}

// Clone copies the extensible application onto a cloned system: the
// process, dynamic-loader state and stub addresses carry over (the
// clone's memory holds the same loaded bytes at the same addresses).
// Application services exposed via ExposeService keep their handlers:
// those receive the executing machine as an argument, but a handler
// closing over this App's state will still observe the template's Go
// state — re-expose such services on the clone if they are stateful.
func (a *App) Clone(s2 *System) (*App, error) {
	p2 := s2.K.Process(a.P.PID)
	dl2, imap := a.DL.CloneFor(s2.K, p2)
	a2 := &App{
		S: s2, P: p2, DL: dl2, Libc: imap[a.Libc],
		appState: a.appState.copy(),
	}
	a2.stubs.rebind(dl2.Space())
	return a2, nil
}

// Rebind returns this protected-function handle bound to a cloned
// application (all stub and function addresses are identical in the
// clone's address space).
func (pf *ProtectedFunc) Rebind(a2 *App) *ProtectedFunc {
	c := *pf
	c.App = a2
	return &c
}
