package core

import (
	"errors"
	"maps"
	"slices"

	"repro/internal/loader"
)

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

	for i, seg := range s.segs {
		seg2 := &ExtSegment{S: s2, segState: seg.segState.copy()}
		seg2.stubs.rebind(seg2)
		for j, im := range seg2.modules {
			seg2.modules[j] = im.Rebind(seg2)
		}
		s2.segs[i] = seg2
	}
	for name, f := range s.eft {
		f2 := s2.rebound(s, f)
		s2.eft[name] = &f2
	}
	for _, seg2 := range s2.segs {
		seg2.queue = requeue(seg2.queue[:0], seg2.queue, s2.eft)
	}
	return s2, nil
}

// rebound returns f, an entry of t's Extension Function Table, bound
// to the segment and module at the same positions in s.
func (s *System) rebound(t *System, f *KernelExtensionFunc) KernelExtensionFunc {
	c := *f
	c.Seg = s.segs[slices.Index(t.segs, f.Seg)]
	c.module = c.Seg.modules[slices.Index(f.Seg.modules, f.module)]
	return c
}

// requeue appends to dst the pending async requests of src whose entry
// point eft still registers, bound to eft's entry of the same name.
func requeue(dst, src []asyncReq, eft map[string]*KernelExtensionFunc) []asyncReq {
	for _, req := range src {
		if f := eft[req.fn.Name]; f != nil {
			dst = append(dst, asyncReq{fn: f, arg: req.arg})
		}
	}
	return dst
}

// errResetDiverged reports a system missing a segment or module of the
// system it would reset to.
var errResetDiverged = errors.New("palladium: reset target holds segments or modules this system lacks")

// ResetTo rewinds the system in place to t, either the system it was
// cloned from, leaving it indistinguishable from a fresh t.Clone(), or
// a frozen clone of itself, leaving it as it was when t was cloned
// (Tx's rollback): the kernel first (Kernel.ResetTo), then the system's
// and each segment's state value. Segments created since vanish,
// modules insmod'ed since into a surviving segment are dropped, and
// entry points an abort unregistered come back, bound to this system's
// segments. Pending async requests
// are t's, bound by name as Clone binds them. ResetTo fails, changing
// nothing, when this system lacks a segment or module t holds; a
// system's segments and modules are only ever added to. ResetTo only
// reads t, and allocates only for an entry point that differs from
// t's.
func (s *System) ResetTo(t *System) error {
	if len(s.segs) < len(t.segs) {
		return errResetDiverged
	}
	for i, ts := range t.segs {
		if seg := s.segs[i]; seg.Name != ts.Name || len(seg.modules) < len(ts.modules) {
			return errResetDiverged
		}
	}
	s.K.ResetTo(t.K)

	segs, eft, kernPrep, ktRanges := s.segs, s.eft, s.kernPrep, s.ktRanges
	s.systemState = t.systemState
	clear(segs[len(t.segs):])
	s.segs = segs[:len(t.segs)]
	s.kernPrep = kernPrep.resetTo(t.kernPrep, kernPrep.space)
	ktRanges.resetTo(t.ktRanges)
	s.ktRanges = ktRanges
	for name := range eft {
		if t.eft[name] == nil {
			delete(eft, name)
		}
	}
	for name, tf := range t.eft {
		if want := s.rebound(t, tf); eft[name] == nil || *eft[name] != want {
			f := new(KernelExtensionFunc)
			*f = want
			eft[name] = f
		}
	}
	s.eft = eft
	for i, seg := range s.segs {
		seg.resetTo(t.segs[i], eft)
	}
	return nil
}

// Tx runs call as a transaction. The system is frozen in a clone before
// call runs; when call reports abort, the system is reset onto the
// frozen clone, so memory, clock, MMU and TLB state, kernel bookkeeping
// and every segment are exactly as before the call, and the compiled
// blocks and traces survive. Either way the frozen clone is then
// released, so the frames the call left alone are sole-owned and
// writable in place again, and the frames only the clone still held go
// on the system's free list for its next copy-on-write faults.
// Freezing charges no simulated cycles: a committed call is
// bit-identical to one run outside a transaction.
func (s *System) Tx(call func() (abort bool)) error {
	frozen, err := s.Clone()
	if err != nil {
		return err
	}
	defer frozen.K.Phys.ReleaseTo(s.K.Phys)
	if call() {
		return s.ResetTo(frozen)
	}
	return nil
}

// resetTo rewinds the segment's state value in place to t's. The
// segment keeps its own module images, the first len(t.modules) of
// them (later ones were insmod'ed since).
func (seg *ExtSegment) resetTo(t *ExtSegment, eft map[string]*KernelExtensionFunc) {
	modules, ranges, mapped, stubs, queue := seg.modules, seg.ranges, seg.mapped, seg.stubs, seg.queue
	seg.segState = t.segState
	clear(modules[len(t.modules):])
	seg.modules = modules[:len(t.modules)]
	ranges.resetTo(t.ranges)
	seg.ranges = ranges
	clear(mapped)
	maps.Copy(mapped, t.mapped)
	seg.mapped = mapped
	seg.stubs = stubs.resetTo(t.stubs, seg)
	seg.queue = requeue(queue[:0], t.queue, eft)
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

// ResetTo rewinds the application in place to t, the application it
// was cloned from, on a system already reset to t's system. The
// process was restored in place by the kernel; the loader state is
// rewound in place, or cloned afresh from t's when a library was
// opened or closed since.
func (a *App) ResetTo(t *App) {
	if !a.DL.ResetTo(t.DL) {
		var imap map[*loader.Image]*loader.Image
		a.DL, imap = t.DL.CloneFor(a.S.K, a.P)
		a.Libc = imap[t.Libc]
	}
	stubs := a.stubs
	a.appState = t.appState
	a.stubs = stubs.resetTo(t.stubs, a.DL.Space())
}

// Rebind returns this protected-function handle bound to a cloned
// application (all stub and function addresses are identical in the
// clone's address space).
func (pf *ProtectedFunc) Rebind(a2 *App) *ProtectedFunc {
	c := *pf
	c.App = a2
	return &c
}
