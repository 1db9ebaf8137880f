package core

import (
	"maps"
	"slices"

	"repro/internal/loader"
)

// Clone derives a complete, independent Palladium system: the kernel
// clone shares physical memory copy-on-write, and an empty system over
// it is reset to this one (resetState, the system's own step of
// ResetTo), which re-builds every core-level structure (segments, stub
// arenas, the Extension Function Table) against the clone with
// identical addresses and cursors. A clone of a freshly booted system
// is bit-identical, in every simulated metric, to a system booted from
// scratch — at a fraction of the wall-clock cost, which is what lets a
// fleet boot one template and clone N workers. The error is always
// nil.
//
// Clone must be called while the machine is quiescent; the clone may
// then be driven from another goroutine.
func (s *System) Clone() (*System, error) {
	k2, err := s.K.Clone()
	if err != nil {
		return nil, err
	}
	c := &System{K: k2}
	c.resetState(s)
	return c, nil
}

// ResetTo rewinds the system in place to t, either the system it was
// cloned from, leaving it indistinguishable from a fresh t.Clone(), or
// a frozen clone of itself, leaving it as it was when t was cloned
// (Tx's rollback): the kernel first (Kernel.ResetTo), then the system's
// own state (resetState). ResetTo only reads t, and allocates only for
// an entry point that differs from t's.
func (s *System) ResetTo(t *System) {
	s.K.ResetTo(t.K)
	s.resetState(t)
}

// resetState rewinds the system's and each segment's state value to
// t's, over a kernel already rewound. Segments created since vanish,
// and a segment t holds that this system lacks is created, as are the
// modules t holds that a segment lacks; modules insmod'ed since into a
// surviving segment are dropped. A system's segments and modules are
// only ever added to, so the ones both hold are the same. Entry points
// an abort unregistered come back, bound to this system's segments,
// and pending async requests are t's, bound to this system's entries of
// the same names.
func (s *System) resetState(t *System) {
	segs, eft, kernPrep, ktRanges := s.segs, s.eft, s.kernPrep, s.ktRanges
	s.systemState = t.systemState
	n := min(len(segs), len(t.segs))
	clear(segs[n:])
	segs = slices.Grow(segs[:n], len(t.segs)-n)
	for len(segs) < len(t.segs) {
		segs = append(segs, &ExtSegment{S: s})
	}
	s.segs = segs
	for i, seg := range segs {
		seg.resetTo(t.segs[i])
	}
	if kernPrep == nil {
		kernPrep = &stubArena{space: &kernelTextSpace{s: s}}
	}
	s.kernPrep = kernPrep.resetTo(t.kernPrep, kernPrep.space)
	s.ktRanges = ktRanges.resetTo(t.ktRanges)
	if eft == nil {
		eft = make(map[string]*KernelExtensionFunc, len(t.eft))
	}
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
	for i, seg := range segs {
		seg.queue = requeue(seg.queue, t.segs[i].queue, eft)
	}
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
func (s *System) Tx(call func() (abort bool)) {
	frozen, _ := s.Clone() // never fails
	defer frozen.K.Phys.ReleaseTo(s.K.Phys)
	if call() {
		s.ResetTo(frozen)
	}
}

// resetTo rewinds the segment's state value in place to t's, keeping
// its own module images, the first len(t.modules) of them (later ones
// were insmod'ed since), and binding t's others to this segment. The
// queue is left empty for resetState to refill.
func (seg *ExtSegment) resetTo(t *ExtSegment) {
	modules, ranges, mapped, stubs, queue := seg.modules, seg.ranges, seg.mapped, seg.stubs, seg.queue
	seg.segState = t.segState
	n := min(len(modules), len(t.modules))
	clear(modules[n:])
	modules = slices.Grow(modules[:n], len(t.modules)-n)
	for _, im := range t.modules[n:] {
		modules = append(modules, im.Rebind(seg))
	}
	seg.modules = modules
	seg.ranges = ranges.resetTo(t.ranges)
	seg.mapped = refill(mapped, t.mapped)
	seg.stubs = stubs.resetTo(t.stubs, seg)
	seg.queue = queue[:0]
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

// Clone copies the extensible application onto a cloned system: an
// empty application over the clone's copy of its process, reset to
// this one (ResetTo), so the dynamic-loader state and stub addresses
// carry over (the clone's memory holds the same loaded bytes at the
// same addresses). Application services (the core tests'
// ExposeService) keep their handlers: those receive the executing machine as an argument,
// but a handler closing over this App's state will still observe the
// template's Go state — re-expose such services on the clone if they
// are stateful. An application whose process has exited is bound to
// the clone kernel's current process of that PID, since an exited
// process is in no process table. The error is always nil.
func (a *App) Clone(s2 *System) (*App, error) {
	c := &App{S: s2, P: s2.K.Process(a.P.PID)}
	if cur := s2.K.Current(); c.P == nil && cur != nil && cur.PID == a.P.PID {
		c.P = cur
	}
	c.ResetTo(a)
	return c, nil
}

// ResetTo rewinds the application in place to t, the application it
// was cloned from, on a system already reset to t's system. The
// process was restored in place by the kernel; the loader state is
// rewound in place, or cloned afresh from t's when a library was
// opened or closed since or this application has none yet.
func (a *App) ResetTo(t *App) {
	if a.DL == nil || !a.DL.ResetTo(t.DL) {
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
