package sandbox

import (
	"repro/internal/core"
	"repro/internal/verify"
)

// extBase carries the behavior every adapter shares: stats
// accounting, the generic bounded async queue, transactional rollback
// (core.System.Tx), and release bookkeeping. Adapters plug
// in the mechanism-specific pieces.
type extBase struct {
	h       *Host
	backend string
	entry   string

	// doInvoke runs one synchronous invocation under cfg (the adapter
	// applies TimeLimit itself; Tx too when ownTx is set).
	doInvoke func(arg uint32, cfg *InvokeConfig) (uint32, error)
	// doRelease reclaims mechanism resources (nil: nothing to do).
	doRelease func() error
	// stage/sharedArg implement Stager when non-nil.
	stage     func(b []byte) error
	sharedArg uint32
	// ownTx: doInvoke implements WithTx natively (palladium-kernel's
	// InvokeTx), so the base must not wrap it in a second transaction.
	ownTx bool
	// ownAsync/ownDrain/ownPending delegate WithAsync to a native
	// queue (the kernel segment's); nil selects the generic queue.
	ownAsync   func(arg uint32) error
	ownDrain   func() (int, error)
	ownPending func() int

	// report is the static verifier's accept-side evidence when the
	// extension was loaded with LoadOptions.Verify (nil otherwise).
	report *verify.Report

	queue    []uint32
	bound    int
	released bool
	stats    Stats

	// cfg is the per-invocation option scratch, reused across calls:
	// it is handed to doInvoke by pointer (a dynamic call), which
	// would force a fresh InvokeConfig to escape on every invocation —
	// extensions are single-caller (machine-owned), so one scratch
	// keeps the steady-state Invoke path allocation-free.
	cfg InvokeConfig
}

// Backend implements Extension.
func (e *extBase) Backend() string { return e.backend }

// VerifyReport returns the static verifier's report for this
// extension, or nil when it was loaded without LoadOptions.Verify.
func (e *extBase) VerifyReport() *verify.Report { return e.report }

// Stats implements Extension.
func (e *extBase) Stats() Stats {
	st := e.stats
	st.Pending = e.Pending()
	return st
}

// Stage implements Stager.
func (e *extBase) Stage(b []byte) error {
	if e.stage == nil {
		return &Fault{Class: ValidationReject, Backend: e.backend, Op: "stage",
			cause: errNoStaging}
	}
	return e.stage(b)
}

// SharedArg implements Stager.
func (e *extBase) SharedArg() uint32 { return e.sharedArg }

// Invoke implements Extension.
func (e *extBase) Invoke(arg uint32, opts ...InvokeOption) (uint32, error) {
	e.cfg = InvokeConfig{}
	cfg := &e.cfg
	for _, o := range opts {
		o(cfg)
	}
	if e.released {
		return 0, &Fault{Class: Revoked, Backend: e.backend, Op: "invoke", cause: errRevoked}
	}
	if cfg.Async {
		if e.ownAsync != nil {
			if err := e.ownAsync(arg); err != nil {
				e.stats.Faults++
				return 0, classify(e.backend, "invoke", err)
			}
			return 0, nil
		}
		bound := e.bound
		if bound <= 0 {
			bound = core.DefaultAsyncQueueBound
		}
		if len(e.queue) >= bound {
			e.stats.Faults++
			return 0, &Fault{Class: Backpressure, Backend: e.backend, Op: "invoke",
				cause: core.ErrAsyncBackpressure}
		}
		e.queue = append(e.queue, arg)
		return 0, nil
	}
	return e.call(arg, cfg)
}

func (e *extBase) call(arg uint32, cfg *InvokeConfig) (v uint32, err error) {
	clock := e.h.Sys.K.Clock
	start := clock.Cycles()
	rolledBack := false
	if cfg.Tx && !e.ownTx {
		e.h.Sys.Tx(func() bool {
			v, err = e.doInvoke(arg, cfg)
			rolledBack = err != nil
			return rolledBack
		})
	} else {
		v, err = e.doInvoke(arg, cfg)
	}
	e.stats.Invocations++
	if err == nil {
		e.stats.SimCycles += clock.Cycles() - start
		return v, nil
	}
	e.stats.Faults++
	// Accounted after the rollback: a rolled-back transaction rewinds
	// the clock to the freeze, so it contributes nothing — matching
	// the kernel backend's native InvokeTx.
	e.stats.SimCycles += clock.Cycles() - start
	err = classify(e.backend, "invoke", err)
	if f, ok := err.(*Fault); ok && rolledBack {
		f.RolledBack = true
	}
	return 0, err
}

// Drain implements AsyncQueue: queued requests run to completion in
// FIFO order (results discarded, as with the paper's queued
// packet-filter work).
func (e *extBase) Drain() (int, error) {
	if e.ownDrain != nil {
		return e.ownDrain()
	}
	done := 0
	for len(e.queue) > 0 {
		arg := e.queue[0]
		e.queue = e.queue[1:]
		e.cfg = InvokeConfig{}
		if _, err := e.call(arg, &e.cfg); err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

// Pending implements AsyncQueue.
func (e *extBase) Pending() int {
	if e.ownPending != nil {
		return e.ownPending()
	}
	return len(e.queue)
}

// Release implements Extension: drain-on-release — accepted async
// work always runs before the extension's resources are reclaimed.
func (e *extBase) Release() error {
	if e.released {
		return nil
	}
	if _, err := e.Drain(); err != nil {
		return err
	}
	e.released = true
	if e.doRelease != nil {
		return e.doRelease()
	}
	return nil
}
