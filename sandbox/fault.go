package sandbox

import (
	"errors"
	"fmt"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/verify"
)

// Class is the unified fault classification: the same escape attempt
// surfaces under the same class no matter which isolation mechanism
// caught it.
type Class int

const (
	// Unknown is a failure the taxonomy does not model (an internal
	// simulator error, for instance).
	Unknown Class = iota
	// SegmentViolation: the extension tripped a segment-level check —
	// a kernel extension writing or jumping past its segment limit, a
	// user extension forging an inter-segment transfer (the #GP
	// family).
	SegmentViolation
	// PageViolation: the extension tripped a page-level check — a
	// user extension touching a PPL-0 page of the application, a
	// kernel extension reaching an unmapped page inside its limit
	// (the #PF family).
	PageViolation
	// TimeLimit: the extension exceeded its per-invocation CPU-time
	// budget.
	TimeLimit
	// ValidationReject: the extension never ran — the mechanism's
	// static check refused it (a BPF program failing validation, the
	// SFI rewriter rejecting the object, a loader resolution
	// failure).
	ValidationReject
	// Backpressure: an asynchronous invocation was refused because
	// the extension's bounded request queue is full.
	Backpressure
	// Revoked: the extension was invoked after Release (or after its
	// segment was aborted by an earlier violation).
	Revoked
)

func (c Class) String() string {
	switch c {
	case SegmentViolation:
		return "segment-violation"
	case PageViolation:
		return "page-violation"
	case TimeLimit:
		return "time-limit"
	case ValidationReject:
		return "validation-reject"
	case Backpressure:
		return "backpressure"
	case Revoked:
		return "revoked"
	}
	return "unknown"
}

// Fault is the typed error every backend returns: a classification
// plus the untouched underlying error chain, so mechanism-specific
// sentinels (core.ErrExtensionFault, core.ErrKernelExtensionAborted,
// core.ErrTimeLimit, ...) and the hardware *mmu.Fault stay reachable
// through errors.Is / errors.As.
type Fault struct {
	// Class is the unified classification.
	Class Class
	// Backend and Op locate the failure ("palladium-kernel"/"invoke").
	Backend string
	Op      string
	// Hw is the hardware fault that triggered the violation, when one
	// exists (nil for validation rejects, backpressure, cost-model
	// time limits).
	Hw *mmu.Fault
	// RolledBack reports that the machine was reset onto the clone
	// frozen before the call (WithTx).
	RolledBack bool
	// Report is the static verifier's structured evidence, present on
	// ValidationReject faults produced by the LoadOptions.Verify gate
	// (and on bpf validation rejects, whose classic checker reports
	// through the same type).
	Report *verify.Report

	cause error
}

// Error implements the error interface.
func (f *Fault) Error() string {
	s := fmt.Sprintf("sandbox: %s %s: %s", f.Backend, f.Op, f.Class)
	if f.RolledBack {
		s += " (rolled back)"
	}
	if f.cause != nil {
		s += ": " + f.cause.Error()
	}
	return s
}

// Unwrap exposes the mechanism's original error chain.
func (f *Fault) Unwrap() error { return f.cause }

// Cause returns the underlying error (the same value Unwrap exposes).
func (f *Fault) Cause() error { return f.cause }

// NewFault builds a typed Fault for layers that sit above the backend
// adapters but reuse the taxonomy — the serving tier's admission
// control, for instance, classifies a full request queue as
// Class Backpressure with the dispatcher's error as the cause.
func NewFault(class Class, backend, op string, cause error) *Fault {
	return &Fault{Class: class, Backend: backend, Op: op, cause: cause}
}

// errRevoked is the cause carried by Revoked faults on extensions
// released through the sandbox API itself.
var errRevoked = errors.New("sandbox: extension released")

// errNoStaging reports Stage on an extension without a staging area.
var errNoStaging = errors.New("sandbox: extension has no staging area")

// classify wraps a mechanism error in a *Fault. Errors that are
// already *Fault pass through untouched (so adapters composing other
// adapters do not double-wrap).
func classify(backend, op string, err error) error {
	if err == nil {
		return nil
	}
	var already *Fault
	if errors.As(err, &already) {
		return err
	}
	f := &Fault{Backend: backend, Op: op, cause: err}
	var hw *mmu.Fault
	switch {
	case errors.Is(err, core.ErrTimeLimit), errors.Is(err, bpf.ErrRunaway):
		f.Class = TimeLimit
	case errors.Is(err, core.ErrAsyncBackpressure):
		f.Class = Backpressure
	case errors.As(err, &hw):
		f.Hw = hw
		if hw.Kind == mmu.PF {
			f.Class = PageViolation
		} else {
			f.Class = SegmentViolation
		}
	case errors.Is(err, core.ErrKernelExtensionAborted) && op == "invoke":
		// An abort with no hardware fault and no time limit: the
		// segment was already dead when the call arrived.
		f.Class = Revoked
	default:
		if op == "load" {
			f.Class = ValidationReject
		}
	}
	if errors.Is(err, core.ErrKernelExtensionRolledBack) {
		f.RolledBack = true
	}
	return f
}

// rejectf builds a load-time ValidationReject fault directly.
func rejectf(backend string, format string, args ...any) error {
	return &Fault{
		Class: ValidationReject, Backend: backend, Op: "load",
		cause: fmt.Errorf(format, args...),
	}
}
