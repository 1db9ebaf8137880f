// Package verify is a load-time static verifier for guest extension
// objects: an abstract interpretation over the simulated ISA that
// builds a control-flow graph from the decoded instructions, proves a
// termination budget for counted loops, and runs a region+interval
// analysis over registers and effective addresses to classify every
// memory access against a declared segment layout.
//
// The verifier is the zero-per-access-tax pole of the paper's design
// space: where Palladium pushes protection onto segment and page
// checks the hardware performs on every access, the verifier charges
// everything once at load time. The two compose rather than compete —
// a verdict is three-valued:
//
//	Clean    every access proven in-bounds and termination bounded;
//	         the program cannot fault and the trace tier may elide
//	         the SegProbe limit re-validation for proven operands.
//	Guarded  no provable violation, but some accesses (or loops)
//	         could not be discharged statically; the program loads
//	         and the ordinary hardware checks + time limits carry
//	         the protection burden — the paper's own hybrid story.
//	Rejected a definite policy violation (an absolute access outside
//	         every declared region, a forged far transfer, an
//	         unresolvable indirect jump); the object never runs.
//
// Facts proved for individual operands are exported by annotating the
// object (isa.Operand.Proved/ProvedEnd) so the trace tier can skip
// the segment-limit re-validation on warm probes; see
// mmu.TranslateBatched for the refill-time re-attestation that keeps
// elision sound against descriptor mutation.
package verify

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Status is the verifier's three-valued verdict.
type Status int

const (
	// Clean: every memory access proven in-bounds, termination
	// bounded within the layout's budget. Clean programs cannot
	// fault; the soundness fuzz holds them to that claim.
	Clean Status = iota
	// Guarded: accepted, but some accesses or loops rely on the
	// runtime checks (segment limits, page privilege, time limits).
	Guarded
	// Rejected: a definite violation; the object must not be loaded.
	Rejected
)

func (s Status) String() string {
	switch s {
	case Clean:
		return "clean"
	case Guarded:
		return "guarded"
	case Rejected:
		return "rejected"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// MarshalJSON renders the status as its string form so a report's
// JSON stays readable.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Perm is an access-permission bitmask for declared regions.
type Perm uint8

const (
	// PermR permits reads.
	PermR Perm = 1 << iota
	// PermW permits writes.
	PermW
	// PermRW permits both.
	PermRW = PermR | PermW
)

func (p Perm) String() string {
	switch {
	case p&PermRW == PermRW:
		return "rw"
	case p&PermW != 0:
		return "w"
	case p&PermR != 0:
		return "r"
	}
	return "-"
}

// Region is one byte range of the extension's address space (linear
// addresses for user-level backends, segment offsets for kernel
// segments) that absolute/computed addresses may legitimately target.
type Region struct {
	Name string
	Lo   uint32 // first byte, inclusive
	Hi   uint32 // last byte, inclusive
	Perm Perm
}

// ArgSpec declares the meaning of the 4-byte argument word every
// extension receives at [esp+4].
type ArgSpec struct {
	// Pointer: the argument is a pointer to an extension-accessible
	// area of Size bytes (a staged shared area, a CGI environment
	// block). Dereferences through the argument are proved against
	// [0, Size) with Perm.
	Pointer bool
	Size    uint32
	Perm    Perm
}

// Layout declares the protection domain an object is verified
// against: which address ranges exist, what the argument means, how
// much stack the entry owns, and which service transfers the
// environment provides.
type Layout struct {
	// Backend names the environment ("palladium-kernel", ...) for
	// reports.
	Backend string
	// Regions are the absolute address ranges extension code may
	// target with computed (non-relocated) addresses.
	Regions []Region
	// Arg types the entry argument.
	Arg ArgSpec
	// StackBelow is how many bytes below the entry stack pointer the
	// extension may read and write (its own frame space).
	StackBelow uint32
	// StackAbove is how many bytes at/above the entry stack pointer
	// the extension may read (return address, argument slot).
	StackAbove uint32
	// StackAbs, valid when StackAbsKnown, is the absolute address (in
	// the Regions' address domain) of the entry stack pointer. Layouts
	// whose declared regions contain the stack window itself — the
	// kernel segment's scratch+stack area — must set it so the
	// analysis can detect absolute stores that alias tracked stack
	// slots. Layouts whose regions are disjoint from the stack leave
	// it unset.
	StackAbs      uint32
	StackAbsKnown bool
	// AllowedInts lists the software-interrupt vectors the
	// environment services (kernel service gate, syscall gate).
	AllowedInts []uint8
	// AllowExterns permits near calls/jumps to unresolved extern
	// symbols (the loader's PLT) and far calls through extern-reloc
	// gate symbols (published services).
	AllowExterns bool
	// Budget caps the provable step bound; 0 selects DefaultBudget.
	// Programs whose proven bound exceeds it are rejected.
	Budget uint64
	// RequireBounded rejects programs whose termination cannot be
	// proven (instead of accepting them as Guarded under the runtime
	// time limit).
	RequireBounded bool
}

// DefaultBudget is the step budget applied when Layout.Budget is 0,
// comfortably under the mechanisms' 10M-instruction runtime limits.
const DefaultBudget = 1 << 20

// intAllowed reports whether the layout services vector v.
func (l *Layout) intAllowed(v uint8) bool {
	for _, a := range l.AllowedInts {
		if a == v {
			return true
		}
	}
	return false
}

// Finding is one classified fact about an instruction: a definite
// violation (Rejected), or an access/loop the verifier could not
// discharge (Guarded).
type Finding struct {
	// Index is the instruction's slot in Object.Text.
	Index int `json:"index"`
	// Instr is its disassembly.
	Instr string `json:"instr"`
	// Reason states the violation or the undischarged obligation.
	Reason string `json:"reason"`
	// Range is the inferred effective-address interval, when one was
	// inferred ("data+[0,255]", "abs[0x1000,0x1003]", "stack[-8,-5]").
	Range string `json:"range,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("#%d %s: %s", f.Index, f.Instr, f.Reason)
	if f.Range != "" {
		s += " (" + f.Range + ")"
	}
	return s
}

// Report is the verifier's structured result: the verdict, every
// violation or undischarged obligation, the access census, and the
// operand facts that back tier-2 check elision.
type Report struct {
	// Object names the verified object; Backend echoes the layout.
	Object  string `json:"object"`
	Backend string `json:"backend,omitempty"`
	// Status is the three-valued verdict.
	Status Status `json:"status"`
	// Entries lists the global text symbols analyzed as entry points.
	Entries []string `json:"entries"`
	// Violations are the definite rejections (nonempty iff Rejected).
	Violations []Finding `json:"violations,omitempty"`
	// Unproven are the obligations left to the runtime checks
	// (nonempty for Guarded programs).
	Unproven []Finding `json:"unproven,omitempty"`
	// Proven counts memory accesses proved in-bounds; Elidable counts
	// the subset whose segment-limit probe re-validation tier 2 may
	// skip (operand-anchored facts).
	Proven   int `json:"proven_accesses"`
	Elidable int `json:"elidable_accesses"`
	// Bounded reports a proven termination bound; MaxSteps is that
	// bound (0 when unbounded).
	Bounded  bool   `json:"bounded"`
	MaxSteps uint64 `json:"max_steps,omitempty"`

	// facts maps (instruction index, operand) to the proved inclusive
	// end bound, in the pre-relocation displacement domain.
	facts map[factKey]uint32
}

type factKey struct {
	idx int
	dst bool
}

// Accepted reports whether the object may load (Clean or Guarded).
func (r *Report) Accepted() bool { return r.Status != Rejected }

// Err returns nil when the object is accepted, and an error carrying
// the first violation otherwise.
func (r *Report) Err() error {
	if r.Status != Rejected {
		return nil
	}
	n := len(r.Violations)
	if n == 0 {
		return fmt.Errorf("verify: %s rejected", r.Object)
	}
	extra := ""
	if n > 1 {
		extra = fmt.Sprintf(" (+%d more)", n-1)
	}
	return fmt.Errorf("verify: %s rejected: %s%s", r.Object, r.Violations[0], extra)
}

// Annotate writes the report's proved operand facts into obj (which
// must be the object Check analyzed, or an identical clone): the
// loader shifts each fact's bound along with the displacement it
// anchors, and the tier-2 translator elides the probe limit
// re-validation for annotated operands. Annotating an object that is
// then loaded under a *different* layout would be unsound; adapters
// therefore verify and annotate a private clone per load.
func (r *Report) Annotate(obj *isa.Object) {
	for k, end := range r.facts {
		if k.idx < 0 || k.idx >= len(obj.Text) {
			continue
		}
		op := &obj.Text[k.idx].Src
		if k.dst {
			op = &obj.Text[k.idx].Dst
		}
		op.Proved = true
		op.ProvedEnd = end
	}
}

// sortFindings orders findings for deterministic reports.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Index != fs[j].Index {
			return fs[i].Index < fs[j].Index
		}
		return fs[i].Reason < fs[j].Reason
	})
}
