// Package cycles provides the CPU cycle cost model used by the simulated
// machine. All performance results in this repository are expressed in
// simulated cycles accumulated on a Clock; wall-clock time plays no role.
//
// Two cost models are provided, mirroring the two columns of Table 1 in
// the paper:
//
//   - Measured: per-instruction costs calibrated against the Pentium
//     cycle-counter measurements the paper reports (these include the
//     pipeline-hazard effects the authors observed).
//   - Manual: the theoretical per-instruction costs from the Pentium
//     architecture manual (no hazards).
//
// Costs are float64 so that averaged sub-cycle effects (dual-issue
// pairing on the Pentium U/V pipes) can be expressed; totals are rounded
// only for reporting.
package cycles

import "fmt"

// Kind identifies a chargeable micro-architectural event. The CPU core
// maps every executed instruction (and every MMU event) to one Kind.
type Kind int

const (
	// ALU covers register-register arithmetic/logic (add, sub, and,
	// or, xor, cmp, test, inc, dec, shifts, neg, not).
	ALU Kind = iota
	// ALUMem is an ALU operation with one memory operand.
	ALUMem
	// Mul is integer multiply.
	Mul
	// MovRR is a register-to-register move.
	MovRR
	// MovImm is an immediate-to-register move.
	MovImm
	// Load is a memory-to-register move.
	Load
	// Store is a register/immediate-to-memory move.
	Store
	// Lea is address computation without a memory access.
	Lea
	// PushReg pushes a register.
	PushReg
	// PushImm pushes an immediate or a segment-selector literal.
	PushImm
	// PushMem pushes a value read from memory.
	PushMem
	// PopReg pops into a register.
	PopReg
	// PopMem pops into a memory location.
	PopMem
	// Xchg is a register-register exchange.
	Xchg
	// JmpNear is an unconditional near jump.
	JmpNear
	// JccTaken is a taken conditional branch.
	JccTaken
	// JccNotTaken is a not-taken conditional branch.
	JccNotTaken
	// CallNear is a near (intra-segment) call.
	CallNear
	// RetNear is a near return.
	RetNear
	// CallFarSame is a far call without a privilege change.
	CallFarSame
	// LcallGateInter is a far call through a call gate that raises the
	// privilege level, including the TSS stack switch. This is the
	// dominant cost of Palladium's extension-return path (~75 cycles
	// measured, Table 1).
	LcallGateInter
	// LretSame is a far return without a privilege change.
	LretSame
	// LretInter is a far return that lowers the privilege level
	// (Palladium's extension-call path, Table 1 "Calling function").
	LretInter
	// IntGate is an interrupt-gate entry to ring 0 (system call).
	IntGate
	// Iret is an interrupt return without a privilege change.
	Iret
	// IretInter is an interrupt return that lowers privilege.
	IretInter
	// SegRegLoad is a data-segment register load (cross-segment
	// reference overhead; 12 cycles measured, 2-3 per the manual,
	// paper section 5.1).
	SegRegLoad
	// TLBMiss is a two-level page-table walk on a TLB miss.
	TLBMiss
	// TLBFlushBase is the fixed cost of flushing the TLB (CR3 load).
	TLBFlushBase
	// FaultRaise is the hardware cost of raising an exception
	// (vectoring through the IDT, privilege switch to ring 0).
	FaultRaise
	// Nop is a no-op.
	Nop
	// Hlt is the halt instruction.
	Hlt
	numKinds
)

var kindNames = [...]string{
	ALU: "ALU", ALUMem: "ALUMem", Mul: "Mul", MovRR: "MovRR",
	MovImm: "MovImm", Load: "Load", Store: "Store", Lea: "Lea",
	PushReg: "PushReg", PushImm: "PushImm", PushMem: "PushMem",
	PopReg: "PopReg", PopMem: "PopMem", Xchg: "Xchg",
	JmpNear: "JmpNear", JccTaken: "JccTaken", JccNotTaken: "JccNotTaken",
	CallNear: "CallNear", RetNear: "RetNear", CallFarSame: "CallFarSame",
	LcallGateInter: "LcallGateInter", LretSame: "LretSame",
	LretInter: "LretInter", IntGate: "IntGate", Iret: "Iret",
	IretInter: "IretInter", SegRegLoad: "SegRegLoad", TLBMiss: "TLBMiss",
	TLBFlushBase: "TLBFlushBase", FaultRaise: "FaultRaise", Nop: "Nop",
	Hlt: "Hlt",
}

// String returns the symbolic name of the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Model maps event kinds to cycle costs.
type Model struct {
	Name  string
	costs [numKinds]float64
}

// Cost returns the cycle cost of one event of kind k.
func (m *Model) Cost(k Kind) float64 {
	if k < 0 || k >= numKinds {
		panic(fmt.Sprintf("cycles: invalid kind %d", int(k)))
	}
	return m.costs[k]
}

// MaxCost returns the largest cost among the given kinds; the CPU's
// worstCharge uses it to build worst-case charge bounds for instructions
// whose exact charge is data-dependent (taken vs not-taken branches,
// same- vs cross-privilege far transfers).
func (m *Model) MaxCost(kinds ...Kind) float64 {
	var max float64
	for _, k := range kinds {
		if c := m.Cost(k); c > max {
			max = c
		}
	}
	return max
}

// WithCost returns a copy of the model with kind k overridden. Only
// tests call it (the cpu package's tick sweep runs under a zero-cost
// TLB miss); it is kept because tests in several packages share it.
func (m *Model) WithCost(k Kind, c float64) *Model {
	cp := *m
	cp.costs[k] = c
	return &cp
}

// Measured returns the cost model calibrated against the Pentium 200 MHz
// measurements in the paper (Table 1, section 5.1). Key anchors:
//
//	lcall through a gate with privilege raise  = 75 cycles
//	lret with privilege lowering               = 31 cycles
//	segment register load                      = 12 cycles
//
// so that the four Table-1 phases of a protected call sum to
// 26 + 34 + 75 + 7 = 142 cycles, and an intra-domain call to the same
// null function sums to 10.
func Measured() *Model {
	m := &Model{Name: "measured"}
	m.costs = [numKinds]float64{
		ALU: 1, ALUMem: 3, Mul: 10, MovRR: 1, MovImm: 1,
		Load: 2, Store: 4, Lea: 1,
		PushReg: 2, PushImm: 2, PushMem: 4, PopReg: 2, PopMem: 6,
		Xchg:    3,
		JmpNear: 3, JccTaken: 3, JccNotTaken: 1,
		CallNear: 3, RetNear: 3,
		CallFarSame: 22, LcallGateInter: 75, LretSame: 14, LretInter: 31,
		IntGate: 107, Iret: 24, IretInter: 82,
		SegRegLoad: 12,
		TLBMiss:    24, TLBFlushBase: 36,
		FaultRaise: 120,
		Nop:        1, Hlt: 1,
	}
	return m
}

// Manual returns the theoretical cost model from the Pentium
// architecture manual (the "Hardware" column of Table 1): no pipeline
// hazards, best-case cycle counts.
func Manual() *Model {
	m := &Model{Name: "manual"}
	m.costs = [numKinds]float64{
		ALU: 1, ALUMem: 2, Mul: 9, MovRR: 1, MovImm: 1,
		Load: 1.5, Store: 1, Lea: 1,
		PushReg: 1, PushImm: 1, PushMem: 2, PopReg: 1, PopMem: 3,
		Xchg:    2,
		JmpNear: 1, JccTaken: 1, JccNotTaken: 1,
		CallNear: 1, RetNear: 2,
		CallFarSame: 14, LcallGateInter: 44, LretSame: 9, LretInter: 21,
		IntGate: 71, Iret: 17, IretInter: 36,
		SegRegLoad: 2.5,
		TLBMiss:    13, TLBFlushBase: 10,
		FaultRaise: 60,
		Nop:        1, Hlt: 1,
	}
	return m
}

// Clock accumulates simulated cycles. A single Clock is shared by the
// CPU, the MMU and the kernel of one simulated machine so that hardware
// and software costs land on one timeline.
type Clock struct {
	cycles float64
	mhz    float64
}

// NewClock returns a clock for a CPU of the given frequency in MHz.
// The paper's testbed is a Pentium 200 MHz, so 200 reproduces its
// cycle-to-microsecond conversions.
func NewClock(mhz float64) *Clock {
	if mhz <= 0 {
		panic("cycles: clock frequency must be positive")
	}
	return &Clock{mhz: mhz}
}

// Add charges n cycles.
func (c *Clock) Add(n float64) {
	if n < 0 {
		panic("cycles: negative charge")
	}
	c.cycles += n
}

// Charge charges one event of kind k under model m.
func (c *Clock) Charge(m *Model, k Kind) { c.Add(m.Cost(k)) }

// Cycles returns the cycles accumulated so far.
func (c *Clock) Cycles() float64 { return c.cycles }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.cycles = 0 }

// Clone copies the clock (reading and frequency) for a cloned machine.
func (c *Clock) Clone() *Clock { return &Clock{cycles: c.cycles, mhz: c.mhz} }

// SetCycles rewinds (or forwards) the clock to an absolute reading;
// used by machine reset, never by simulated code.
func (c *Clock) SetCycles(v float64) { c.cycles = v }

// MHz returns the clock frequency.
func (c *Clock) MHz() float64 { return c.mhz }

// Micros converts a cycle count to microseconds at this clock's
// frequency.
func (c *Clock) Micros(cyc float64) float64 { return cyc / c.mhz }

// Span measures the cycles consumed by fn.
func (c *Clock) Span(fn func()) float64 {
	start := c.cycles
	fn()
	return c.cycles - start
}
