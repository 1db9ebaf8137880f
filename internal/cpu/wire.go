// Snapshot-to-bytes serialization of the machine. Like Clone it carries
// the machine's state value, the clock and (through the MMU) the
// translation state; the decoded-block cache and the traces on its
// blocks are wall-clock accelerators that LoadFrom clears.
//
// Service handlers are the one part of the state that cannot cross the
// byte boundary: they are Go closures over their owning kernel and
// application. LoadFrom therefore restores INTO a deterministically
// booted twin machine and keeps the twin's handlers once its endpoints
// (address, name, kind) match the serialized set.
package cpu

import (
	"maps"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

func saveOperand(e *mem.Enc, o *isa.Operand) {
	e.U8(uint8(o.Kind))
	e.U8(uint8(o.Reg))
	e.I32(o.Imm)
	e.U8(uint8(o.Base))
	e.U8(uint8(o.Index))
	e.U8(o.Scale)
	e.I32(o.Disp)
}

// loadOperand decodes one operand and rejects any the interpreter
// could not execute: the register file is indexed by Reg, Base and
// Index without a bounds check.
func loadOperand(d *mem.Dec) isa.Operand {
	o := isa.Operand{
		Kind:  isa.OperandKind(d.U8()),
		Reg:   isa.Reg(d.U8()),
		Imm:   d.I32(),
		Base:  isa.Reg(d.U8()),
		Index: isa.Reg(d.U8()),
		Scale: d.U8(),
		Disp:  d.I32(),
	}
	if d.Err() == nil && !validOperand(&o) {
		d.Failf("malformed operand: kind %d reg %#x base %#x index %#x scale %d", o.Kind, o.Reg, o.Base, o.Index, o.Scale)
	}
	return o
}

// validOperand reports whether o has a known kind, register numbers
// that are a general register or NoReg (a register operand needs a
// real one), and a scale of 1, 2, 4 or 8 on an indexed memory operand
// (0 elsewhere, as the builders and the assembler leave it).
func validOperand(o *isa.Operand) bool {
	reg := func(r isa.Reg) bool { return r <= isa.EDI || r == isa.NoReg }
	switch {
	case o.Kind > isa.KindMem, !reg(o.Reg), !reg(o.Base), !reg(o.Index):
		return false
	case o.Kind == isa.KindReg && o.Reg == isa.NoReg:
		return false
	case o.Kind == isa.KindMem && o.Index != isa.NoReg:
		return o.Scale == 1 || o.Scale == 2 || o.Scale == 4 || o.Scale == 8
	}
	return o.Scale == 0
}

// SaveTo appends the machine image: the clock, the state value in
// field order (the services map as its endpoints, for validation) and
// the MMU state. Maps are emitted in sorted key order so serialization
// is deterministic.
func (m *Machine) SaveTo(e *mem.Enc) {
	e.F64(m.Clock.Cycles())
	e.F64(m.Clock.MHz())

	s := &m.machineState
	for _, r := range s.Regs {
		e.U32(r)
	}
	e.U32(s.EIP)
	e.U16(uint16(s.CS))
	e.U16(uint16(s.DS))
	e.U16(uint16(s.SS))
	e.U16(uint16(s.ES))
	e.Bool(s.Flags.ZF)
	e.Bool(s.Flags.SF)
	e.Bool(s.Flags.CF)
	e.Bool(s.Flags.OF)
	for i := 0; i < 3; i++ {
		e.U16(uint16(s.TSS.SS[i]))
		e.U32(s.TSS.ESP[i])
	}

	e.U32(uint32(len(s.IDT)))
	for _, vec := range slices.Sorted(maps.Keys(s.IDT)) {
		gate := s.IDT[vec]
		e.U8(vec)
		mmu.SaveDescriptor(e, &gate)
	}

	e.U32(uint32(len(s.code)))
	for _, pa := range slices.Sorted(maps.Keys(s.code)) {
		in := s.code[pa]
		e.U32(pa)
		e.U8(uint8(in.Op))
		e.U8(in.Size)
		saveOperand(e, &in.Dst)
		saveOperand(e, &in.Src)
	}

	e.U32(uint32(len(s.breaks)))
	for _, pa := range slices.Sorted(maps.Keys(s.breaks)) {
		e.U32(pa)
	}

	e.U32(uint32(len(s.services)))
	for _, addr := range slices.Sorted(maps.Keys(s.services)) {
		svc := s.services[addr]
		e.U32(addr)
		e.String(svc.Name)
		e.U8(uint8(svc.Kind))
	}

	e.U64(s.instret)
	e.Bool(s.haltFlag)
	e.F64(s.TickCycles)
	e.F64(s.nextTick)

	// The MMU comes last so LoadFrom can decode and validate every
	// cpu-level field before the first mutating step runs.
	m.MMU.SaveTo(e)
}

// LoadFrom decodes a SaveTo image into this machine, which must be a
// deterministically booted twin (same boot path as the saved machine):
// its service-endpoint registry is validated against the image and
// kept, since the handlers are closures only a boot can construct.
// adoptSpace resolves the serialized CR3 (see MMU.LoadFrom). The image
// is decoded into a staged state value and validated before anything
// is applied; on error the machine is untouched.
func (m *Machine) LoadFrom(d *mem.Dec, adoptSpace func(cr3 uint32) *mmu.AddressSpace) error {
	clock := d.NonNegF64("clock")
	mhz := d.F64()
	if d.Err() == nil && mhz != m.Clock.MHz() {
		d.Failf("image clock is %v MHz, machine runs at %v MHz", mhz, m.Clock.MHz())
	}

	var s machineState
	for i := range s.Regs {
		s.Regs[i] = d.U32()
	}
	s.EIP = d.U32()
	s.CS = mmu.Selector(d.U16())
	s.DS = mmu.Selector(d.U16())
	s.SS = mmu.Selector(d.U16())
	s.ES = mmu.Selector(d.U16())
	s.Flags.ZF = d.Bool()
	s.Flags.SF = d.Bool()
	s.Flags.CF = d.Bool()
	s.Flags.OF = d.Bool()
	for i := 0; i < 3; i++ {
		s.TSS.SS[i] = mmu.Selector(d.U16())
		s.TSS.ESP[i] = d.U32()
	}

	nIDT := d.Len("idt gate", 256)
	s.IDT = make(map[uint8]mmu.Descriptor, nIDT)
	lastVec := -1
	for i := 0; i < nIDT; i++ {
		vec := d.U8()
		if d.Err() == nil && int(vec) <= lastVec {
			d.Failf("idt vector %#x out of order", vec)
		}
		lastVec = int(vec)
		s.IDT[vec] = mmu.LoadDescriptor(d)
		if d.Err() != nil {
			return d.Err()
		}
	}

	nCode := d.Len("code entry", 1<<26)
	s.code = make(map[uint32]*isa.Instr, nCode)
	lastPA := int64(-1)
	for i := 0; i < nCode; i++ {
		pa := d.U32()
		if d.Err() == nil && int64(pa) <= lastPA {
			d.Failf("code address %#x out of order", pa)
		}
		lastPA = int64(pa)
		in := &isa.Instr{}
		in.Op = isa.Op(d.U8())
		in.Size = d.U8()
		in.Dst = loadOperand(d)
		in.Src = loadOperand(d)
		if d.Err() != nil {
			return d.Err()
		}
		s.code[pa] = in
	}

	nBrk := d.Len("breakpoint", 1<<20)
	s.breaks = make(map[uint32]bool, nBrk)
	for i := 0; i < nBrk; i++ {
		s.breaks[d.U32()] = true
	}

	// Service endpoints: validate the twin's registry against the
	// image. The twin's handlers stay — they are already bound to the
	// owners the twin boot constructed.
	nSvc := d.Len("service", 1<<16)
	if d.Err() == nil && nSvc != len(m.services) {
		d.Failf("image has %d service endpoints, booted twin has %d", nSvc, len(m.services))
	}
	for i := 0; i < nSvc; i++ {
		addr := d.U32()
		name := d.String()
		kind := d.U8()
		if d.Err() != nil {
			return d.Err()
		}
		svc := m.services[addr]
		if svc == nil {
			d.Failf("image service %q at %#x not registered in booted twin", name, addr)
			return d.Err()
		}
		if svc.Name != name || uint8(svc.Kind) != kind {
			d.Failf("service at %#x is %q kind %d in image, %q kind %d in twin", addr, name, kind, svc.Name, svc.Kind)
			return d.Err()
		}
	}
	s.services = m.services

	s.instret = d.U64()
	s.haltFlag = d.Bool()
	s.TickCycles = d.NonNegF64("tick period")
	s.nextTick = d.NonNegF64("next tick")
	if err := d.Err(); err != nil {
		return err
	}

	// MMU.LoadFrom validates everything it decodes before applying and
	// is the last fallible step, so the all-or-nothing contract holds:
	// either nothing has been applied yet, or nothing can fail anymore.
	if err := m.MMU.LoadFrom(d, adoptSpace); err != nil {
		return err
	}

	m.Clock.SetCycles(clock)
	m.machineState = s
	m.codeShared.Store(false)
	m.recomputeDispatchHints()
	m.clearBlockCache()
	return nil
}
