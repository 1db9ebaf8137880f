package cpu

import (
	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/mmu"
)

// checkCodeTarget validates a far-transfer destination code segment.
func (m *Machine) checkCodeTarget(sel mmu.Selector) (*mmu.Descriptor, *mmu.Fault) {
	if sel.IsNull() {
		return nil, m.gpf("far transfer to null code selector")
	}
	d := m.MMU.Descriptor(sel)
	if d == nil || d.Kind != mmu.SegCode {
		return nil, m.gpf("far transfer target is not a code segment")
	}
	if !d.Present {
		return nil, &mmu.Fault{Kind: mmu.NP, Sel: sel, CPL: m.CPL(), Reason: "target code segment not present"}
	}
	return d, nil
}

// lcallGate performs a far call through a call gate (Section 3.2).
// retEIP is the return address pushed for the matching far return.
//
// When the gate targets a more privileged code segment the hardware:
//  1. loads the inner stack pointer for the target privilege level
//     from the TSS,
//  2. pushes the caller's SS:ESP on that inner stack,
//  3. pushes the caller's CS:EIP,
//  4. jumps to the gate's entry point at the new privilege level.
//
// Step 1 is the behaviour Palladium's AppCallGate routine compensates
// for: the inner ESP restored from the TSS is *not* the value the
// application had when it called Prepare, so the stub must restore the
// saved stack/base pointers explicitly (Section 4.5.1).
func (m *Machine) lcallGate(gateSel mmu.Selector, retEIP uint32) *mmu.Fault {
	gate := m.MMU.Descriptor(gateSel)
	if gate == nil || gate.Kind != mmu.SegCallGate {
		return m.gpf("lcall: not a call gate")
	}
	if !gate.Present {
		return &mmu.Fault{Kind: mmu.NP, Sel: gateSel, CPL: m.CPL(), Reason: "call gate not present"}
	}
	// Gate privilege: callers below the gate's DPL are rejected. This
	// check is what makes call gates safe entry points: the gate
	// descriptor lives in the GDT, modifiable only at SPL 0.
	if max(m.CPL(), gateSel.RPL()) > gate.DPL {
		return m.gpf("lcall: gate DPL below caller privilege")
	}
	target, f := m.checkCodeTarget(gate.GateSel)
	if f != nil {
		return f
	}
	if target.DPL > m.CPL() {
		return m.gpf("lcall: gate targets less privileged code")
	}
	if target.DPL == m.CPL() || target.Conforming {
		// Same-privilege far call: push CS:EIP on the current stack.
		m.Clock.Charge(m.Model, cycles.CallFarSame)
		if f := m.Push(uint32(m.CS)); f != nil {
			return f
		}
		if f := m.Push(retEIP); f != nil {
			return f
		}
		m.CS = mmu.MakeSelector(gate.GateSel.Index(), gate.GateSel.IsLDT(), m.CPL())
		m.EIP = gate.GateOff
		return nil
	}

	// Inter-privilege call: switch to the inner stack from the TSS.
	m.Clock.Charge(m.Model, cycles.LcallGateInter)
	newCPL := target.DPL
	oldSS, oldESP, oldCS := m.SS, m.Regs[isa.ESP], m.CS
	m.SS = m.TSS.SS[newCPL]
	m.Regs[isa.ESP] = m.TSS.ESP[newCPL]
	m.CS = mmu.MakeSelector(gate.GateSel.Index(), gate.GateSel.IsLDT(), newCPL)
	m.EIP = gate.GateOff
	if f := m.Push(uint32(oldSS)); f != nil {
		return f
	}
	if f := m.Push(oldESP); f != nil {
		return f
	}
	if f := m.Push(uint32(oldCS)); f != nil {
		return f
	}
	if f := m.Push(retEIP); f != nil {
		return f
	}
	return nil
}

// lretTransfer performs a far return, optionally releasing n extra
// bytes of stack. A far return to a *numerically higher* RPL lowers
// the privilege level; this is how Palladium's Prepare routine
// transfers control "downhill" into an extension, twisting the x86
// call/return asymmetry (a more privileged segment cannot far-call a
// less privileged one, but it can far-return into it).
func (m *Machine) lretTransfer(n uint32) *mmu.Fault {
	retEIP, f := m.Pop()
	if f != nil {
		return f
	}
	csWord, f := m.Pop()
	if f != nil {
		return f
	}
	newCS := mmu.Selector(uint16(csWord))
	if newCS.RPL() < m.CPL() {
		return m.gpf("lret to more privileged level")
	}
	target, f := m.checkCodeTarget(newCS)
	if f != nil {
		return f
	}
	if !target.Conforming && target.DPL != newCS.RPL() {
		return m.gpf("lret: code segment DPL != return RPL")
	}
	m.Regs[isa.ESP] += n
	if newCS.RPL() == m.CPL() {
		m.Clock.Charge(m.Model, cycles.LretSame)
		m.CS = newCS
		m.EIP = retEIP
		return nil
	}

	// Privilege-lowering return: pop the outer SS:ESP.
	m.Clock.Charge(m.Model, cycles.LretInter)
	newESP, f := m.Pop()
	if f != nil {
		return f
	}
	ssWord, f := m.Pop()
	if f != nil {
		return f
	}
	newCPL := newCS.RPL()
	m.CS = newCS
	m.EIP = retEIP
	m.SS = mmu.Selector(uint16(ssWord))
	m.Regs[isa.ESP] = newESP + n
	m.nullInvalidDataSegs(newCPL)
	return nil
}

// intTransfer vectors through an interrupt gate. software=true applies
// the DPL check that stops unprivileged code from raising kernel-only
// vectors.
func (m *Machine) intTransfer(vector uint8, software bool) *mmu.Fault {
	gate, ok := m.IDT[vector]
	if !ok || gate.Kind != mmu.SegIntGate {
		return m.gpf("int: no gate for vector")
	}
	if software && m.CPL() > gate.DPL {
		return m.gpf("int: gate DPL below caller privilege")
	}
	target, f := m.checkCodeTarget(gate.GateSel)
	if f != nil {
		return f
	}
	m.Clock.Charge(m.Model, cycles.IntGate)
	retEIP := m.EIP + isa.InstrSlot
	oldCS, oldFlags := m.CS, m.Flags.pack()
	if target.DPL < m.CPL() {
		oldSS, oldESP := m.SS, m.Regs[isa.ESP]
		newCPL := target.DPL
		m.SS = m.TSS.SS[newCPL]
		m.Regs[isa.ESP] = m.TSS.ESP[newCPL]
		m.CS = mmu.MakeSelector(gate.GateSel.Index(), gate.GateSel.IsLDT(), newCPL)
		if f := m.Push(uint32(oldSS)); f != nil {
			return f
		}
		if f := m.Push(oldESP); f != nil {
			return f
		}
	} else {
		m.CS = mmu.MakeSelector(gate.GateSel.Index(), gate.GateSel.IsLDT(), m.CPL())
	}
	if f := m.Push(oldFlags); f != nil {
		return f
	}
	if f := m.Push(uint32(oldCS)); f != nil {
		return f
	}
	if f := m.Push(retEIP); f != nil {
		return f
	}
	m.EIP = gate.GateOff
	return nil
}

// iretTransfer returns from an interrupt frame.
func (m *Machine) iretTransfer() *mmu.Fault {
	retEIP, f := m.Pop()
	if f != nil {
		return f
	}
	csWord, f := m.Pop()
	if f != nil {
		return f
	}
	flagsWord, f := m.Pop()
	if f != nil {
		return f
	}
	newCS := mmu.Selector(uint16(csWord))
	if newCS.RPL() < m.CPL() {
		return m.gpf("iret to more privileged level")
	}
	if _, f := m.checkCodeTarget(newCS); f != nil {
		return f
	}
	if newCS.RPL() == m.CPL() {
		m.Clock.Charge(m.Model, cycles.Iret)
		m.CS = newCS
		m.EIP = retEIP
		m.Flags = unpackFlags(flagsWord)
		return nil
	}
	m.Clock.Charge(m.Model, cycles.IretInter)
	newESP, f := m.Pop()
	if f != nil {
		return f
	}
	ssWord, f := m.Pop()
	if f != nil {
		return f
	}
	m.CS = newCS
	m.EIP = retEIP
	m.Flags = unpackFlags(flagsWord)
	m.SS = mmu.Selector(uint16(ssWord))
	m.Regs[isa.ESP] = newESP
	m.nullInvalidDataSegs(newCS.RPL())
	return nil
}

// nullInvalidDataSegs emulates the x86 rule that, on a return to a
// less privileged level, data segment registers whose descriptors are
// more privileged than the new CPL are loaded with the null selector,
// preventing the outer code from inheriting inner-segment access.
func (m *Machine) nullInvalidDataSegs(newCPL int) {
	for _, sr := range []*mmu.Selector{&m.DS, &m.ES} {
		if sr.IsNull() {
			continue
		}
		d := m.MMU.Descriptor(*sr)
		if d == nil {
			*sr = 0
			continue
		}
		if d.Kind == mmu.SegData && d.DPL < newCPL {
			*sr = 0
		}
	}
}
