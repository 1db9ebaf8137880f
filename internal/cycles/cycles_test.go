package cycles

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if ALU.String() != "ALU" {
		t.Errorf("ALU.String() = %q", ALU.String())
	}
	if LcallGateInter.String() != "LcallGateInter" {
		t.Errorf("LcallGateInter.String() = %q", LcallGateInter.String())
	}
	if Kind(999).String() == "" {
		t.Error("out-of-range kind must still format")
	}
}

func TestMeasuredAnchors(t *testing.T) {
	m := Measured()
	// Anchors from the paper (Table 1 and section 5.1).
	if got := m.Cost(LcallGateInter); got != 75 {
		t.Errorf("lcall inter = %v cycles, paper measured 75", got)
	}
	if got := m.Cost(SegRegLoad); got != 12 {
		t.Errorf("segment register load = %v cycles, paper measured 12", got)
	}
	// Table 1 "Calling function" row: lret (inter) + call = 34.
	if got := m.Cost(LretInter) + m.Cost(CallNear); got != 34 {
		t.Errorf("lret+call = %v cycles, paper measured 34", got)
	}
	// Table 1 "Restoring state" row: two loads + ret = 7.
	if got := 2*m.Cost(Load) + m.Cost(RetNear); got != 7 {
		t.Errorf("restore = %v cycles, paper measured 7", got)
	}
}

func TestManualCheaperThanMeasured(t *testing.T) {
	meas, man := Measured(), Manual()
	for k := Kind(0); k < numKinds; k++ {
		if man.Cost(k) > meas.Cost(k) {
			t.Errorf("%s: manual %v > measured %v; the manual model excludes hazards and must not exceed measurements",
				k, man.Cost(k), meas.Cost(k))
		}
	}
}

func TestSegRegLoadManualRange(t *testing.T) {
	// Paper: "2 to 3 cycles according to Intel's architecture manual".
	c := Manual().Cost(SegRegLoad)
	if c < 2 || c > 3 {
		t.Errorf("manual segment register load = %v, want within [2,3]", c)
	}
}

func TestWithCost(t *testing.T) {
	base := Measured()
	mod := base.WithCost(LcallGateInter, 10)
	if mod.Cost(LcallGateInter) != 10 {
		t.Errorf("override not applied: %v", mod.Cost(LcallGateInter))
	}
	if base.Cost(LcallGateInter) != 75 {
		t.Errorf("WithCost mutated the receiver: %v", base.Cost(LcallGateInter))
	}
	if mod.Cost(CallNear) != base.Cost(CallNear) {
		t.Error("WithCost must preserve other kinds")
	}
}

func TestClockBasics(t *testing.T) {
	c := NewClock(200)
	if c.Cycles() != 0 {
		t.Fatal("fresh clock must read zero")
	}
	c.Add(100)
	c.Charge(Measured(), CallNear)
	if got := c.Cycles(); got != 103 {
		t.Errorf("cycles = %v, want 103", got)
	}
	if got := c.Micros(200); got != 1 {
		t.Errorf("200 cycles at 200MHz = %v us, want 1", got)
	}
	if c.MHz() != 200 {
		t.Errorf("MHz = %v", c.MHz())
	}
	c.Reset()
	if c.Cycles() != 0 {
		t.Error("reset must zero the clock")
	}
}

func TestClockSpan(t *testing.T) {
	c := NewClock(200)
	c.Add(5)
	got := c.Span(func() { c.Add(37) })
	if got != 37 {
		t.Errorf("Span = %v, want 37", got)
	}
	if c.Cycles() != 42 {
		t.Errorf("clock after span = %v, want 42", got)
	}
}

func TestClockPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero mhz", func() { NewClock(0) })
	expectPanic("negative charge", func() { NewClock(1).Add(-1) })
	expectPanic("bad kind", func() { Measured().Cost(Kind(-1)) })
}

func TestClockAdditivityProperty(t *testing.T) {
	// Charging a+b equals charging a then b: the clock is a pure
	// accumulator.
	f := func(a, b uint16) bool {
		c1 := NewClock(200)
		c1.Add(float64(a) + float64(b))
		c2 := NewClock(200)
		c2.Add(float64(a))
		c2.Add(float64(b))
		return c1.Cycles() == c2.Cycles()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMicrosRoundTripProperty(t *testing.T) {
	c := NewClock(200)
	f := func(n uint32) bool {
		cyc := float64(n)
		got := c.Micros(cyc) * c.MHz()
		diff := got - cyc
		if diff < 0 {
			diff = -diff
		}
		return diff <= cyc*1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
