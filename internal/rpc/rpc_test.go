package rpc

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/kernel"
)

func newLoop(t *testing.T) *Loopback {
	t.Helper()
	k, err := kernel.New(cycles.Measured())
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoopback(k)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTable2RPCAnchors(t *testing.T) {
	// Table 2: Linux RPC for the string-reverse server: 349.19 us at
	// 32 bytes rising to 423.33 us at 256 bytes. Accept +-10%.
	l := newLoop(t)
	cases := []struct {
		n    int
		want float64 // microseconds
	}{
		{32, 349.19},
		{64, 352.55},
		{128, 374.20},
		{256, 423.33},
	}
	for _, c := range cases {
		cyc := l.Call(c.n, c.n, 0)
		us := l.K.Clock.Micros(cyc)
		if us < c.want*0.9 || us > c.want*1.1 {
			t.Errorf("RPC %dB = %.2f us, paper %.2f us", c.n, us, c.want)
		}
	}
}

func TestRPCMonotoneInSize(t *testing.T) {
	l := newLoop(t)
	prev := 0.0
	for _, n := range []int{16, 64, 256, 1024} {
		c := l.Call(n, n, 0)
		if c <= prev {
			t.Errorf("RPC cost not monotone at %dB: %v <= %v", n, c, prev)
		}
		prev = c
	}
}

func TestRPCIncludesContextSwitchesAndTLBFlushes(t *testing.T) {
	l := newLoop(t)
	_, _, before := l.K.MMU.TLB().Stats()
	l.Call(32, 32, 0)
	_, _, after := l.K.MMU.TLB().Stats()
	if after-before < 2 {
		t.Errorf("RPC round trip flushed the TLB %d times, want >= 2 (one per direction)", after-before)
	}
}

func TestRPCServerWorkAdds(t *testing.T) {
	l := newLoop(t)
	base := l.Call(32, 32, 0)
	withWork := l.Call(32, 32, 5000)
	if diff := withWork - base; diff < 4999 || diff > 5001 {
		t.Errorf("server work delta = %v, want ~5000", diff)
	}
}

func TestL4BestCaseAnchor(t *testing.T) {
	// Section 5.1: 242 cycles for an L4 request-reply best case.
	l4 := NewL4(cycles.NewClock(200))
	if got := l4.Call(); got != 242 {
		t.Errorf("L4 round trip = %v cycles, paper 242", got)
	}
}

func TestPalladiumFasterThanL4ByAbout100Cycles(t *testing.T) {
	// "Palladium as measured on the Linux kernel is faster than the
	// best case of L4 by 100 cycles": 242 - 142 = 100.
	l4 := NewL4(cycles.NewClock(200))
	const palladiumProtectedCall = 142 // Table 1
	if diff := l4.Call() - palladiumProtectedCall; diff != 100 {
		t.Errorf("L4 - Palladium = %v cycles, paper 100", diff)
	}
}
