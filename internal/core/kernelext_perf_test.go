package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/filter"
)

// fig7Filter boots a system with a current process and loads Figure 7's
// 4-term compiled filter into a fresh kernel extension segment. It
// returns the system, the entry and a stager for packet headers.
func fig7Filter(tb testing.TB) (*core.System, *core.KernelExtensionFunc, func([]byte)) {
	tb.Helper()
	s, err := core.NewSystem(cycles.Measured())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.K.CreateProcess(); err != nil {
		tb.Fatal(err)
	}
	obj, entry, err := filter.CompileObject(filter.TermsTrueFor(fig7Packet(), 4))
	if err != nil {
		tb.Fatal(err)
	}
	seg, err := s.NewExtSegment(obj.Name, 0)
	if err != nil {
		tb.Fatal(err)
	}
	im, err := s.Insmod(seg, obj)
	if err != nil {
		tb.Fatal(err)
	}
	fn, ok := s.ExtensionFunction(entry)
	if !ok {
		tb.Fatalf("%s not exported", entry)
	}
	off, ok := im.Lookup("shared_area")
	if !ok {
		tb.Fatal("shared_area not found")
	}
	stage := func(b []byte) {
		if err := s.WriteShared(seg, off, b); err != nil {
			tb.Fatal(err)
		}
	}
	return s, fn, stage
}

// fig7Packet is the header of the Figure 7 packet.
func fig7Packet() []byte { return filter.MakeUDPPacket(53, 53, 64)[:filter.HeaderLen] }

// fig7Inputs are the packet headers a call cycles through: for class k
// < 4, the byte term k tests is flipped so term k is the first false
// one; class 4 is the packet itself, every term true.
func fig7Inputs() (pkts [][]byte, class []int) {
	base := fig7Packet()
	for k, at := range []int{12, 23, 14, 30} {
		p := append([]byte(nil), base...)
		p[at] ^= 0xFF
		pkts, class = append(pkts, p), append(class, k)
	}
	return append(pkts, base), append(class, 4)
}

// TestKernelExtInvokeStaysWarm pins the protected call to warm compiled
// code. The kernel's Prepare stub (0xC4000000) and the filter's entry
// (0xC8010000) are congruent mod 8 KiB; a block-cache index that
// aliased them rebuilt three blocks on every call. After one warm call
// per input, 100 invocations of the Figure 7 filter must build no
// block, and each must charge exactly its input class's cycles (plus
// the kernel's timer-interrupt cost for each tick that fired inside it).
func TestKernelExtInvokeStaysWarm(t *testing.T) {
	// Tick-free cycles of one warm Invoke, by index of the first false
	// term (4: every term true), and the timer-interrupt cost. These
	// are the values the simulator charged before the hashed index; a
	// host-speed change must not move them.
	classCycles := [5]float64{168, 177, 186, 195, 194}
	const tickCycles = 180

	s, fn, stage := fig7Filter(t)
	ticks := 0
	s.K.OnTimerTick(func() error { ticks++; return nil })
	pkts, class := fig7Inputs()
	for _, p := range pkts {
		stage(p)
		if _, err := fn.Invoke(filter.HeaderLen); err != nil {
			t.Fatal(err)
		}
	}

	m := s.K.Machine
	_, builds0, _ := m.BlockCacheStats()
	for i := range 100 {
		j := i % len(pkts)
		stage(pkts[j])
		c0, k0 := s.Clock().Cycles(), ticks
		v, err := fn.Invoke(filter.HeaderLen)
		if err != nil {
			t.Fatal(err)
		}
		if want := class[j] == 4; (v != 0) != want {
			t.Fatalf("call %d (class %d): verdict %d, want match=%v", i, class[j], v, want)
		}
		cyc, nt := s.Clock().Cycles()-c0, ticks-k0
		if want := classCycles[class[j]] + float64(nt)*tickCycles; cyc != want {
			t.Errorf("call %d (class %d): %v cycles with %d ticks, want %v", i, class[j], cyc, nt, want)
		}
	}
	if _, builds, _ := m.BlockCacheStats(); builds != builds0 {
		t.Errorf("100 warm invocations built %d blocks, want 0", builds-builds0)
	}
}

// BenchmarkKernelExtInvoke measures one warm protected call into a
// kernel extension: stage a packet header, then invoke the Figure 7
// filter through the Prepare and Transfer stubs. CI guards its ns/op;
// builds/op must stay at 0 once the call is warm.
func BenchmarkKernelExtInvoke(b *testing.B) {
	s, fn, stage := fig7Filter(b)
	pkts, _ := fig7Inputs()
	for _, p := range pkts {
		stage(p)
		if _, err := fn.Invoke(filter.HeaderLen); err != nil {
			b.Fatal(err)
		}
	}
	m := s.K.Machine
	_, builds0, _ := m.BlockCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage(pkts[i%len(pkts)])
		if _, err := fn.Invoke(filter.HeaderLen); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, builds, _ := m.BlockCacheStats()
	b.ReportMetric(float64(builds-builds0)/float64(b.N), "builds/op")
}
