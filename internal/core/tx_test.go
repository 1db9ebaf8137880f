package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/isa"
)

// scribbler loads scribble_escape, which writes its own data and then
// escapes its segment, into a fresh segment of s.
func scribbler(tb testing.TB, s *core.System) *core.KernelExtensionFunc {
	tb.Helper()
	seg, err := s.NewExtSegment("tx", 0)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Insmod(seg, isa.MustAssemble("scribbler", core.ScribbleEscapeSrc)); err != nil {
		tb.Fatal(err)
	}
	f, ok := s.ExtensionFunction("scribble_escape")
	if !ok {
		tb.Fatal("scribble_escape not exported")
	}
	return f
}

// TestInvokeTxReleasesFrozenClone: a transaction drops its frozen clone
// whether it commits or rolls back, so every frame of the live system
// is sole-owned again afterwards and a store into an already-written
// frame copies nothing. A leaked freeze would keep the frames shared
// and make every later write fault a copy.
func TestInvokeTxReleasesFrozenClone(t *testing.T) {
	s, fn, stage := fig7Filter(t)
	bad := scribbler(t, s)
	pkt := fig7Packet()
	stage(pkt)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"commit", func() error {
			_, err := fn.InvokeTx(filter.HeaderLen)
			return err
		}},
		{"rollback", func() error {
			if _, err := bad.InvokeTx(0); !errors.Is(err, core.ErrKernelExtensionRolledBack) {
				return err
			}
			return nil
		}},
	} {
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		phys := s.K.Phys
		if sole, n := phys.SoleOwnerFrames(), phys.FrameCount(); sole != n {
			t.Errorf("%s: %d of %d frames sole-owned", tc.name, sole, n)
		}
		_, copies0, _ := phys.COWStats()
		stage(pkt)
		if _, copies, _ := phys.COWStats(); copies != copies0 {
			t.Errorf("%s: a store into the staged frame made %d copy-on-write copies", tc.name, copies-copies0)
		}
	}
}

// TestResetAllocatesNothing: resetting a clone of a system that holds a
// kernel extension onto its template allocates nothing, the entry
// points included (they are reallocated only when they differ).
func TestResetAllocatesNothing(t *testing.T) {
	s, _, _ := fig7Filter(t)
	c, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	reset := func() {
		c.ResetTo(s)
	}
	reset()
	if n := testing.AllocsPerRun(100, reset); n != 0 {
		t.Errorf("ResetTo allocated %v times per reset, want 0", n)
	}
}

// BenchmarkInvokeTx measures a transactional call. commit runs the
// Figure 7 filter: the system is frozen in a clone, the call runs and
// the clone is released. rollback runs scribble_escape, which faults,
// so the system is also reset onto the frozen clone. CI guards the
// ns/op and allocs/op of both.
func BenchmarkInvokeTx(b *testing.B) {
	b.Run("commit", func(b *testing.B) {
		_, fn, stage := fig7Filter(b)
		stage(fig7Packet())
		call := func() {
			if _, err := fn.InvokeTx(filter.HeaderLen); err != nil {
				b.Fatal(err)
			}
		}
		call()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			call()
		}
	})
	b.Run("rollback", func(b *testing.B) {
		s, _, _ := fig7Filter(b)
		bad := scribbler(b, s)
		call := func() {
			if _, err := bad.InvokeTx(0); !errors.Is(err, core.ErrKernelExtensionRolledBack) {
				b.Fatal(err)
			}
		}
		call()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			call()
		}
	})
}
