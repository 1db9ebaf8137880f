package core

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/loader"
)

// scribbleEscapeSrc writes into its own data, then escapes the 16 MB
// segment: a rollback must undo both the scribble and every kernel
// cost charged on the way.
const scribbleEscapeSrc = `
	.global scribble_escape
	.text
	scribble_escape:
		mov [counter], 777
		mov eax, [0x2000000]   ; 32 MB: beyond the 16 MB segment
		ret
	.data
	.global counter
	counter: .word 0
`

const incOnceSrc = `
	.global add_one
	.text
	add_one:
		mov eax, [esp+4]
		add eax, 1
		ret
`

// sysState captures every simulated observable the rollback contract
// must restore.
type sysState struct {
	memFP   uint64
	cycles  float64
	instret uint64
	hits    uint64
	misses  uint64
	flushes uint64
}

func captureSys(s *System) sysState {
	h, m, f := s.K.MMU.TLB().Stats()
	return sysState{
		memFP:   s.K.Phys.Fingerprint(),
		cycles:  s.K.Clock.Cycles(),
		instret: s.K.Machine.Instructions(),
		hits:    h, misses: m, flushes: f,
	}
}

// TestInvokeTxRollsBackFaultingExtension is the rollback anchor: after
// a faulting transactional invocation, memory (protected and kernel
// bytes included), the clock, the instruction counter and the TLB
// statistics are exactly the pre-call state; the segment stays alive
// and the victim still serves.
func TestInvokeTxRollsBackFaultingExtension(t *testing.T) {
	s := newSystem(t)
	if _, err := s.K.CreateProcess(); err != nil {
		t.Fatal(err)
	}
	seg, err := s.NewExtSegment("tx", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insmod(seg, isa.MustAssemble("scribbler", scribbleEscapeSrc)); err != nil {
		t.Fatal(err)
	}
	good, err := s.NewExtSegment("good", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insmod(good, isa.MustAssemble("inc", incOnceSrc)); err != nil {
		t.Fatal(err)
	}
	bad, _ := s.ExtensionFunction("scribble_escape")
	inc, _ := s.ExtensionFunction("add_one")

	// Warm both paths so the pre-call state is mid-life, not boot.
	if got, err := inc.Invoke(41); err != nil || got != 42 {
		t.Fatalf("warm invoke = %d, %v", got, err)
	}

	before := captureSys(s)
	_, err = bad.InvokeTx(0)
	if !errors.Is(err, ErrKernelExtensionRolledBack) {
		t.Fatalf("InvokeTx = %v, want ErrKernelExtensionRolledBack", err)
	}
	after := captureSys(s)
	if after != before {
		t.Errorf("rollback incomplete:\n before %+v\n after  %+v", before, after)
	}
	if seg.aborted {
		t.Error("segment aborted despite rollback")
	}
	if _, ok := s.ExtensionFunction("scribble_escape"); !ok {
		t.Error("EFT entry vanished despite rollback")
	}

	// The victim still serves: the good extension keeps working with
	// the exact state it had before the attack.
	if got, err := inc.Invoke(99); err != nil || got != 100 {
		t.Errorf("victim invoke after rollback = %d, %v", got, err)
	}
	// And the faulty one can be retried (and rolls back again).
	if _, err := bad.InvokeTx(0); !errors.Is(err, ErrKernelExtensionRolledBack) {
		t.Errorf("second InvokeTx = %v, want rollback", err)
	}
}

// TestInvokeTxSuccessMatchesInvoke: on the happy path the transaction
// wrapper must be invisible — same result, same cycles.
func TestInvokeTxSuccessMatchesInvoke(t *testing.T) {
	build := func() (*System, *KernelExtensionFunc) {
		s := newSystem(t)
		if _, err := s.K.CreateProcess(); err != nil {
			t.Fatal(err)
		}
		seg, err := s.NewExtSegment("m", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insmod(seg, isa.MustAssemble("inc", incOnceSrc)); err != nil {
			t.Fatal(err)
		}
		f, _ := s.ExtensionFunction("add_one")
		return s, f
	}
	s1, f1 := build()
	s2, f2 := build()
	r1, err1 := f1.Invoke(7)
	r2, err2 := f2.InvokeTx(7)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	if r1 != r2 {
		t.Errorf("results differ: %d vs %d", r1, r2)
	}
	if c1, c2 := s1.K.Clock.Cycles(), s2.K.Clock.Cycles(); c1 != c2 {
		t.Errorf("cycles differ: Invoke %v, InvokeTx %v", c1, c2)
	}
	if s1.K.Phys.Fingerprint() != s2.K.Phys.Fingerprint() {
		t.Errorf("memory differs between Invoke and InvokeTx")
	}
}

// TestSystemSnapshotRestoreDeterministic: invoking after a reset onto
// a frozen clone reproduces the invocation bit-identically.
func TestSystemSnapshotRestoreDeterministic(t *testing.T) {
	s := newSystem(t)
	if _, err := s.K.CreateProcess(); err != nil {
		t.Fatal(err)
	}
	seg, err := s.NewExtSegment("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insmod(seg, isa.MustAssemble("inc", incOnceSrc)); err != nil {
		t.Fatal(err)
	}
	f, _ := s.ExtensionFunction("add_one")
	if _, err := f.Invoke(0); err != nil { // warm
		t.Fatal(err)
	}

	frozen, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.K.Phys.Release()
	r1, err := f.Invoke(10)
	if err != nil {
		t.Fatal(err)
	}
	run1 := captureSys(s)

	s.ResetTo(frozen)
	r2, err := f.Invoke(10)
	if err != nil {
		t.Fatal(err)
	}
	run2 := captureSys(s)
	if r1 != r2 || run1 != run2 {
		t.Errorf("replay diverged: results %d/%d\n run1 %+v\n run2 %+v", r1, r2, run1, run2)
	}
}

// TestRestoreReattachesStubArena: rewinding onto a clone frozen BEFORE
// a segment's first module detaches the stub arena and drops the entry
// point, and the next Insmod then carves the arena afresh at the same
// place instead of a second one beside it.
func TestRestoreReattachesStubArena(t *testing.T) {
	s := newSystem(t)
	if _, err := s.K.CreateProcess(); err != nil {
		t.Fatal(err)
	}
	seg, err := s.NewExtSegment("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.K.Phys.Release()

	inc := isa.MustAssemble("inc", incOnceSrc)
	if _, err := s.Insmod(seg, inc); err != nil {
		t.Fatal(err)
	}
	if seg.stubs == nil {
		t.Fatal("no stub arena after Insmod")
	}
	wantBase, wantCursor := seg.stubs.base, seg.stubs.next

	s.ResetTo(frozen)
	if seg.stubs != nil {
		t.Fatal("stub arena survived the rewind to the pre-Insmod freeze")
	}
	if _, ok := s.ExtensionFunction("add_one"); ok {
		t.Fatal("EFT entry survived the rewind to the pre-Insmod freeze")
	}
	if _, err := s.Insmod(seg, inc); err != nil {
		t.Fatal(err)
	}
	if seg.stubs.base != wantBase || seg.stubs.next != wantCursor {
		t.Errorf("arena %#x cursor %#x after re-Insmod, want %#x cursor %#x",
			seg.stubs.base, seg.stubs.next, wantBase, wantCursor)
	}
	f, ok := s.ExtensionFunction("add_one")
	if !ok {
		t.Fatal("EFT entry missing after re-Insmod")
	}
	if got, err := f.Invoke(1); err != nil || got != 2 {
		t.Errorf("invoke after re-Insmod = %d, %v", got, err)
	}
}

// TestExtSegmentFreeRangeReuse is the leak-regression test for the
// formerly no-op FreeRange: loading and unloading a module in a loop
// must reuse the same segment range instead of marching the placement
// cursor to exhaustion.
func TestExtSegmentFreeRangeReuse(t *testing.T) {
	s := newSystem(t)
	seg, err := s.NewExtSegment("reuse", 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := isa.MustAssemble("mod", `
		.global f
		.text
		f:
			mov eax, 7
			ret
		.data
		.global buf
		buf: .space 8192
	`)
	resolve := func(string) (uint32, bool) { return 0, false }
	opts := loader.Options{GOT: true}

	im, err := loader.Load(obj, seg, resolve, opts)
	if err != nil {
		t.Fatal(err)
	}
	firstText := im.TextBase
	if err := im.Unload(); err != nil {
		t.Fatal(err)
	}
	cursor := seg.next
	for i := 0; i < 200; i++ {
		im, err := loader.Load(obj, seg, resolve, opts)
		if err != nil {
			t.Fatalf("iteration %d: %v (placement cursor leaked to %#x)", i, err, seg.next)
		}
		if im.TextBase != firstText {
			t.Fatalf("iteration %d: text at %#x, want reuse of %#x", i, im.TextBase, firstText)
		}
		if err := im.Unload(); err != nil {
			t.Fatal(err)
		}
	}
	if seg.next != cursor {
		t.Errorf("placement cursor leaked: %#x -> %#x over 200 load/unload cycles", cursor, seg.next)
	}
	if seg.ranges.freeBytes() == 0 {
		t.Error("free list empty after unload")
	}
}

// TestKernelTextFreeRangeReuse: the kernel text space recycles freed
// stub ranges instead of growing the kernel heap forever.
func TestKernelTextFreeRangeReuse(t *testing.T) {
	s := newSystem(t)
	ks := &kernelTextSpace{s: s}
	a, err := ks.AllocRange(3*4096, "a", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ks.FreeRange(a); err != nil {
		t.Fatal(err)
	}
	b, err := ks.AllocRange(4096, "b", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("freed range not reused: got %#x, want %#x", b, a)
	}
	c, err := ks.AllocRange(2*4096, "c", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if c != a+4096 {
		t.Errorf("remainder not reused: got %#x, want %#x", c, a+4096)
	}
	if err := ks.FreeRange(0xDEAD000); err == nil {
		t.Error("freeing an unallocated range must error")
	}
}

// freeBytes reports the total reusable bytes (leak-regression tests).
func (r *rangeList) freeBytes() uint32 {
	var n uint32
	for _, sp := range r.free {
		n += sp.size
	}
	return n
}
