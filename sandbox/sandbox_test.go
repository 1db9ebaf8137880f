package sandbox

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

const doubleSrc = `
	.global double
	.text
	double:
		mov eax, [esp+4]
		add eax, eax
		ret
`

const spinSrc = `
	.global spin
	.text
	spin:
		jmp spin
`

func newHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Sys.K.CreateProcess(); err != nil {
		t.Fatal(err)
	}
	return h
}

func load(t *testing.T, h *Host, backend, src, entry string, opts LoadOptions) Extension {
	t.Helper()
	b, err := Open(backend, h)
	if err != nil {
		t.Fatal(err)
	}
	opts.Entry = entry
	ext, err := b.Load(isa.MustAssemble(entry, src), opts)
	if err != nil {
		t.Fatalf("%s load: %v", backend, err)
	}
	return ext
}

func TestRegistryHasSixBackends(t *testing.T) {
	want := []string{"bpf", "direct", "palladium-kernel", "palladium-user", "rpc", "sfi"}
	got := Backends()
	if len(got) != len(want) {
		t.Fatalf("backends = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backends = %v, want %v", got, want)
		}
	}
	if _, err := Open("no-such-backend", newHost(t)); err == nil {
		t.Fatal("Open of unknown backend succeeded")
	}
}

func TestSameObjectSameResultAcrossNativeBackends(t *testing.T) {
	for _, backend := range []string{"direct", "palladium-user", "palladium-kernel", "sfi", "rpc"} {
		t.Run(backend, func(t *testing.T) {
			h := newHost(t)
			ext := load(t, h, backend, doubleSrc, "double", LoadOptions{})
			v, err := ext.Invoke(21)
			if err != nil {
				t.Fatal(err)
			}
			if v != 42 {
				t.Fatalf("double(21) = %d under %s", v, backend)
			}
			st := ext.Stats()
			if st.Invocations != 1 || st.Faults != 0 || st.SimCycles <= 0 {
				t.Errorf("stats = %+v", st)
			}
			if ext.Backend() != backend {
				t.Errorf("Backend() = %q", ext.Backend())
			}
		})
	}
}

func TestTimeLimitAcrossBackends(t *testing.T) {
	// The same runaway extension hits the TimeLimit class under every
	// native backend, whether the mechanism has a built-in budget
	// (palladium-*) or the adapter arms one (direct, sfi, rpc).
	for _, backend := range []string{"direct", "palladium-user", "palladium-kernel", "sfi", "rpc"} {
		t.Run(backend, func(t *testing.T) {
			h := newHost(t)
			ext := load(t, h, backend, spinSrc, "spin", LoadOptions{})
			_, err := ext.Invoke(0, WithTimeLimit(50_000))
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("err = %v, want *Fault", err)
			}
			if f.Class != TimeLimit {
				t.Fatalf("class = %v, want TimeLimit (%v)", f.Class, err)
			}
			if !errors.Is(err, core.ErrTimeLimit) {
				t.Errorf("underlying ErrTimeLimit not preserved: %v", err)
			}
		})
	}
}

// TestDirectTimeLimitAddsNoTickSubscriber: a time-limited direct
// invocation arms the kernel's limiter instead of subscribing to the
// timer tick, so after many limited calls the kernel holds as many tick
// subscribers as a booted twin that made none — the count the system
// image must match to load into the twin.
func TestDirectTimeLimitAddsNoTickSubscriber(t *testing.T) {
	boot := func() (*Host, Extension) {
		h := newHost(t)
		return h, load(t, h, "direct", doubleSrc, "double", LoadOptions{})
	}
	h, ext := boot()
	for i := range 100 {
		if v, err := ext.Invoke(21, WithTimeLimit(50_000)); err != nil || v != 42 {
			t.Fatalf("call %d: double(21) = %d, %v", i, v, err)
		}
	}
	var e mem.Enc
	h.Sys.SaveTo(&e)
	twin, _ := boot()
	if err := twin.Sys.LoadFrom(mem.NewDec(e.Data())); err != nil {
		t.Fatalf("image after 100 time-limited direct calls does not load into a booted twin: %v", err)
	}
}

func TestWithTxRollsBackUserFault(t *testing.T) {
	// A faulting palladium-user invocation under WithTx restores the
	// exact pre-call machine: the simulated clock (and with it every
	// other metric) rewinds to the snapshot.
	h := newHost(t)
	ext := load(t, h, "palladium-user", `
		.global bad
		.text
		bad:
			mov [0x08000000], eax
			ret
	`, "bad", LoadOptions{})
	before := h.Sys.K.Clock.Cycles()
	_, err := ext.Invoke(0, WithTx())
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if !f.RolledBack {
		t.Errorf("fault not marked rolled back: %+v", f)
	}
	if got := h.Sys.K.Clock.Cycles(); got != before {
		t.Errorf("clock = %v after rollback, want %v", got, before)
	}
	// A rolled-back transaction contributes nothing to SimCycles (the
	// restore rewound the clock before the stats were taken).
	if st := ext.Stats(); st.SimCycles != 0 || st.Faults != 1 {
		t.Errorf("post-rollback stats = %+v, want 0 SimCycles and 1 fault", st)
	}
	// The extension stays usable: state was restored, not aborted.
	if _, err := ext.Invoke(0, WithTx()); err == nil {
		t.Error("second faulting call unexpectedly succeeded")
	}
}

func TestAsyncQueueBoundAndDrainOnRelease(t *testing.T) {
	// The kernel segment's bounded queue surfaces as Backpressure
	// through the adapter, and Release drains accepted work instead
	// of dropping it.
	h := newHost(t)
	ext := load(t, h, "palladium-kernel", `
		.global tally
		.text
		tally:
			mov eax, [counter]
			add eax, [esp+4]
			mov [counter], eax
			ret
		.data
		.global counter
		counter: .word 0
	`, "tally", LoadOptions{SharedSymbol: "counter", AsyncBound: 2})
	for i := 0; i < 2; i++ {
		if _, err := ext.Invoke(1, WithAsync()); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	_, err := ext.Invoke(1, WithAsync())
	var f *Fault
	if !errors.As(err, &f) || f.Class != Backpressure {
		t.Fatalf("overflow err = %v, want Backpressure fault", err)
	}
	if !errors.Is(err, core.ErrAsyncBackpressure) {
		t.Errorf("typed core backpressure error not preserved: %v", err)
	}
	if p := ext.Stats().Pending; p != 2 {
		t.Fatalf("pending = %d, want 2", p)
	}
	// Release drains both accepted requests before reclaiming.
	if err := ext.Release(); err != nil {
		t.Fatal(err)
	}
	st, ok := ext.(Stager)
	if !ok {
		t.Fatal("kernel extension lost its stager")
	}
	_ = st
	// After release the extension is revoked.
	_, err = ext.Invoke(1)
	if !errors.As(err, &f) || f.Class != Revoked {
		t.Fatalf("post-release err = %v, want Revoked fault", err)
	}
}

func TestKernelLoadFailureReclaimsSegment(t *testing.T) {
	// A Load that fails after Insmod (bad entry name) must not leak
	// the segment's Extension Function Table registrations.
	h := newHost(t)
	b, err := Open("palladium-kernel", h)
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Load(isa.MustAssemble("double", doubleSrc), LoadOptions{Entry: "typo"})
	var f *Fault
	if !errors.As(err, &f) || f.Class != ValidationReject {
		t.Fatalf("load err = %v, want ValidationReject", err)
	}
	if _, ok := h.Sys.ExtensionFunction("double"); ok {
		t.Error("failed load left the module's entry points registered")
	}
	// A corrected retry works cleanly.
	ext, err := b.Load(isa.MustAssemble("double", doubleSrc), LoadOptions{Entry: "double"})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ext.Invoke(21); err != nil || v != 42 {
		t.Errorf("retry invoke = %d, %v", v, err)
	}
}

func TestGenericAsyncQueueOnUserBackend(t *testing.T) {
	h := newHost(t)
	ext := load(t, h, "direct", doubleSrc, "double", LoadOptions{AsyncBound: 3})
	for i := 0; i < 3; i++ {
		if _, err := ext.Invoke(uint32(i), WithAsync()); err != nil {
			t.Fatal(err)
		}
	}
	var f *Fault
	if _, err := ext.Invoke(9, WithAsync()); !errors.As(err, &f) || f.Class != Backpressure {
		t.Fatalf("overflow err = %v, want Backpressure", err)
	}
	q, ok := ext.(AsyncQueue)
	if !ok {
		t.Fatal("direct extension does not queue")
	}
	n, err := q.Drain()
	if err != nil || n != 3 {
		t.Fatalf("drain = %d, %v", n, err)
	}
	if ext.Stats().Invocations != 3 {
		t.Errorf("drained invocations = %d", ext.Stats().Invocations)
	}
}

func TestSFIConfinesOutOfBoundsWrite(t *testing.T) {
	// The mechanism difference the taxonomy must NOT paper over: the
	// same out-of-bounds store that faults under Palladium is silently
	// confined by SFI's address masking — no fault, overhead paid up
	// front instead.
	h := newHost(t)
	ext := load(t, h, "sfi", `
		.global oob
		.text
		oob:
			mov ecx, 0x08000000
			mov eax, 7
			mov [ecx], eax
			ret
	`, "oob", LoadOptions{})
	if _, err := ext.Invoke(0); err != nil {
		t.Fatalf("sfi-confined write faulted: %v", err)
	}
}
