package kernel

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
)

// TestCostSheetWireCoverage: costsFields lists every CostSheet field
// exactly once, so a cost added to the struct cannot silently drop out
// of the byte image.
func TestCostSheetWireCoverage(t *testing.T) {
	var c CostSheet
	listed := map[*float64]bool{}
	for _, p := range costsFields(&c) {
		if listed[p] {
			t.Errorf("costsFields lists a field twice")
		}
		listed[p] = true
	}
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		p, ok := f.Addr().Interface().(*float64)
		if !ok {
			t.Errorf("CostSheet.%s is %v; the wire format encodes float64 costs only", v.Type().Field(i).Name, f.Type())
			continue
		}
		if !listed[p] {
			t.Errorf("CostSheet.%s is missing from costsFields", v.Type().Field(i).Name)
		}
	}
	if len(listed) != v.NumField() {
		t.Errorf("costsFields lists %d fields, CostSheet has %d", len(listed), v.NumField())
	}
}

// kernelWithFreeStacks boots a kernel, creates four processes and exits
// all but the current one, so three kernel-stack slots wait on the free
// list.
func kernelWithFreeStacks(t *testing.T) *Kernel {
	t.Helper()
	k := boot(t)
	var ps []*Process
	for i := 0; i < 4; i++ {
		p, err := k.CreateProcess()
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps[1:] {
		k.Exit(p, 0)
	}
	if len(k.freeKStacks) != 3 {
		t.Fatalf("free list holds %d slots after 3 exits, want 3", len(k.freeKStacks))
	}
	return k
}

// TestExitFreesKernelStackOnce: the last slot given back serves the next
// process, and exiting an exited process gives nothing back again.
func TestExitFreesKernelStackOnce(t *testing.T) {
	k := boot(t)
	p, err := k.CreateProcess()
	if err != nil {
		t.Fatal(err)
	}
	k.Exit(p, 0)
	k.Exit(p, 1)
	if len(k.freeKStacks) != 1 {
		t.Fatalf("two exits of one process freed %d slots", len(k.freeKStacks))
	}
	a, err := k.CreateProcess()
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.CreateProcess()
	if err != nil {
		t.Fatal(err)
	}
	if a.KStackTop != p.KStackTop || b.KStackTop == p.KStackTop {
		t.Errorf("kernel stacks %#x and %#x after an exit of %#x, want the first reused only", a.KStackTop, b.KStackTop, p.KStackTop)
	}
}

// TestKStackFreeListCloneReset: Clone and ResetTo carry the free list
// by value. A reset clone matches a fresh one, and clones of one
// template popping and pushing slots never see each other's.
func TestKStackFreeListCloneReset(t *testing.T) {
	k := kernelWithFreeStacks(t)
	live, err := k.CreateProcess() // leaves spare capacity behind the list
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(k.freeKStacks)
	c1, err := k.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := k.Clone()
	if err != nil {
		t.Fatal(err)
	}
	exitNew := func(c *Kernel) uint32 {
		p, err := c.CreateProcess()
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.CreateProcess()
		if err != nil {
			t.Fatal(err)
		}
		c.Exit(p, 0) // in creation order: the list comes back reversed
		c.Exit(q, 0)
		return p.KStackTop
	}
	exitNew(c1)
	c1.ResetTo(k)
	if !slices.Equal(c1.freeKStacks, want) || c1.nextKStack != k.nextKStack {
		t.Fatalf("reset clone has free list %#x cursor %#x, template %#x cursor %#x", c1.freeKStacks, c1.nextKStack, want, k.nextKStack)
	}
	c1.Exit(c1.Process(live.PID), 0)
	top1 := c1.freeKStacks[len(c1.freeKStacks)-1]
	c2.ResetTo(k)
	exitNew(c2)
	if got := c1.freeKStacks[len(c1.freeKStacks)-1]; got != top1 {
		t.Errorf("a sibling clone's exits rewrote this clone's free list: top %#x, want %#x", got, top1)
	}
	if !slices.Equal(k.freeKStacks, want) {
		t.Errorf("template free list changed to %#x, want %#x", k.freeKStacks, want)
	}
	fresh, err := k.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c2.ResetTo(k)
	a, b := exitNew(c2), exitNew(fresh)
	if a != b || !slices.Equal(c2.freeKStacks, fresh.freeKStacks) {
		t.Errorf("reset clone gave kernel stack %#x and free list %#x, fresh clone %#x and %#x", a, c2.freeKStacks, b, fresh.freeKStacks)
	}
}

// TestKStackFreeListImage: the free list round-trips through the byte
// image, and a crafted list or cursor is refused with ErrCorrupt.
func TestKStackFreeListImage(t *testing.T) {
	image := func(k *Kernel) []byte {
		var e mem.Enc
		k.SaveTo(&e)
		return e.Data()
	}
	load := func(img []byte) (*Kernel, error) {
		twin := boot(t)
		return twin, twin.LoadFrom(mem.NewDec(img))
	}
	k := kernelWithFreeStacks(t)
	twin, err := load(image(k))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(twin.freeKStacks, k.freeKStacks) || twin.nextKStack != k.nextKStack {
		t.Fatalf("loaded free list %#x cursor %#x, saved %#x cursor %#x", twin.freeKStacks, twin.nextKStack, k.freeKStacks, k.nextKStack)
	}
	slot := k.freeKStacks[0]
	for _, tc := range []struct {
		name   string
		free   []uint32
		cursor uint32
	}{
		{"duplicate", []uint32{slot, slot}, k.nextKStack},
		{"at cursor", []uint32{k.nextKStack}, k.nextKStack},
		{"below region", []uint32{kStackBase - kStackSlot}, k.nextKStack},
		{"misaligned", []uint32{slot + mem.PageSize}, k.nextKStack},
		{"too many", make([]uint32, maxProcesses+1), k.nextKStack},
		{"cursor off grid", nil, k.nextKStack + mem.PageSize},
		{"cursor in heap", nil, kHeapBase + kStackSlot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			free, cursor := k.freeKStacks, k.nextKStack
			k.freeKStacks, k.nextKStack = tc.free, tc.cursor
			img := image(k)
			k.freeKStacks, k.nextKStack = free, cursor
			if _, err := load(img); !errors.Is(err, mem.ErrCorrupt) {
				t.Errorf("load = %v, want ErrCorrupt", err)
			}
		})
	}
}
