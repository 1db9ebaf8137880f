package cpu

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/mmu"
)

// TestLoadFromHugeCodeCountBounded patches the code-entry count of a
// real image to the largest value the static cap allows. The decoder
// must reject it with a typed error before presizing the code map: an
// eager make(map, 1<<26) alone allocates gigabytes.
func TestLoadFromHugeCodeCountBounded(t *testing.T) {
	h := newHarness(t)
	h.mapAt(0x8000, false, true)
	h.install(0x8000, `
		.global start
		start:
			mov eax, 1
			ret
	`)
	var e mem.Enc
	h.m.SaveTo(&e)
	img := e.Data()

	// Clock and MHz (16), registers (32), EIP (4), four selectors (8),
	// flags (4), TSS (18), then the IDT count — this machine has no IDT
	// gates — and then the code count.
	const codeCountOff = 16 + 32 + 4 + 8 + 4 + 18 + 4
	if len(h.m.IDT) != 0 {
		t.Fatalf("harness machine has %d IDT gates, offsets assume none", len(h.m.IDT))
	}
	if n := binary.LittleEndian.Uint32(img[codeCountOff:]); int(n) != len(h.m.code) {
		t.Fatalf("code count at offset %d is %d, machine has %d entries", codeCountOff, n, len(h.m.code))
	}
	binary.LittleEndian.PutUint32(img[codeCountOff:], 1<<26)

	twin := newHarness(t)
	adopt := func(cr3 uint32) *mmu.AddressSpace { return mmu.AdoptAddressSpace(twin.m.Phys, twin.alloc, cr3) }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := twin.m.LoadFrom(mem.NewDec(img), adopt)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, mem.ErrCorrupt) {
		t.Fatalf("LoadFrom with a forged code count: err %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("rejecting the forged count allocated %d MiB", grew>>20)
	}
}
