package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadWrite8(t *testing.T) {
	p := NewPhysical()
	p.Write8(0x1234, 0xAB)
	if got := p.Read8(0x1234); got != 0xAB {
		t.Errorf("Read8 = %#x, want 0xAB", got)
	}
	if got := p.Read8(0x1235); got != 0 {
		t.Errorf("untouched byte = %#x, want 0", got)
	}
}

func TestReadWrite32LittleEndian(t *testing.T) {
	p := NewPhysical()
	p.Write32(0x100, 0xDEADBEEF)
	if got := p.Read8(0x100); got != 0xEF {
		t.Errorf("low byte = %#x, want 0xEF (little endian)", got)
	}
	if got := p.Read32(0x100); got != 0xDEADBEEF {
		t.Errorf("Read32 = %#x", got)
	}
}

func TestWord32AcrossPageBoundary(t *testing.T) {
	p := NewPhysical()
	addr := uint32(PageSize - 2)
	p.Write32(addr, 0x11223344)
	if got := p.Read32(addr); got != 0x11223344 {
		t.Errorf("straddling Read32 = %#x", got)
	}
	if p.FrameCount() != 2 {
		t.Errorf("frames touched = %d, want 2", p.FrameCount())
	}
}

func TestBytesAndZero(t *testing.T) {
	p := NewPhysical()
	src := []byte("palladium")
	p.WriteBytes(0x2000, src)
	if got := p.FrameView(0x2000)[:len(src)]; !bytes.Equal(got, src) {
		t.Errorf("WriteBytes read back %q", got)
	}
	p.Zero(0x2000, 4)
	if got := p.FrameView(0x2000)[:len(src)]; !bytes.Equal(got, append([]byte{0, 0, 0, 0}, src[4:]...)) {
		t.Errorf("after Zero = %q", got)
	}
}

func TestSparseness(t *testing.T) {
	p := NewPhysical()
	p.Write8(0, 1)
	p.Write8(0xFFFF_F000, 1)
	if p.FrameCount() != 2 {
		t.Errorf("sparse memory touched %d frames, want 2", p.FrameCount())
	}
}

func TestWrite32ReadBack32Property(t *testing.T) {
	p := NewPhysical()
	f := func(addr, v uint32) bool {
		p.Write32(addr, v)
		return p.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrite32ByteDecompositionProperty(t *testing.T) {
	p := NewPhysical()
	f := func(addr, v uint32) bool {
		p.Write32(addr, v)
		for i := uint32(0); i < 4; i++ {
			if p.Read8(addr+i) != byte(v>>(8*i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameAllocator(t *testing.T) {
	a := NewFrameAllocator(0x10000, 3*PageSize)
	if a.Available() != 3 {
		t.Fatalf("available = %d, want 3", a.Available())
	}
	f1, err := a.Alloc()
	if err != nil || f1 != 0x10000 {
		t.Fatalf("first frame = %#x, err %v", f1, err)
	}
	f2, _ := a.Alloc()
	f3, _ := a.Alloc()
	if f2 == f1 || f3 == f2 || f3 == f1 {
		t.Fatal("allocator returned duplicate frames")
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("allocation beyond the limit must fail")
	}
	a.Free(f2)
	if a.Available() != 1 {
		t.Errorf("available after free = %d, want 1", a.Available())
	}
	f4, err := a.Alloc()
	if err != nil || f4 != f2 {
		t.Errorf("reuse after free = %#x, want %#x", f4, f2)
	}
}

func TestFrameAllocatorAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned region must panic")
		}
	}()
	NewFrameAllocator(123, PageSize)
}

func TestFrameAllocatorUniqueProperty(t *testing.T) {
	// All frames handed out between frees are distinct and page
	// aligned.
	a := NewFrameAllocator(0, 64*PageSize)
	seen := make(map[uint32]bool)
	for {
		f, err := a.Alloc()
		if err != nil {
			break
		}
		if f&PageMask != 0 {
			t.Fatalf("unaligned frame %#x", f)
		}
		if seen[f] {
			t.Fatalf("duplicate frame %#x", f)
		}
		seen[f] = true
	}
	if len(seen) != 64 {
		t.Errorf("allocated %d frames, want 64", len(seen))
	}
}
