package mem

import (
	"bytes"
	"errors"
	"testing"
)

// scribble populates p with a deterministic mix of zero, sparse and
// dense frames across several chunks.
func scribble(p *Physical) {
	for i := uint32(0); i < 40; i++ {
		pa := i * 3 * PageSize
		p.WriteBytes(pa, bytes.Repeat([]byte{byte(i + 1)}, 100+int(i)))
	}
	p.Zero(64*PageSize, 4*PageSize)          // explicit zero frames
	p.Write32((physChunkSize+7)*PageSize, 7) // second chunk
	p.Read32(200 * PageSize)                 // read-materialized zero frame
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := NewPhysical()
	scribble(p)
	c := p.Clone()
	p.Write8(0, 9) // nonzero cowCopies: the write faults the frame off c
	c.Release()
	img := p.SaveBytes()

	q := NewPhysical()
	q.Write32(5000*PageSize, 123) // pre-existing junk must be replaced
	restored := false
	q.OnRestore(func() { restored = true })
	if err := q.LoadBytes(img); err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	if !restored {
		t.Errorf("restore hook did not fire")
	}
	if got, want := q.Fingerprint(), p.Fingerprint(); got != want {
		t.Errorf("fingerprint %#x != %#x", got, want)
	}
	if q.FrameCount() != p.FrameCount() {
		t.Errorf("FrameCount %d != %d", q.FrameCount(), p.FrameCount())
	}
	_, pc, _ := p.COWStats()
	_, qc, _ := q.COWStats()
	if pc == 0 || pc != qc {
		t.Errorf("COW copies %d != %d (want nonzero)", qc, pc)
	}
	// Serialization is deterministic: a re-save is byte-identical.
	if !bytes.Equal(q.SaveBytes(), img) {
		t.Errorf("re-serialized image differs from original")
	}
}

func TestLoadBytesCorruption(t *testing.T) {
	p := NewPhysical()
	scribble(p)
	img := p.SaveBytes()
	fp := p.Fingerprint()

	fresh := func() *Physical {
		q := NewPhysical()
		q.Write8(0, 1)
		return q
	}
	check := func(t *testing.T, data []byte, want error) {
		t.Helper()
		q := fresh()
		wantFP, wantFC := q.Fingerprint(), q.FrameCount()
		err := q.LoadBytes(data)
		if err == nil {
			t.Fatalf("LoadBytes accepted bad image")
		}
		if want != nil && !errors.Is(err, want) {
			t.Errorf("error %v, want %v", err, want)
		}
		if q.Fingerprint() != wantFP || q.FrameCount() != wantFC {
			t.Errorf("failed load mutated the target (half-machine)")
		}
	}

	t.Run("empty", func(t *testing.T) { check(t, nil, ErrTruncated) })
	t.Run("truncated-header", func(t *testing.T) { check(t, img[:10], ErrTruncated) })
	for _, cut := range []int{len(img) - 1, len(img) / 2, envHdrLen + 3} {
		t.Run("truncated", func(t *testing.T) {
			// A shortened envelope fails the length/CRC checks.
			check(t, img[:cut], nil)
		})
	}
	t.Run("bad-magic", func(t *testing.T) {
		bad := bytes.Clone(img)
		bad[0] ^= 0xff
		check(t, bad, ErrBadMagic)
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := bytes.Clone(img)
		bad[envMagicLen] ^= 0xff
		check(t, bad, ErrBadVersion)
	})
	t.Run("version-1", func(t *testing.T) {
		// The version 1 layout carried two more counters; its images
		// are refused by version, whatever their payload.
		payload, err := Open(physMagic, physVersion, img)
		if err != nil {
			t.Fatal(err)
		}
		check(t, Seal(physMagic, 1, append(bytes.Clone(payload), make([]byte, 16)...)), ErrBadVersion)
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Any single flipped bit past the version field trips the CRC.
		for _, off := range []int{envHdrLen, envHdrLen + 5, len(img) / 2, len(img) - 1} {
			bad := bytes.Clone(img)
			bad[off] ^= 0x10
			check(t, bad, ErrChecksum)
		}
	})
	t.Run("structural", func(t *testing.T) {
		// Resealed (valid CRC) but structurally corrupt payloads.
		payload, err := Open(physMagic, physVersion, img)
		if err != nil {
			t.Fatal(err)
		}
		mut := func(f func(b []byte) []byte) []byte {
			return Seal(physMagic, physVersion, f(bytes.Clone(payload)))
		}
		check(t, mut(func(b []byte) []byte { b[0] = 0xff; b[1] = 0xff; b[2] = 0xff; b[3] = 0xff; return b }), ErrCorrupt) // frame count
		check(t, mut(func(b []byte) []byte { return b[:len(b)-4] }), ErrTruncated)                                        // counters cut
		check(t, mut(func(b []byte) []byte { b[4] = 0xff; b[5] = 0xff; b[6] = 0xff; b[7] = 0xff; return b }), ErrCorrupt) // first fn out of range
		check(t, mut(func(b []byte) []byte { b[8] = 7; return b }), ErrCorrupt)                                           // unknown flag
		check(t, mut(func(b []byte) []byte { return append(b, 0) }), ErrCorrupt)                                          // trailing byte
	})

	// The original stayed intact through all of this.
	if p.Fingerprint() != fp {
		t.Errorf("source Physical mutated by corruption tests")
	}
}

func TestAllocatorSaveLoad(t *testing.T) {
	a := NewFrameAllocator(0x1000_0000, 0x100_0000)
	for i := 0; i < 10; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	a.Free(0x1000_2000)
	a.Free(0x1000_5000)
	var e Enc
	a.SaveTo(&e)

	b := NewFrameAllocator(0x1000_0000, 0x100_0000)
	if err := b.LoadFrom(NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if b.next != a.next || !equalU32(b.free, a.free) {
		t.Errorf("allocator state mismatch: next %#x free %v, want %#x %v", b.next, b.free, a.next, a.free)
	}

	// Region mismatch must be rejected without touching the target.
	c := NewFrameAllocator(0x1000_0000, 0x200_0000)
	if err := c.LoadFrom(NewDec(e.Data())); !errors.Is(err, ErrCorrupt) {
		t.Errorf("limit mismatch error %v, want ErrCorrupt", err)
	}
	if c.next != 0x1000_0000 || len(c.free) != 0 {
		t.Errorf("failed allocator load mutated target")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReleaseUnsharesTemplate(t *testing.T) {
	p := NewPhysical()
	scribble(p)
	fp := p.Fingerprint()
	fc := p.FrameCount()

	clones := make([]*Physical, 8)
	for i := range clones {
		clones[i] = p.Clone()
		clones[i].Write32(uint32(i)*PageSize, uint32(i)+100)
	}
	if p.SoleOwnerFrames() != 0 {
		t.Errorf("template frames not shared while clones live")
	}
	for _, c := range clones {
		c.Release()
		if c.FrameCount() != 0 {
			t.Errorf("released clone still reports %d frames", c.FrameCount())
		}
	}
	if p.Fingerprint() != fp || p.FrameCount() != fc {
		t.Errorf("template changed by clone churn")
	}
	if got := p.SoleOwnerFrames(); got != fc {
		t.Errorf("%d of %d frames still falsely shared after release", fc-got, fc)
	}
	_, copies, _ := p.COWStats()
	p.Write8(0, p.Read8(0)) // in-place write: no COW fault after release
	if _, c2, _ := p.COWStats(); c2 != copies {
		t.Errorf("template write COW-copied after all clones released")
	}
}

// FuzzLoadBytes drives the framing decoder with arbitrary input: it
// must never panic and never leave the target half-loaded.
func FuzzLoadBytes(f *testing.F) {
	p := NewPhysical()
	scribble(p)
	img := p.SaveBytes()
	f.Add(img)
	f.Add(img[:len(img)-9])
	f.Add([]byte(physMagic))
	f.Add(Seal(physMagic, physVersion, []byte{1, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewPhysical()
		q.Write8(0, 1)
		fp, fc := q.Fingerprint(), q.FrameCount()
		if err := q.LoadBytes(data); err != nil {
			if q.Fingerprint() != fp || q.FrameCount() != fc {
				t.Fatalf("failed LoadBytes mutated target")
			}
		}
	})
}

// FuzzDec drives the primitive decoders directly.
// TestDecLenBoundedByRemaining: a count is checked against the bytes
// left as well as its static cap, so a sealed image cannot claim more
// elements than it carries and make the decoder presize a huge table.
func TestDecLenBoundedByRemaining(t *testing.T) {
	count := func(n uint32, tail int) *Dec {
		var e Enc
		e.U32(n)
		e.Raw(make([]byte, tail))
		return NewDec(e.Data())
	}
	if d := count(3, 3); d.Len("x", 1<<20) != 3 || d.Err() != nil {
		t.Fatalf("count equal to the remaining bytes rejected: %v", d.Err())
	}
	if d := count(0, 0); d.Len("x", 1<<20) != 0 || d.Err() != nil {
		t.Fatalf("empty collection rejected: %v", d.Err())
	}
	d := count(4, 3)
	if n := d.Len("x", 1<<20); n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("count 4 over 3 remaining bytes: got %d, err %v", n, d.Err())
	}
	d = count(1<<26, 100)
	if n := d.Len("x", 1<<26); n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("count 1<<26 over 100 remaining bytes: got %d, err %v", n, d.Err())
	}
}

func FuzzDec(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		d.U8()
		d.Bool()
		d.U16()
		d.U32()
		d.U64()
		d.F64()
		d.Bytes()
		_ = d.String()
		d.Len("x", 100)
		d.Raw(3)
		_ = d.Err()
	})
}
