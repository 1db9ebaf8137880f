// Snapshot-to-bytes serialization of the physical frame store.
//
// The on-wire view is refcount-free and logical: just the resident
// frames in ascending frame-number order, each as its index plus
// either a zero marker or its 4096 raw bytes. COW sharing, chunk
// structure and slab placement are host-side representation and are
// reconstructed, not serialized — two Physicals that Fingerprint
// equally serialize identically regardless of how their frames came
// to be shared.
package mem

import "fmt"

// physMagic/physVersion frame a standalone Physical image (SaveBytes).
// Composed images (whole machines) embed SaveTo output inside their
// own envelope instead.
const (
	physMagic   = "PALLPHYS"
	physVersion = 2
)

// totalFrames is the number of addressable 4 KB frames in the 4 GB
// simulated physical space.
const totalFrames = physRootSize * physChunkSize

// zeroPage is the reference all-zero frame contents; frames equal to
// it serialize as a one-byte marker instead of 4096 zeros.
var zeroPage [PageSize]byte

// SaveTo appends the deterministic serialization of every resident
// frame to e. Layout:
//
//	frameCount u32
//	repeat frameCount times, ascending frame number:
//	  fn u32 | flag u8 (0 = all-zero frame, 1 = raw) | data[4096] if raw
//	cowCopies u64
func (p *Physical) SaveTo(e *Enc) {
	n := 0
	for _, c := range &p.root {
		if c == nil {
			continue
		}
		for _, f := range &c.frames {
			if f != nil {
				n++
			}
		}
	}
	e.U32(uint32(n))
	for ci, c := range &p.root {
		if c == nil {
			continue
		}
		for fi, f := range &c.frames {
			if f == nil {
				continue
			}
			e.U32(uint32(ci)<<physChunkBits | uint32(fi))
			if f.data == zeroPage {
				e.U8(0)
			} else {
				e.U8(1)
				e.Raw(f.data[:])
			}
		}
	}
	e.U64(p.cowCopies)
}

// LoadFrom decodes a SaveTo image from d and replaces this Physical's
// contents with it. The image is decoded and validated into a staging
// frame table first; on any error the receiver is untouched — a
// corrupt image can never produce a half-loaded memory. On success the
// previous frame table is released and the restore hook fires (the
// MMU invalidates translation-keyed decode state).
func (p *Physical) LoadFrom(d *Dec) error {
	staging, err := decodePhysical(d)
	if err != nil {
		return err
	}
	p.adopt(staging)
	return nil
}

// decodePhysical decodes a SaveTo image into a fresh staging Physical
// (carrying the decoded copy-on-write count in its own field) without
// touching any live machine.
func decodePhysical(d *Dec) (*Physical, error) {
	staging := NewPhysical()
	n := d.Len("frame", totalFrames)
	last := -1
	for i := 0; i < n; i++ {
		fn := d.U32()
		flag := d.U8()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if int(fn) <= last {
			d.Failf("frame %#x out of order after %#x", fn, last)
			return nil, d.Err()
		}
		if fn >= totalFrames {
			d.Failf("frame number %#x out of range", fn)
			return nil, d.Err()
		}
		last = int(fn)
		f := staging.newFrame()
		switch flag {
		case 0: // born zeroed
		case 1:
			raw := d.Raw(PageSize)
			if raw == nil {
				return nil, d.Err()
			}
			copy(f.data[:], raw)
		default:
			d.Failf("frame %#x has unknown flag %#x", fn, flag)
			return nil, d.Err()
		}
		ci := fn >> physChunkBits
		c := staging.root[ci]
		if c == nil {
			c = newChunk()
			staging.root[ci] = c
		}
		c.frames[fn&(physChunkSize-1)] = f
		staging.touched++
	}
	staging.cowCopies = d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return staging, nil
}

// PhysImage is a decoded-but-not-yet-applied physical memory image:
// the staging half of the two-phase load that composed (whole-machine)
// decoders use to keep their all-or-nothing contract — decode and
// validate every layer first, adopt only when nothing can fail
// anymore. Single use: adopt an image into exactly one Physical.
type PhysImage struct {
	staging *Physical
}

// DecodePhysImage decodes a SaveTo image into staging without touching
// any live Physical.
func DecodePhysImage(d *Dec) (*PhysImage, error) {
	staging, err := decodePhysical(d)
	if err != nil {
		return nil, err
	}
	return &PhysImage{staging: staging}, nil
}

// AdoptImage replaces this Physical's contents with a decoded image,
// releasing the previous frame table and firing the restore hook.
func (p *Physical) AdoptImage(img *PhysImage) {
	if img.staging == nil {
		panic("mem: PhysImage adopted twice")
	}
	p.adopt(img.staging)
	img.staging = nil
}

// adopt swaps the staging frame table into p, releases the previous
// one and fires the restore hook.
func (p *Physical) adopt(staging *Physical) {
	old := p.root
	p.root = staging.root
	p.touched = staging.touched
	p.cowCopies = staging.cowCopies
	for _, c := range &old {
		if c != nil {
			releaseChunk(c)
		}
	}
	if p.onRestore != nil {
		p.onRestore()
	}
}

// SaveBytes serializes the memory image into a standalone enveloped
// byte slice; LoadBytes restores it exactly (same Fingerprint, same
// FrameCount, same COWStats).
func (p *Physical) SaveBytes() []byte {
	var e Enc
	p.SaveTo(&e)
	return Seal(physMagic, physVersion, e.Data())
}

// LoadBytes replaces this Physical's contents with a SaveBytes image.
// On error (truncated, corrupted, wrong magic/version) the receiver is
// untouched.
func (p *Physical) LoadBytes(data []byte) error {
	payload, err := Open(physMagic, physVersion, data)
	if err != nil {
		return err
	}
	d := NewDec(payload)
	staging, err := decodePhysical(d)
	if err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after frame image", ErrCorrupt, d.Remaining())
	}
	p.adopt(staging)
	return nil
}

// Release drops every frame reference this Physical holds, leaving it
// empty. An ephemeral clone must be released when discarded: its
// references are what mark the template's frames shared, and leaking
// them would force the template to COW-copy on every later write
// (falsely-shared frames) and would pin dead private frames resident
// (leaked frames). The unused slab tail and the free list are dropped
// too, so a released Physical that is still referenced pins no frame
// memory.
func (p *Physical) Release() { p.ReleaseTo(nil) }

// ReleaseTo is Release for a clone frozen from q (a transaction's
// frozen clone), called by the goroutine that owns q: each frame whose
// last reference p held goes on q's free list while it has room, so
// q's next copy-on-write faults reuse the frames the frozen clone kept
// instead of allocating new ones.
func (p *Physical) ReleaseTo(q *Physical) {
	for ci, c := range &p.root {
		if c != nil {
			releaseChunkTo(c, q)
			p.root[ci] = nil
		}
	}
	p.touched = 0
	p.slab = nil
	p.free = nil
}

// SoleOwnerFrames reports how many resident frames this Physical can
// write in place — both the chunk and the frame are unshared. After
// every clone of a template has been released, this must
// equal FrameCount: anything less means a discarded clone leaked
// references (the falsely-shared-frame bug the churn tests hammer).
func (p *Physical) SoleOwnerFrames() int {
	n := 0
	for _, c := range &p.root {
		if c == nil {
			continue
		}
		sole := c.refs.Load() == 1
		for _, f := range &c.frames {
			if f != nil && sole && f.refs.Load() == 1 {
				n++
			}
		}
	}
	return n
}

// SaveTo appends the allocator's state (cursor, limit, free list) to e.
func (a *FrameAllocator) SaveTo(e *Enc) {
	e.U32(a.next)
	e.U32(a.limit)
	e.U32(uint32(len(a.free)))
	for _, pa := range a.free {
		e.U32(pa)
	}
}

// LoadFrom decodes allocator state from d and applies it. The decoded
// limit must match this allocator's (the restore target is a twin boot
// managing the same physical region); all frames must be page-aligned
// and inside the region. On error the receiver is untouched.
func (a *FrameAllocator) LoadFrom(d *Dec) error {
	next := d.U32()
	limit := d.U32()
	n := d.Len("free frame", totalFrames)
	free := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		pa := d.U32()
		if d.Err() != nil {
			return d.Err()
		}
		if pa&PageMask != 0 || pa >= limit {
			d.Failf("freed frame %#x unaligned or outside region", pa)
			return d.Err()
		}
		free = append(free, pa)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if limit != a.limit {
		d.Failf("allocator region limit %#x does not match target %#x", limit, a.limit)
		return d.Err()
	}
	if next&PageMask != 0 || next > limit {
		d.Failf("allocator cursor %#x unaligned or past limit %#x", next, limit)
		return d.Err()
	}
	a.next = next
	a.free = free
	return nil
}
