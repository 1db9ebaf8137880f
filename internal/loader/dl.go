package loader

import (
	"fmt"
	"maps"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// UserSpace adapts a user process to the loader's Space interface.
// Allocation goes through mmap regions (demand paging pre-touched so
// the loader can copy immediately); text installation resolves each
// page's frame individually, since frames are not physically
// contiguous.
type UserSpace struct {
	K *kernel.Kernel
	P *kernel.Process
}

// AllocRange implements Space using an anonymous mmap.
func (u *UserSpace) AllocRange(size uint32, name string, writable, ppl1 bool) (uint32, error) {
	if size == 0 {
		size = 1
	}
	var addr uint32
	var err error
	// Text and GOT pages must be materialized writable for the copy,
	// then protection is adjusted; data stays writable.
	if ppl1 {
		addr, err = u.P.MmapPPL1(u.K, 0, size, true, name)
	} else {
		addr, err = u.P.Mmap(u.K, 0, size, true, name)
	}
	if err != nil {
		return 0, err
	}
	if err := u.P.Touch(u.K, addr, size); err != nil {
		return 0, err
	}
	if !writable {
		if err := u.P.Mprotect(u.K, addr, false); err != nil {
			return 0, err
		}
	}
	return addr, nil
}

// FreeRange implements Space.
func (u *UserSpace) FreeRange(addr uint32) error { return u.P.Munmap(u.K, addr) }

// Write implements Space with kernel privilege (the loader is trusted).
func (u *UserSpace) Write(addr uint32, b []byte) error {
	// Bypass page write protection: the loader writes via physical
	// frames exactly like the kernel's copy path, but must tolerate
	// read-only targets (text pages during install). Page-wise: one
	// translation per page, not one per byte.
	total := len(b)
	err := mem.ForEachPageRun(addr, total, func(lin uint32, n int) error {
		e := u.P.AS.Lookup(lin)
		if !e.Present() {
			return fmt.Errorf("loader: page not present at %#x", lin)
		}
		u.K.Phys.WriteBytes(e.Frame()|lin&mem.PageMask, b[:n])
		b = b[n:]
		return nil
	})
	if err != nil {
		return err
	}
	u.K.Clock.Add(u.K.Costs.CopyPerByte * float64(total))
	return nil
}

// InstallText implements Space, resolving instruction slots' physical
// addresses through the process page tables one page-contiguous run at
// a time (one lookup and one block-cache invalidation per page, not
// per instruction).
func (u *UserSpace) InstallText(addr uint32, text []isa.Instr) error {
	for i := 0; i < len(text); {
		lin := addr + uint32(i)*isa.InstrSlot
		e := u.P.AS.Lookup(lin)
		if !e.Present() {
			return fmt.Errorf("loader: text page not present at %#x", lin)
		}
		n := int((mem.PageSize - lin&mem.PageMask) / isa.InstrSlot)
		if n > len(text)-i {
			n = len(text) - i
		}
		u.K.Machine.InstallCode(e.Frame()|lin&mem.PageMask, text[i:i+n])
		i += n
	}
	return nil
}

// RemoveText implements Space.
func (u *UserSpace) RemoveText(addr uint32, n int) error {
	for i := 0; i < n; {
		lin := addr + uint32(i)*isa.InstrSlot
		e := u.P.AS.Lookup(lin)
		c := int((mem.PageSize - lin&mem.PageMask) / isa.InstrSlot)
		if c > n-i {
			c = n - i
		}
		if e.Present() {
			u.K.Machine.RemoveCode(e.Frame()|lin&mem.PageMask, c)
		}
		i += c
	}
	return nil
}

// SetWritable implements Space.
func (u *UserSpace) SetWritable(addr, size uint32, writable bool) error {
	return u.P.Mprotect(u.K, addr, writable)
}

// DL is the per-process dynamic loader: the simulated equivalent of
// ld.so plus the dlopen/dlsym/dlclose API. Symbols are bound eagerly.
type DL struct {
	K       *kernel.Kernel
	P       *kernel.Process
	space   *UserSpace
	images  []*Image
	globals map[string]uint32
	handles map[int]*Image
	nextH   int
}

// NewDL creates the dynamic loader for a process.
func NewDL(k *kernel.Kernel, p *kernel.Process) *DL {
	return &DL{
		K: k, P: p,
		space:   &UserSpace{K: k, P: p},
		globals: make(map[string]uint32),
		handles: make(map[int]*Image),
		nextH:   1,
	}
}

// Space exposes the process-backed loader space.
func (d *DL) Space() Space { return d.space }

// Resolve looks a symbol up in the process's global symbol table.
func (d *DL) Resolve(name string) (uint32, bool) {
	a, ok := d.globals[name]
	return a, ok
}

// Define publishes a symbol (an application service's gate, say). Only
// tests call it, the loader's and the core package's; it is kept
// because tests in several packages share it.
func (d *DL) Define(name string, addr uint32) { d.globals[name] = addr }

// chargeOpen prices the dynamic-library open path: the paper measures
// dlopen of the null extension at about 400 microseconds.
func (d *DL) chargeOpen(obj *isa.Object) {
	c := d.K.Costs
	pages := float64((obj.TextBytes()+uint32(len(obj.Data))+obj.BSSSize)/mem.PageSize + 2)
	d.K.Clock.Add(c.DlopenBase + c.DlopenPerPage*pages + c.DlopenPerSymbol*float64(len(obj.Symbols)+len(obj.Relocs)))
}

// Dlopen loads a shared object with GOT/PLT indirection and eager
// binding, publishing its global symbols. It returns a handle for
// Dlsym/Dlclose.
func (d *DL) Dlopen(obj *isa.Object, opt Options) (int, *Image, error) {
	d.chargeOpen(obj)
	im, err := Load(obj, d.space, d.Resolve, opt)
	if err != nil {
		return 0, nil, err
	}
	d.images = append(d.images, im)
	for _, g := range im.Globals {
		d.globals[g] = im.Syms[g]
	}
	h := d.nextH
	d.nextH++
	d.handles[h] = im
	return h, im, nil
}

// Dlsym resolves a symbol in a loaded image. As in the paper, it
// returns the raw address — Palladium's seg_dlsym (in the core
// package) wraps it to hand out Prepare stubs for function symbols.
func (d *DL) Dlsym(handle int, name string) (uint32, error) {
	im := d.handles[handle]
	if im == nil {
		return 0, fmt.Errorf("dlsym: bad handle %d", handle)
	}
	if a, ok := im.Lookup(name); ok {
		return a, nil
	}
	return 0, fmt.Errorf("dlsym: %q not found in %s", name, im.Name)
}

// Dlclose unloads the image.
func (d *DL) Dlclose(handle int) error {
	im := d.handles[handle]
	if im == nil {
		return fmt.Errorf("dlclose: bad handle %d", handle)
	}
	delete(d.handles, handle)
	for _, g := range im.Globals {
		if d.globals[g] == im.Syms[g] {
			delete(d.globals, g)
		}
	}
	for i, x := range d.images {
		if x == im {
			d.images = append(d.images[:i], d.images[i+1:]...)
			break
		}
	}
	return im.Unload()
}

// ResetTo rewinds the loader state in place to t, the loader it was
// cloned from with CloneFor, and reports whether it could: it cannot
// once an image was opened or closed since, and the caller then clones
// t's state afresh. Only the global-symbol table can change without
// either, so it alone is refilled.
func (d *DL) ResetTo(t *DL) bool {
	if d.nextH != t.nextH || len(d.images) != len(t.images) || len(d.handles) != len(t.handles) {
		return false
	}
	if !maps.Equal(d.globals, t.globals) {
		clear(d.globals)
		maps.Copy(d.globals, t.globals)
	}
	return true
}

// CloneFor copies the dynamic-loader state onto a cloned kernel and
// process: every image is rebound to the clone's loader space, and the
// handle and global-symbol tables are duplicated. The returned map
// translates source images to their rebound counterparts so callers
// can rewire their own references (core.App.Libc and friends).
func (d *DL) CloneFor(k *kernel.Kernel, p *kernel.Process) (*DL, map[*Image]*Image) {
	c := &DL{
		K: k, P: p,
		space:   &UserSpace{K: k, P: p},
		globals: make(map[string]uint32, len(d.globals)),
		handles: make(map[int]*Image, len(d.handles)),
		nextH:   d.nextH,
	}
	for n, a := range d.globals {
		c.globals[n] = a
	}
	imap := make(map[*Image]*Image, len(d.images))
	for _, im := range d.images {
		im2 := im.Rebind(c.space)
		imap[im] = im2
		c.images = append(c.images, im2)
	}
	for h, im := range d.handles {
		c.handles[h] = imap[im]
	}
	return c, imap
}
