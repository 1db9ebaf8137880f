package mmu

import (
	"math/bits"

	"repro/internal/mem"
)

// tlbEntry is one cached translation: the frame address with the leaf
// PTE's writable and user bits in their PTE positions, the permission
// bits consulted during the page-level check. It is the low word of a
// table slot and of a wire-image entry.
type tlbEntry uint32

// tlbEntryBits are the PTE bits a tlbEntry keeps.
const tlbEntryBits = tlbEntry(pteFrameMask | pteW | pteU)

func makeTLBEntry(leaf PTE) tlbEntry { return tlbEntry(leaf) & tlbEntryBits }

func (e tlbEntry) frame() uint32  { return uint32(e) & pteFrameMask }
func (e tlbEntry) writable() bool { return e&pteW != 0 }
func (e tlbEntry) user() bool     { return e&pteU != 0 }

const (
	// A slot packs one translation into a uint64: the tlbEntry in the
	// low 32 bits and a tag in the high 32 bits,
	//
	//	[epoch:11 | dead:1 | vpn:20].
	//
	// A slot is current when its epoch equals the TLB's; a current slot
	// is a tombstone when its dead bit is set. A zero slot is never
	// current, because the epoch runs from 1 to tlbEpochMax.
	tlbVPNBits    = 32 - mem.PageShift
	tlbDead       = 1 << tlbVPNBits
	tlbEpochShift = tlbVPNBits + 1
	tlbEpochMax   = 1<<(32-tlbEpochShift) - 1

	// tlbMinSlots is the size of a new table: 128 bytes. Tables are
	// powers of two and double before more than 3/4 of their slots
	// are current.
	tlbMinSlots = 16

	// tlbHashMul is the 32-bit golden-ratio multiplier. Region bases
	// such as 0x40000000 and 0xBFC00000 share their low VPN bits, so
	// indexing by the low bits would pile them onto one probe chain;
	// the product's top bits mix every bit of the VPN.
	tlbHashMul = 0x9E3779B1
)

// TLB is a translation lookaside buffer. As on the x86 (Figure 1), it
// is flushed whenever CR3 is loaded, i.e. on every task switch; the
// cost of refilling it afterwards is charged as TLBMiss page walks.
//
// The backing store is an open-addressed hash table keyed by virtual
// page number, probed linearly. It grows and never evicts, so hits and
// misses match, entry for entry, an unbounded map of cached pages, and
// its size follows the number of live translations rather than the
// address range they span. Every slot carries an epoch tag: Flush
// bumps the epoch, invalidating every entry in O(1) without touching
// the table, and a probe stops at the first slot whose epoch is not
// current. Invalidate leaves a tombstone so the probe chains through
// the slot stay intact.
type TLB struct {
	slots   []uint64
	shift   uint32 // 32 - log2(len(slots)): the hash keeps the top bits
	epoch   uint32
	used    int // current slots, tombstones included
	live    int
	hits    uint64
	misses  uint64
	flushes uint64
}

// NewTLB returns an empty TLB.
func NewTLB() *TLB { return newTLB(tlbMinSlots) }

// newTLB returns an empty TLB of n slots, n a power of two: a cloned
// MMU sizes its TLB from the source's, so restoring the source's
// entries does not regrow it.
func newTLB(n int) *TLB {
	t := &TLB{epoch: 1}
	t.alloc(n)
	return t
}

// alloc installs an empty table of n slots, n a power of two.
func (t *TLB) alloc(n int) {
	t.slots = make([]uint64, n)
	t.shift = uint32(32 - bits.TrailingZeros(uint(n)))
}

// peek reports the cached translation for a page without touching the
// hit/miss counters. It is the single probe implementation: the page
// check counts around it, and the CPU's block builder uses it bare
// (through MMU.PeekPage), so its stat-free pre-translation sees
// exactly the state the counted check would.
func (t *TLB) peek(page uint32) (tlbEntry, bool) {
	vpn := page >> mem.PageShift
	want := t.epoch<<tlbEpochShift | vpn
	for i := vpn * tlbHashMul >> t.shift; ; i++ {
		s := t.slots[i&uint32(len(t.slots)-1)]
		if tag := uint32(s >> 32); tag == want {
			return tlbEntry(s), true
		} else if (tag^want)>>tlbEpochShift != 0 {
			return 0, false
		}
	}
}

// insert caches e for a page. It overwrites the page's live slot if
// there is one; otherwise it takes the first tombstone on the page's
// probe chain, or else the free slot that ends the chain.
func (t *TLB) insert(page uint32, e tlbEntry) {
	vpn := page >> mem.PageShift
	want := t.epoch<<tlbEpochShift | vpn
	mask := uint32(len(t.slots) - 1)
	free := -1
	for i := vpn * tlbHashMul >> t.shift; ; i++ {
		i &= mask
		tag := uint32(t.slots[i] >> 32)
		if tag == want {
			t.slots[i] = uint64(want)<<32 | uint64(e)
			return
		}
		if tag>>tlbEpochShift == t.epoch {
			if tag&tlbDead != 0 && free < 0 {
				free = int(i)
			}
			continue
		}
		if free < 0 {
			if (t.used+1)*4 > len(t.slots)*3 {
				t.rehash()
				t.insert(page, e)
				return
			}
			t.used++
			free = int(i)
		}
		t.slots[free] = uint64(want)<<32 | uint64(e)
		t.live++
		return
	}
}

// rehash moves the live entries into a new table, dropping tombstones.
// The table doubles unless tombstones rather than live entries filled
// it, in which case it keeps its size.
func (t *TLB) rehash() {
	old, epoch := t.slots, t.epoch
	n := len(old)
	if (t.live+1)*2 > n {
		n *= 2
	}
	t.alloc(n)
	t.epoch, t.used, t.live = 1, 0, 0
	for _, s := range old {
		if vpn, ok := liveVPN(s, epoch); ok {
			t.insert(vpn<<mem.PageShift, tlbEntry(s))
		}
	}
}

// liveVPN reports the virtual page number of slot s if s holds a live
// translation under epoch.
func liveVPN(s uint64, epoch uint32) (uint32, bool) {
	tag := uint32(s >> 32)
	return tag & (tlbDead - 1), tag>>tlbEpochShift == epoch && tag&tlbDead == 0
}

// Invalidate drops the entry for one page (the invlpg instruction);
// used when the kernel changes a single mapping's permissions.
func (t *TLB) Invalidate(page uint32) {
	vpn := page >> mem.PageShift
	want := t.epoch<<tlbEpochShift | vpn
	mask := uint32(len(t.slots) - 1)
	for i := vpn * tlbHashMul >> t.shift; ; i++ {
		i &= mask
		tag := uint32(t.slots[i] >> 32)
		if tag == want {
			t.slots[i] = uint64(want|tlbDead) << 32
			t.live--
			return
		}
		if tag>>tlbEpochShift != t.epoch {
			return
		}
	}
}

// Flush empties the TLB by advancing the epoch; every entry stamped
// with an older epoch is dead.
func (t *TLB) Flush() {
	t.newEpoch()
	t.flushes++
}

// newEpoch makes every slot stale. When the epoch field wraps, the
// table is cleared, so no slot can carry a future epoch.
func (t *TLB) newEpoch() {
	t.epoch++
	if t.epoch > tlbEpochMax {
		clear(t.slots)
		t.epoch = 1
	}
	t.used, t.live = 0, 0
}

// Stats reports hit/miss/flush counters.
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}

// restoreFrom rewinds this TLB to the state of s, another TLB (a
// clone's, a template's or a decoded image's): its counters and live
// entries. The table keeps its memory. The epoch is never rewound,
// since a slot this TLB stamped under an earlier epoch would turn
// current again: the restore moves to a fresh epoch and copies in s's
// live entries, so restoring from an empty TLB is O(1) and allocates
// nothing.
func (t *TLB) restoreFrom(s *TLB) {
	t.newEpoch()
	t.hits, t.misses, t.flushes = s.hits, s.misses, s.flushes
	if s.live == 0 {
		return
	}
	for _, e := range s.slots {
		if vpn, ok := liveVPN(e, s.epoch); ok {
			t.insert(vpn<<mem.PageShift, tlbEntry(e))
		}
	}
}

// Len reports the number of live entries.
func (t *TLB) Len() int { return t.live }
