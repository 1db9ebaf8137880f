package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// The decoded-block cache is the one code cache: the decode, heat and
// invalidation unit of Run's dispatch loop. Each slot carries its
// decoded instruction and the fetch's build-time addresses. Run
// dispatches one block at a time and counts each dispatch of a block
// toward its promotion into a trace (trace.go), which is built from the
// cached blocks, stored on its entry block and is the one compiled
// executor; until then, the block's slots run through Step. A trace is
// bounded, evicted and invalidated with its entry block.
//
// A block is a straight-line run of predecoded instructions starting at
// a linear EIP; the segment-level fetch checks (code-segment type, DPL,
// limit) are performed once at build time and revalidated wholesale
// through cache invalidation, while the page-level check — the one with
// architecturally visible side effects (TLB hit/miss statistics,
// page-walk cycle charges, page-privilege faults) — still happens per
// executed instruction (Step's full check, or the trace's page-head
// check and counted guaranteed hits), so cycle and TLB accounting is
// bit-for-bit what the uncached interpreter produced.
//
// Invalidation:
//   - GDT descriptor mutations and whole-image restores advance
//     mmu.SegGen, which is part of every block's tag
//     (gen), killing all blocks at once. Pure paging events (CR3
//     loads, invlpg) advance only mmu.TransGen: they do not invalidate
//     blocks — the live per-execution page check follows remaps
//     lazily, exactly as the uncached interpreter would — but any such
//     event fired from a timer hook at a trace's entry makes it finish
//     one step uncached and re-dispatch from live state.
//   - SetBreak/ClearBreak and RegisterService
//     invalidate exactly the cached blocks whose linear range covers
//     the armed address, with their traces, and detach every other
//     block's trace whose fused range covers it (breakpoints and
//     trusted endpoints must be honoured mid-run by the very next
//     instruction).
//   - InstallCode/RemoveCode invalidate the blocks whose decoded
//     instructions came from any touched physical page, with their
//     traces, and detach every other block's trace that decoded from
//     one, matched through per-block and per-trace page bloom filters
//     (false positives only cost a rebuild) behind a machine-wide
//     aggregate bloom that rejects non-overlapping installs in O(1).
//
// The linear envelope and the aggregate bloom cover every trace's
// fused range and pages as well as the blocks' own (registerTrace
// widens them), so their O(1) rejections never skip a trace.
//
// Blocks whose generation is no longer current can never tag-match
// again (the generation is monotonic), so the address- and page-keyed
// invalidation scans skip them.
const (
	// blockCacheSize is the number of direct-mapped block slots.
	blockCacheSize = 1 << blockIndexBits
	// maxBlockLen caps the instructions decoded per block.
	maxBlockLen = 128
)

// noBlocks is the empty block table every machine starts with, so a
// machine that never builds a block (a transaction's frozen clone)
// allocates no table. Nothing writes to it: only a build stores a
// block, and the build first gives the machine its own table; every
// other writer runs only while blocks are live.
var noBlocks [blockCacheSize]*codeBlock

// blockSlot is one predecoded instruction of a cached block.
type blockSlot struct {
	ins *isa.Instr
	eip uint32 // segment-relative address of the fetch
	lin uint32 // linear address of the fetch
	pa  uint32 // physical address the decode came from
}

// codeBlock is a cached straight-line run. end is the linear address
// one past the last slot, for break/service range invalidation.
type codeBlock struct {
	lin   uint32
	end   uint32
	base  uint32 // code-segment base at build time (lin - slots[0].eip)
	cs    mmu.Selector
	gen   uint64 // mmu.SegGen at build time
	pages uint64 // bloom over the physical pages the decode read
	slots []blockSlot

	// Trace tier (see trace.go). hot counts Run's dispatches of this
	// block; at Machine.TraceThreshold the block is promoted to a trace
	// entry. trace is the compiled superblock rooted here (nil when
	// none); traceFailed remembers that no useful trace starts here so
	// the dispatcher stops retrying until the block itself is rebuilt.
	hot         uint32
	trace       *trace
	traceFailed bool
}

// pageBloomBit maps a physical address to its bloom bit.
func pageBloomBit(pa uint32) uint64 {
	return 1 << ((pa >> mem.PageShift) & 63)
}

// blockIndexBits is log2(blockCacheSize).
const blockIndexBits = 11

// blockIndex maps a block's linear start address to its cache slot by
// a multiplicative (Fibonacci) hash of the instruction-slot number,
// taking the product's top blockIndexBits bits. A low-bits index
// ((lin/InstrSlot) & 2047) would alias every address congruent mod
// 8 KiB: the kernel's Prepare stub (0xC4000000), an extension's entry
// (0xC8010000) and the extension's next page (0xC8012000), which every
// protected call runs, would share slot 0 and evict each other. The
// hash mixes the high bits into the slot, and any two block starts
// fewer than 987 instruction slots apart still land in different slots.
func blockIndex(lin uint32) uint32 {
	return ((lin / isa.InstrSlot) * 0x9E3779B1) >> (32 - blockIndexBits)
}

// lookupBlock returns the cached block starting at lin under the
// current code segment and segment-check generation, or nil.
func (m *Machine) lookupBlock(lin uint32, gen uint64) *codeBlock {
	b := m.blocks[blockIndex(lin)]
	if b != nil && b.lin == lin && b.cs == m.CS && b.gen == gen {
		m.bcHits++
		return b
	}
	return nil
}

// buildBlock decodes a straight-line run starting at CS:EIP (whose
// linear address is lin) and caches it. It performs no charged or
// counted work: segment checks are free in the cycle model, and page
// translation uses MMU.PeekPage, so the charged, counted page check
// still happens on every execution. Returns nil when not even the first
// instruction is fetchable here — the caller then takes the uncached
// path, which raises the appropriate fault with the appropriate
// charges.
func (m *Machine) buildBlock(lin uint32, gen uint64) *codeBlock {
	cpl := m.CPL()
	b := &codeBlock{lin: lin, cs: m.CS, gen: gen, base: lin - m.EIP}
	eip := m.EIP
	for len(b.slots) < maxBlockLen {
		flin, f := m.MMU.CheckSegment(m.CS, eip, isa.InstrSlot, mmu.Execute, cpl)
		if f != nil {
			break
		}
		// A block interior must be free of breakpoints and service
		// endpoints: Run checks those only at block entry, and a trace
		// fused from the block would run past them. (The entry address
		// itself was just checked by Run.)
		if len(b.slots) > 0 && (m.breaks[flin] || m.services[flin] != nil) {
			break
		}
		pa, ok := m.MMU.PeekPage(flin)
		if !ok {
			break
		}
		ins := m.code[pa]
		if ins == nil {
			break
		}
		b.slots = append(b.slots, blockSlot{ins: ins, eip: eip, lin: flin, pa: pa})
		b.pages |= pageBloomBit(pa)
		if ins.Op.TransfersControl() {
			break
		}
		eip += isa.InstrSlot
	}
	if len(b.slots) == 0 {
		return nil
	}
	b.end = b.slots[len(b.slots)-1].lin + isa.InstrSlot

	m.bcBuilds++
	if m.blocks == &noBlocks {
		m.blocks = new([blockCacheSize]*codeBlock)
	}
	idx := blockIndex(lin)
	if m.blocks[idx] == nil {
		m.liveBlocks++
	}
	// Maintain the conservative [blockMin, blockMax) envelope over all
	// live blocks so address-keyed invalidation can reject misses in
	// O(1). It only grows (evictions leave it wide); it re-anchors
	// whenever the cache refills from empty.
	if m.liveBlocks == 1 && m.blocks[idx] == nil {
		// First live block after an empty cache: anchor the envelope.
		m.blockMin, m.blockMax = b.lin, b.end
	} else {
		m.blockMin = min(m.blockMin, b.lin)
		m.blockMax = max(m.blockMax, b.end)
	}
	m.blocksBloom |= b.pages
	m.blocks[idx] = b
	return b
}

// invalidateBlocksAt drops every cached block whose linear range
// covers lin, with its trace, and detaches every other block's trace
// whose fused range covers it; used when a breakpoint or service
// endpoint is armed or disarmed at that address. Blocks from an older
// translation generation are unreachable (lookup requires the live
// generation) and are skipped.
func (m *Machine) invalidateBlocksAt(lin uint32) {
	if m.liveBlocks == 0 || lin < m.blockMin || lin >= m.blockMax {
		return
	}
	gen := m.MMU.SegGen()
	for i, b := range m.blocks {
		if b == nil || b.gen != gen {
			continue
		}
		if b.lin <= lin && lin < b.end {
			m.dropBlock(i)
		} else if tr := b.trace; tr != nil && tr.lo <= lin && lin < tr.hi {
			m.detachTrace(b)
		}
	}
}

// invalidateBlocksByPages drops every cached block that may have
// decoded instructions from a physical page in the bloom set, with its
// trace, and detaches every other block's trace that may have; used
// when code is installed or removed. The machine-wide aggregate bloom
// (the union of every cached block's and trace's page set,
// conservatively stale across invalidations) rejects non-overlapping
// installs without scanning the cache.
func (m *Machine) invalidateBlocksByPages(pages uint64) {
	if m.liveBlocks == 0 || m.blocksBloom&pages == 0 {
		return
	}
	gen := m.MMU.SegGen()
	for i, b := range m.blocks {
		if b == nil || b.gen != gen {
			continue
		}
		if b.pages&pages != 0 {
			m.dropBlock(i)
		} else if tr := b.trace; tr != nil && tr.pages&pages != 0 {
			m.detachTrace(b)
		}
	}
}

// dropBlock invalidates the block in cache slot i, and its trace.
func (m *Machine) dropBlock(i int) {
	if m.blocks[i].trace != nil {
		m.trStats.Invalidated++
	}
	m.blocks[i] = nil
	m.liveBlocks--
	m.bcInvalidations++
}

// detachTrace invalidates b's trace and keeps b; the next dispatches
// of b may promote it again.
func (m *Machine) detachTrace(b *codeBlock) {
	b.trace = nil
	m.trStats.Invalidated++
}

// clearBlockCache empties the decoded-block cache, traces included, and
// resets the invalidation envelope and aggregate page bloom; used when
// a rewind (ResetTo over a changed code map, LoadFrom) may put
// different code behind the same physical addresses.
func (m *Machine) clearBlockCache() {
	if m.liveBlocks == 0 {
		return
	}
	for i := range m.blocks {
		m.blocks[i] = nil
	}
	m.liveBlocks = 0
	m.blockMin, m.blockMax = 0, 0
	m.blocksBloom = 0
}

// BlockCacheStats reports decoded-block cache counters: cached-block
// dispatches through the block map, block builds, and explicit
// invalidations.
func (m *Machine) BlockCacheStats() (hits, builds, invalidations uint64) {
	return m.bcHits, m.bcBuilds, m.bcInvalidations
}

// ChainStats reports the trace tier's guaranteed-hit fetches: executed
// fetches that took no page check of their own because an earlier
// fetch in the same dispatch checked their page, each counted as a TLB
// hit. Its first value, chained block dispatches, is always 0: blocks
// are no longer chained, and the two-value shape stays only for
// existing callers.
func (m *Machine) ChainStats() (chainHits, fastFetches uint64) {
	return 0, m.bcFastFetches
}
