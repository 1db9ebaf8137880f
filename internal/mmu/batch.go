package mmu

// Trace-scoped batched accounting.
//
// The CPU's trace tier executes a fused superblock with hot state in
// locals and commits accounting once per exit. Its accesses run the
// same page check as the CPU's Step — CheckPageBatched,
// which CheckPage and TranslateProbed also run — handing it a
// dispatch-local counter in place of the TLB's hit counter. A miss is
// never batched: it charges a page walk to the simulated clock and
// fills the TLB live. The trace adds its batch to the TLB wholesale at
// commit (TLB.AddHits), so the observable sequence of hits, misses,
// charges and faults is exactly the uncached interpreter's; only the
// moment the hit counter moves differs, which no simulated metric can
// see. The trace tier keeps its own dispatch-scoped operand caches
// over TranslateBatched's results (see the CPU's traceOp); this file
// supplies only the commit and the probe's bounds they are built from.

// AddHits credits n TLB hits at once: the commit half of the trace
// tier's batched fetch/operand accounting. Each credited hit stands
// for one page-level check that was individually guaranteed to hit
// (the CPU's trace fetch and operand accounting); the counter
// effect is that of n hitting lookups — hits+n, misses+0, no charge.
func (t *TLB) AddHits(n uint64) { t.hits += n }

// Base reports the probe's cached segment base; Limit its cached
// limit. The CPU's trace tier derives its per-op dispatch-scoped
// operand cache from these after a successful TranslateBatched, so the
// probe remains the single source of truth.
func (p *SegProbe) Base() uint32  { return p.base }
func (p *SegProbe) Limit() uint32 { return p.limit }
