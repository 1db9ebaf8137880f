package cpu

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// TestTraceOperandCacheEdges walks every fused memory-operand form one
// byte at a time across the edges a trace operand cache (opCache) must
// honour — a segment limit mid-page and at the page's last byte and the
// three before it, a page end under a flat limit (a dword straddling
// two frames), a segment base that is not page-aligned, offsets that
// wrap past 2^32, and a page whose offsets wrap so that its first
// offset lies beyond the limit — and requires the trace to match
// single-stepping on every value, fault identity, cycle, TLB hit and
// miss and COW copy. The walk is one trace dispatch, so the accesses
// at each edge hit the cache the earlier iterations filled. Every case
// runs twice: with the data frames owned by the machine, and shared
// with a clone taken just before the run.
func TestTraceOperandCacheEdges(t *testing.T) {
	const (
		pg    = 0x0040_0000 // the first of two mapped data pages
		selDS = 8
	)
	forms := []struct{ name, src string }{
		{"movb load", "movb eax, [esi]"},
		{"mov load", "mov eax, [esi]"},
		{"movb store", "movb [esi], eax"},
		{"mov store", "mov [esi], eax"},
		{"add r,m", "add eax, [esi]"},
		{"addb r,m", "addb eax, [esi]"},
		{"add m,r", "add [esi], eax"},
		{"addb m,r", "addb [esi], eax"},
		{"inc m", "inc [esi]"},
		{"incb m", "incb [esi]"},
		{"shl m", "shl [esi], 3"},
		{"xchg r,m", "xchg eax, [esi]"},
		{"xchg m,r", "xchg [esi], eax"},
		{"push/pop r", "mov esp, esi\n\tpush eax\n\tpop ebx"},
		{"push/pop m", "mov esp, esi\n\tpush [esi]\n\tpop [esi]"},
	}
	layouts := []struct {
		name               string
		base, limit, start uint32 // DS and SS; start is the first offset walked
	}{
		{"limit mid-page", 0, pg + 0x7FF, pg + 0x7FF - 40},
		{"limit at page end", 0, pg + 0xFFF, pg + 0xFFF - 40},
		{"limit at page end-1", 0, pg + 0xFFE, pg + 0xFFF - 40},
		{"limit at page end-2", 0, pg + 0xFFD, pg + 0xFFF - 40},
		{"limit at page end-3", 0, pg + 0xFFC, pg + 0xFFF - 40},
		{"flat limit across the page end", 0, 0xBFFF_FFFF, pg + 0xFFF - 40},
		{"unaligned base across the page end", 0x123, 0xBFFF_FFFF, pg + 0xFFF - 0x123 - 40},
		{"unaligned base, limit at page end-2", 0x123, pg + 0xFFD - 0x123, pg + 0xFFF - 0x123 - 40},
		{"offsets wrapping 2^32", pg + 0x800, 0xFFFF_FFFF, 0xFFFF_FFFF - 40},
		{"page offsets wrapping past the limit", pg + 0x800, 0xFFF, 0x7FF - 40},
	}
	const iters = 56
	var faults, breaks int
	for _, l := range layouts {
		for _, f := range forms {
			for _, shared := range []bool{false, true} {
				label := fmt.Sprintf("%s, %s, shared %v", l.name, f.name, shared)
				src := "entry:\nloop:\n\t" + f.src + "\n\tadd esi, 1\n\tadd eax, 0x01030507\n\tdec ecx\n\tjne loop\nstop:\n\tnop\n"
				exec := func(runner func(*Machine, RunLimits) RunResult) (*harness, RunResult, uint64) {
					h := newHarness(t)
					syms := h.install(0x0001_0000, src)
					for _, page := range []uint32{pg, pg + mem.PageSize} {
						pa := h.mapAt(page, true, true)
						for i := uint32(0); i < mem.PageSize; i++ {
							h.m.Phys.Write8(pa+i, byte(i*7+page>>12))
						}
					}
					h.m.MMU.GDT.Set(selDS, mmu.Descriptor{Kind: mmu.SegData, Base: l.base, Limit: l.limit, DPL: 3, Present: true, Writable: true})
					h.startUser(syms["entry"])
					h.m.DS, h.m.SS = gsel(selDS, 3), gsel(selDS, 3)
					h.m.SetBreak(syms["stop"])
					h.m.TraceThreshold = 2
					h.m.Regs[isa.ECX] = iters
					h.m.Regs[isa.ESI] = l.start
					h.m.Regs[isa.EAX] = 0x8070_FFFE
					if shared {
						h.clone()
					}
					_, cow0, _ := h.m.Phys.COWStats()
					res := runner(h.m, RunLimits{})
					_, cow1, _ := h.m.Phys.COWStats()
					return h, res, cow1 - cow0
				}
				hR, resR, cowR := exec((*Machine).Run)
				hS, resS, cowS := exec(stepRun)
				traceCompare(t, label, hR, hS, resR, resS)
				if cowR != cowS {
					t.Errorf("%s: COW copies %d, Step %d", label, cowR, cowS)
				}
				for _, page := range []uint32{pg, pg + mem.PageSize} {
					if r, s := readRange(t, hR, page, mem.PageSize), readRange(t, hS, page, mem.PageSize); string(r) != string(s) {
						t.Errorf("%s: page %#x differs from Step", label, page)
					}
				}
				if hR.m.TraceStats().Dispatches == 0 {
					t.Errorf("%s: the trace tier never engaged", label)
				}
				if t.Failed() {
					t.FailNow()
				}
				if resR.Reason == StopFault {
					faults++
				} else {
					breaks++
				}
			}
		}
	}
	if faults == 0 || breaks == 0 {
		t.Errorf("%d walks faulted and %d reached the end: want both", faults, breaks)
	}
}

// TestTraceSeqWrapSweep dispatches a trace across the wrap of its
// dispatch sequence number. The wrapping dispatch must sweep every op's
// fetch and operand-cache tags — a tag left from 2^32 dispatches ago
// would otherwise match and skip a check — and the whole run must still
// match single-stepping.
func TestTraceSeqWrapSweep(t *testing.T) {
	const loop = 5 // instructions per iteration of traceLoopSrc
	budgets := []uint64{2 + 10*loop, 3 * loop, 1, 0}
	exec := func(runner func(*Machine, RunLimits) RunResult, leg func(i int, h *harness)) (*harness, RunResult) {
		h := newHarness(t)
		syms := h.install(0x0001_0000, traceLoopSrc)
		h.startUser(syms["entry"])
		h.m.SetBreak(syms["stop"])
		h.m.TraceThreshold = 2
		var res RunResult
		for i, b := range budgets {
			if leg != nil {
				leg(i, h)
			}
			res = runner(h.m, RunLimits{MaxInstructions: b})
			if b > 1 && (res.Reason != StopBudget || h.m.EIP != syms["loop"]) {
				t.Fatalf("leg %d: stop %v at %#x, want the budget at loop %#x", i, res.Reason, h.m.EIP, syms["loop"])
			}
		}
		return h, res
	}
	var tr *trace
	hR, resR := exec((*Machine).Run, func(i int, h *harness) {
		switch i {
		case 1:
			trs := liveTraces(h.m)
			if len(trs) != 1 {
				t.Fatalf("%d traces after warm-up, want 1", len(trs))
			}
			tr = trs[0]
			tr.seq = math.MaxUint32 - 1
		case 2:
			// The last dispatch ran at seq MaxUint32 and tagged every op
			// it executed with it: the entry's fetch check, the load and
			// the store.
			stale := 0
			for _, op := range tr.ops {
				for _, s := range []uint32{op.fseq, op.r.seq, op.w.seq} {
					if s == math.MaxUint32 {
						stale++
					}
				}
			}
			if tr.seq != math.MaxUint32 || stale != 3 {
				t.Fatalf("before the wrap: seq %d, %d tags at MaxUint32; want MaxUint32 and 3", tr.seq, stale)
			}
		case 3:
			// The wrapping dispatch retired one op: seq restarted at 1,
			// every tag was swept, and only the entry op's fetch check
			// tagged again.
			if tr.seq != 1 {
				t.Fatalf("after the wrap: seq %d, want 1", tr.seq)
			}
			for j, op := range tr.ops {
				fseq := uint32(0)
				if j == 0 {
					fseq = 1
				}
				if op.fseq != fseq || op.r.seq != 0 || op.w.seq != 0 {
					t.Fatalf("after the wrap: op %d tags fetch %d, read %d, write %d; want %d, 0, 0",
						j, op.fseq, op.r.seq, op.w.seq, fseq)
				}
			}
		}
	})
	hS, resS := exec(stepRun, nil)
	if resR.Reason != StopBreak {
		t.Fatalf("stop = %v (%v), want the break", resR.Reason, resR.Err)
	}
	traceCompare(t, "seq wrap", hR, hS, resR, resS)
	if tr.seq < 2 {
		t.Errorf("the trace never dispatched after the wrap (seq %d)", tr.seq)
	}
}

// TestTraceOpSize caps a fused instruction's footprint: every traced
// instruction costs one traceOp, and with the two operand caches the op
// fits in 192 bytes.
func TestTraceOpSize(t *testing.T) {
	if n := unsafe.Sizeof(traceOp{}); n > 200 {
		t.Errorf("traceOp is %d bytes, want at most 200", n)
	}
}
