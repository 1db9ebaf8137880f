package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/webserver"
)

// setupReps is how many times each run repeats its set-up; setup_s is
// the median.
const setupReps = 15

// counters are one machine's cumulative simulator counters, read
// through the layers' public accessors.
type counters struct {
	instr                          uint64
	blockHits, blockBuilds         uint64
	chainHits, fastFetches         uint64
	tr                             cpu.TraceStats
	tlbHits, tlbMisses, tlbFlushes uint64
	elided, cowCopies              uint64
}

func readCounters(k *kernel.Kernel) counters {
	var c counters
	m := k.Machine
	c.instr = m.Instructions()
	c.blockHits, c.blockBuilds, _ = m.BlockCacheStats()
	c.chainHits, c.fastFetches = m.ChainStats()
	c.tr = m.TraceStats()
	c.tlbHits, c.tlbMisses, c.tlbFlushes = k.MMU.TLB().Stats()
	c.elided = k.MMU.ElidedChecks()
	_, c.cowCopies, _ = k.Phys.COWStats()
	return c
}

// addDelta accumulates after-before into c.
func (c *counters) addDelta(after, before counters) {
	c.instr += after.instr - before.instr
	c.blockHits += after.blockHits - before.blockHits
	c.blockBuilds += after.blockBuilds - before.blockBuilds
	c.chainHits += after.chainHits - before.chainHits
	c.fastFetches += after.fastFetches - before.fastFetches
	c.tr.Built += after.tr.Built - before.tr.Built
	c.tr.Dispatches += after.tr.Dispatches - before.tr.Dispatches
	c.tr.SideExits += after.tr.SideExits - before.tr.SideExits
	c.tr.DeoptTick += after.tr.DeoptTick - before.tr.DeoptTick
	c.tr.DeoptFault += after.tr.DeoptFault - before.tr.DeoptFault
	c.tr.DeoptPage += after.tr.DeoptPage - before.tr.DeoptPage
	c.tr.DeoptBudget += after.tr.DeoptBudget - before.tr.DeoptBudget
	c.tlbHits += after.tlbHits - before.tlbHits
	c.tlbMisses += after.tlbMisses - before.tlbMisses
	c.tlbFlushes += after.tlbFlushes - before.tlbFlushes
	c.elided += after.elided - before.elided
	c.cowCopies += after.cowCopies - before.cowCopies
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setCounts reports the per-operation counter metrics for c summed over
// ops operations.
func (r *result) setCounts(c counters, ops int64) {
	n := uint64(ops)
	deopts := c.tr.DeoptTick + c.tr.DeoptFault + c.tr.DeoptPage + c.tr.DeoptBudget
	r.set("cpu.instructions_per_op", ratio(c.instr, n), ops)
	r.set("cpu.block_builds_per_op", ratio(c.blockBuilds, n), ops)
	r.set("cpu.block_hit_ratio", ratio(c.blockHits, c.blockHits+c.blockBuilds), ops)
	r.set("cpu.chain_hits_per_op", ratio(c.chainHits, n), ops)
	r.set("cpu.trace_dispatches_per_op", ratio(c.tr.Dispatches, n), ops)
	r.set("cpu.trace_builds_per_op", ratio(c.tr.Built, n), ops)
	r.set("cpu.trace_side_exit_ratio", ratio(c.tr.SideExits, c.tr.Dispatches), ops)
	r.set("cpu.trace_deopts_per_op", ratio(deopts, n), ops)
	r.set("cpu.fast_fetch_ratio", ratio(c.fastFetches, c.tlbHits), ops)
	r.set("mmu.tlb_hit_ratio", ratio(c.tlbHits, c.tlbHits+c.tlbMisses), ops)
	r.set("mmu.tlb_misses_per_op", ratio(c.tlbMisses, n), ops)
	r.set("mmu.tlb_flushes_per_op", ratio(c.tlbFlushes, n), ops)
	r.set("mmu.elided_checks_per_op", ratio(c.elided, n), ops)
	r.set("mem.cow_copies_per_op", ratio(c.cowCopies, n), ops)
}

// runProbes times the set-up steps every workload is built from, each
// the median of setupReps calls: booting a system, assembling and
// seg_dlopen'ing an extension, and booting, cloning, saving and
// restoring a web server. Every traced run reports them, since they are
// what setup_s is made of.
func runProbes(r *result) error {
	var s *core.System
	boot, err := timeMedian(setupReps, func() (err error) {
		s, err = core.NewSystem(cycles.Measured())
		return err
	})
	if err != nil {
		return err
	}
	var obj *isa.Object
	asm, err := timeMedian(setupReps, func() (err error) {
		obj, err = isa.Assemble("strrev", experiments.StrrevSrc)
		return err
	})
	if err != nil {
		return err
	}
	var dlopen []float64
	for i := 0; i < setupReps; i++ {
		app, err := core.NewApp(s)
		if err != nil {
			return err
		}
		if err := app.InitPL(); err != nil {
			return err
		}
		o := obj.Clone()
		t0 := time.Now()
		if _, err := app.SegDlopen(o); err != nil {
			return err
		}
		dlopen = append(dlopen, us(time.Since(t0)))
	}
	var srv *webserver.Server
	bootSrv, err := timeMedian(setupReps, func() (err error) {
		srv, err = webserver.BootServer(serveFileSize)
		return err
	})
	if err != nil {
		return err
	}
	clone, err := timeMedian(setupReps, func() error {
		c, err := srv.Clone()
		if err == nil {
			c.S.K.Phys.Release()
		}
		return err
	})
	if err != nil {
		return err
	}
	var img []byte
	save, err := timeMedian(setupReps, func() error {
		img = srv.SaveBytes()
		return nil
	})
	if err != nil {
		return err
	}
	load, err := timeMedian(setupReps, func() error {
		_, err := webserver.LoadServerBytes(img)
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.newsystem_us", us(boot), setupReps)
	r.set("isa.assemble_us", us(asm), setupReps)
	r.set("core.segdlopen_us", median(dlopen), setupReps)
	r.set("webserver.boot_ms", us(bootSrv)/1e3, setupReps)
	r.set("webserver.clone_us_p50", us(clone), setupReps)
	r.set("webserver.save_ms", us(save)/1e3, setupReps)
	r.set("webserver.load_ms", us(load)/1e3, setupReps)
	r.set("webserver.image_bytes", float64(len(img)), 1)
	return nil
}

// zeroUnset reports 0 for every per-layer metric the workload's layers
// did not produce, so each traced run emits the whole catalog.
func (r *result) zeroUnset() {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0, 0)
		}
	}
}
