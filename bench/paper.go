package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/webserver"
)

// The paper workload regenerates the paper's evaluation over and over:
// every regeneration boots fresh systems, assembles and loads
// extensions, and forks CGI children, so boot, loader and kernel
// fork/exec dominate. Its inputs are the paper's; the seed is unused.

var table2Sizes = []int{32, 64, 128, 256}

const (
	table3Requests = 20
	figure7Terms   = 4
	paperWarm      = 20 // regenerations before timing, the first of them cold
)

// regenerate runs Table 1, Table 2, Table 3 and Figure 7 once, recording
// a span around each when spans is non-nil.
func regenerate(spans *spanLog, op int64) (*paperTables, error) {
	var p paperTables
	steps := []struct {
		name string
		fn   func() error
	}{
		{"experiments.table1", func() (err error) { p.Table1, err = experiments.Table1(); return err }},
		{"experiments.table2", func() (err error) { p.Table2, err = experiments.Table2(table2Sizes); return err }},
		{"experiments.table3", func() (err error) {
			p.Table3, err = experiments.Table3(experiments.Table3Sizes(), table3Requests)
			return err
		}},
		{"experiments.figure7", func() (err error) { p.Figure7, err = experiments.Figure7(figure7Terms); return err }},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if spans != nil {
			spans.record(op, s.name, "paper.regenerate", t0, time.Since(t0))
		}
	}
	return &p, nil
}

// paperSetup boots what one regeneration is built from: a promoted
// application with an extension loaded, and a web server.
func paperSetup() error {
	s, err := core.NewSystem(cycles.Measured())
	if err != nil {
		return err
	}
	app, err := core.NewApp(s)
	if err != nil {
		return err
	}
	if err := app.InitPL(); err != nil {
		return err
	}
	if _, err := app.SegDlopen(isa.MustAssemble("strrev", experiments.StrrevSrc)); err != nil {
		return err
	}
	_, err = webserver.BootServer(serveFileSize)
	return err
}

func runPaper(cfg config, e *expected, r *result, t *tally) error {
	var (
		setup time.Duration
		err   error
	)
	slow := slowdown(func() { setup, err = timeMedian(setupReps, paperSetup) })
	if err != nil {
		return err
	}
	// The first regeneration is cold (assembler caches, first-touch
	// allocations); it is timed on its own and checked.
	t0 := time.Now()
	p, err := regenerate(nil, 0)
	cold := time.Since(t0)
	if err != nil {
		return err
	}
	checkPaper(e, p, 0, t)
	// Warm regenerations: caches the simulator bounds (the assembler's)
	// reach a state that depends on how many regenerations ran, so the
	// heap is read after a fixed number of them, not after a timed loop.
	for i := int64(1); i < paperWarm; i++ {
		p, err := regenerate(nil, 0)
		if err != nil {
			return err
		}
		checkPaper(e, p, -i, t)
	}
	r.markHeap()

	if !cfg.Trace {
		var loopErr error
		r.setLoopMetrics(cfg.Duration, func(d time.Duration) (int64, time.Duration, *sampler) {
			lat := newSampler()
			n, elapsed, err := paperLoop(e, d, t, lat, nil)
			if err != nil {
				loopErr = err
			}
			return n, elapsed, lat
		})
		r.setScaled("setup_s", setup.Seconds(), slow, setupReps)
		return loopErr
	}

	spans := newSpanLog()
	n, _, err := paperLoop(e, cfg.Duration*6/10, t, nil, spans)
	if err != nil {
		return err
	}
	r.set("experiments.cold_regen_ms", us(cold)/1e3, 1)
	for _, name := range []string{"table1", "table2", "table3", "figure7"} {
		r.set("experiments."+name+"_ms", spans.q("experiments."+name, 0.5)/1e3, n)
	}
	if err := cgiProbe(r, t); err != nil {
		return err
	}
	var loopErr error
	overhead := traceOverhead(cfg.Duration*3/10, func(d time.Duration, traced bool) int64 {
		var sl *spanLog
		if traced {
			sl = newSpanLog()
		}
		n, _, err := paperLoop(e, d, t, newSampler(), sl)
		if err != nil {
			loopErr = err
		}
		return n
	})
	if loopErr != nil {
		return loopErr
	}
	r.set("bench.trace_overhead_ratio", overhead, 1)
	r.Spans, r.Dropped = spans.spans, spans.dropped
	if err := runProbes(r); err != nil {
		return err
	}
	r.zeroUnset()
	return nil
}

// checkPaper counts regeneration n as one operation, failed unless
// every value matches the oracle.
func checkPaper(e *expected, p *paperTables, n int64, t *tally) {
	if err := e.paperMatches(p); err != nil {
		t.fail("regeneration %d: %v", n, err)
		return
	}
	t.ok()
}

// paperBatch is how many regenerations one operation of the paper
// workload runs. A regeneration allocates about as much as the collector
// lets the heap grow between cycles, so some regenerations pay for one
// collection and others for two, and a percentile over single
// regenerations jumps between the two groups from run to run.
const paperBatch = 4

// paperLoop runs whole operations of paperBatch regenerations for at
// least d, sampling each operation's latency in µs into lat and each
// regeneration's spans into spans, and returns how many operations ran.
func paperLoop(e *expected, d time.Duration, t *tally, lat *sampler, spans *spanLog) (int64, time.Duration, error) {
	start := time.Now()
	var n int64
	for time.Since(start) < d {
		n++
		t0 := time.Now()
		for i := int64(0); i < paperBatch; i++ {
			regen := n*paperBatch + i
			p, err := regenerate(spans, regen)
			if err != nil {
				return n, 0, err
			}
			checkPaper(e, p, regen, t)
		}
		if lat != nil {
			lat.add(us(time.Since(t0)))
		}
	}
	return n, time.Since(start), nil
}

// cgiProbe serves Table 3's 28-byte row by hand on one booted server,
// twenty requests per model, timing each classic-CGI request (fork and
// exec of a script process) and counting the simulator's work per
// request.
func cgiProbe(r *result, t *tally) error {
	srv, err := webserver.BootServer(serveFileSize)
	if err != nil {
		return err
	}
	models := []webserver.Model{webserver.CGI, webserver.FastCGI, webserver.LibCGIProtected, webserver.LibCGI, webserver.Static}
	cgi := newSampler()
	var wall time.Duration
	before := readCounters(srv.S.K)
	c0 := srv.SimCycles()
	for _, m := range models {
		for i := 0; i < table3Requests; i++ {
			t0 := time.Now()
			status, err := srv.ServeRequest(m)
			d := time.Since(t0)
			wall += d
			if m == webserver.CGI {
				cgi.add(us(d))
			}
			if err != nil {
				return err
			}
			t.check(status == 200, "%v request returned status %d", m, status)
		}
	}
	var c counters
	c.addDelta(readCounters(srv.S.K), before)
	n := int64(len(models) * table3Requests)
	r.setCounts(c, n)
	r.set("cpu.host_ns_per_instr", float64(wall)/float64(c.instr), n)
	r.set("sim.us_per_op", srv.S.Clock().Micros(srv.SimCycles()-c0)/float64(n), n)
	r.set("webserver.cgi_serve_us_p50", cgi.quantile(0.5), cgi.n)
	return nil
}
