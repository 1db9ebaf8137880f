package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/sandbox"
)

// The invoke workload: one caller in a closed loop of requests, each a
// seeded mix of ten extension calls, with no HTTP, fleet or clone work in
// the way. Each kind of call runs on its own machine, loaded as the
// workload x backend matrix loads it, so a call's simulated cost depends
// only on its input.

type opKind int

const (
	opStrrev       opKind = iota // Table 2's strrev under palladium-user: instruction-heavy, writes
	opFilterKernel               // the 4-term filter compiled into a palladium-kernel segment
	opFilterBPF                  // the same filter interpreted by the bpf backend
	opCGISFI                     // the LibCGI script under SFI
	opCGIRPC                     // the LibCGI script behind loopback RPC
	numOpKinds
)

var (
	opBackends = [numOpKinds]string{"palladium-user", "palladium-kernel", "bpf", "sfi", "rpc"}
	// batchMix is how many calls of each kind one request makes. The
	// request, not the call, is the workload's operation: calls of
	// different kinds differ in cost by two orders of magnitude, so a
	// percentile over calls would jump between kinds from seed to seed.
	batchMix = [numOpKinds]int{3, 4, 1, 1, 1}
)

const (
	minStrrev, maxStrrev = 16, 256
	filterTerms          = 4
	batchCalls           = 10
	// invokeRequests is the length of the seeded request sequence the
	// timed loop cycles through; the first verifyRequests of them form the
	// fixed verification pass.
	invokeRequests = 400
	verifyRequests = 100
	cgiEnvBytes    = 700 // the web server's staged CGI meta-variable block
)

// cgiScriptSrc is the web server's LibCGI script (Table 3): it reads the
// request word at the address it is passed, writes status 200 and the
// content length beside it, and returns 200.
const cgiScriptSrc = `
	.global cgi_script
	.text
	cgi_script:
		mov eax, [esp+4]
		mov ecx, [eax]
		mov [eax+4], 200
		mov [eax+8], ecx
		mov eax, 200
		ret
`

// invokeOp is one call of the mix. data is the strrev string (without
// its NUL), the packet, or the little-endian CGI request word; class is
// the input property the call's simulated cost depends on (string
// length, index of the first false filter term, 0 for CGI).
type invokeOp struct {
	kind  opKind
	data  []byte
	class int
}

// filterSpec is the filter every filter call runs: Figure 7's four
// terms, all true for the base packet.
func filterSpec() (base []byte, terms []bpf.Term) {
	base = filter.MakeUDPPacket(1234, 53, 64)
	return base, filter.TermsTrueFor(base, filterTerms)
}

// firstFalseTerm evaluates the conjunction in Go: the index of the
// first term pkt fails, or len(terms) when it matches.
func firstFalseTerm(terms []bpf.Term, pkt []byte) int {
	for i, t := range terms {
		var v uint32
		for j := 0; j < int(t.Size); j++ {
			v = v<<8 | uint32(pkt[int(t.Offset)+j])
		}
		if v != t.Value {
			return i
		}
	}
	return len(terms)
}

// genInvokeOps derives the calls of requests requests from the seed.
// The mix is exact, not sampled: every request makes batchMix's calls,
// strrev lengths are spread evenly over 16-256 bytes, and exactly half
// the packets match (the others have one term's byte flipped, each term
// equally often). The seed chooses the bytes and the order, so seeds
// differ in inputs but not in how much of each kind of work they ask for.
func genInvokeOps(seed uint64, requests int) []invokeOp {
	rng := rand.New(rand.NewPCG(seed, 0x1a7e))
	_, terms := filterSpec()
	var byKind [numOpKinds][]invokeOp
	var kinds []opKind
	for k := opKind(0); k < numOpKinds; k++ {
		count := requests * batchMix[k]
		for j := 0; j < count; j++ {
			op := invokeOp{kind: k}
			switch k {
			case opStrrev:
				op.data = make([]byte, minStrrev+j*(maxStrrev-minStrrev+1)/count)
				for i := range op.data {
					op.data[i] = byte(' ' + 1 + rng.IntN(94))
				}
				op.class = len(op.data)
			case opFilterKernel, opFilterBPF:
				p := filter.MakeUDPPacket(uint16(rng.Uint32()), uint16(rng.Uint32()), 64)
				for i := 42; i < len(p); i++ {
					p[i] = byte(rng.Uint32())
				}
				if j%2 == 1 {
					p[terms[(j/2)%len(terms)].Offset] ^= byte(1 + rng.IntN(255))
				}
				op.data, op.class = p, firstFalseTerm(terms, p)
			default:
				op.data = binary.LittleEndian.AppendUint32(nil, uint32(1+rng.IntN(100*1024)))
			}
			byKind[k] = append(byKind[k], op)
		}
		rng.Shuffle(count, func(i, j int) { byKind[k][i], byKind[k][j] = byKind[k][j], byKind[k][i] })
		for i := 0; i < batchMix[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	ops := make([]invokeOp, 0, requests*batchCalls)
	for r := 0; r < requests; r++ {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			ops = append(ops, byKind[k][0])
			byKind[k] = byKind[k][1:]
		}
	}
	return ops
}

// invokeMachine is one booted system with one loaded extension.
type invokeMachine struct {
	sys   *core.System
	ext   sandbox.Extension
	st    sandbox.Stager // strrev and CGI: the staging area
	filt  *filter.Filter // filters: stages and invokes
	app   *core.App      // user-level hosts: reads results back
	ticks int            // timer interrupts fired on this machine
}

type invokeSet struct {
	m   [numOpKinds]*invokeMachine
	buf []byte
	out []byte
}

// newInvokeSet boots one machine per operation kind and loads its
// extension, with the static verifier when verified is set. loadUS, if
// non-nil, receives each Backend.Load's wall time.
func newInvokeSet(verified bool, loadUS *sampler) (*invokeSet, error) {
	set := &invokeSet{buf: make([]byte, cgiEnvBytes), out: make([]byte, maxStrrev)}
	_, terms := filterSpec()
	for k := opKind(0); k < numOpKinds; k++ {
		s, err := core.NewSystem(cycles.Measured())
		if err != nil {
			return nil, err
		}
		if _, err := s.K.CreateProcess(); err != nil {
			return nil, err
		}
		m := &invokeMachine{sys: s}
		s.K.OnTimerTick(func() error { m.ticks++; return nil })
		h := sandbox.HostFor(s)
		b, err := sandbox.Open(opBackends[k], h)
		if err != nil {
			return nil, err
		}
		var obj *isa.Object
		opts := sandbox.LoadOptions{Entry: "cgi_script", SharedBytes: mem.PageSize}
		switch k {
		case opStrrev:
			obj = isa.MustAssemble("strrev", experiments.StrrevSrc)
			opts.Entry = "strrev"
		case opFilterKernel:
			var entry string
			if obj, entry, err = filter.CompileObject(terms); err != nil {
				return nil, err
			}
			opts = sandbox.LoadOptions{Entry: entry, SharedSymbol: "shared_area"}
		case opFilterBPF:
			opts = sandbox.LoadOptions{BPF: bpf.Conjunction(terms)}
		case opCGISFI:
			obj = isa.MustAssemble("cgiscript", cgiScriptSrc)
			opts = sandbox.LoadOptions{Entry: "cgi_script"} // stages at the region base
		case opCGIRPC:
			obj = isa.MustAssemble("cgiscript", cgiScriptSrc)
			opts.ReqBytes, opts.RespBytes = cgiEnvBytes, 8
		}
		if verified {
			opts = sandbox.WithVerify(opts)
		}
		t0 := time.Now()
		m.ext, err = b.Load(obj, opts)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", opBackends[k], err)
		}
		if loadUS != nil {
			loadUS.add(us(time.Since(t0)))
		}
		switch k {
		case opFilterKernel:
			m.filt = filter.NewFilter(opBackends[k], m.ext, true)
		case opFilterBPF:
			m.filt = filter.NewFilter(opBackends[k], m.ext, false)
		default:
			m.st = m.ext.(sandbox.Stager)
			if m.app, err = h.App(); err != nil {
				return nil, err
			}
		}
		set.m[k] = m
	}
	return set, nil
}

// warm runs one call of each kind, so every machine's first (cold) call
// is outside what the workload measures.
func (set *invokeSet) warm(ops []invokeOp) error {
	done := [numOpKinds]bool{}
	for i := range ops {
		if op := &ops[i]; !done[op.kind] {
			if _, _, _, err := set.do(op); err != nil {
				return err
			}
			done[op.kind] = true
		}
	}
	return nil
}

// do runs one call and checks its output against a Go-side evaluation.
// It returns the wall time of the call into the layer (staging plus
// invocation), the simulated cycles it took and the timer ticks that
// fired meanwhile.
func (set *invokeSet) do(op *invokeOp) (time.Duration, float64, int, error) {
	m := set.m[op.kind]
	clock := m.sys.K.Clock
	c0, k0 := clock.Cycles(), m.ticks
	var (
		wall  time.Duration
		cyc   float64
		ticks int
		err   error
	)
	// called reads the clock and tick count right after the call, before
	// the result is read back.
	called := func(t0 time.Time) {
		wall, cyc, ticks = time.Since(t0), clock.Cycles()-c0, m.ticks-k0
	}
	switch op.kind {
	case opStrrev:
		n := len(op.data)
		buf := append(append(set.buf[:0], op.data...), 0)
		t0 := time.Now()
		var v uint32
		if err = m.st.Stage(buf); err == nil {
			v, err = m.ext.Invoke(m.st.SharedArg())
		}
		called(t0)
		if err == nil && v != m.st.SharedArg() {
			err = fmt.Errorf("strrev returned %#x, want %#x", v, m.st.SharedArg())
		}
		if err == nil {
			err = m.app.ReadMemInto(m.st.SharedArg(), set.out[:n])
		}
		if err == nil {
			for i := 0; i < n; i++ {
				if set.out[i] != op.data[n-1-i] {
					err = fmt.Errorf("strrev(%q) = %q", op.data, set.out[:n])
					break
				}
			}
		}
	case opFilterKernel, opFilterBPF:
		t0 := time.Now()
		var match bool
		match, err = m.filt.Match(op.data)
		called(t0)
		if want := op.class == filterTerms; err == nil && match != want {
			err = fmt.Errorf("%s filter verdict %v, Go evaluation %v", opBackends[op.kind], match, want)
		}
	default:
		env := set.buf[:cgiEnvBytes]
		clear(env)
		copy(env, op.data)
		t0 := time.Now()
		var v uint32
		if err = m.st.Stage(env); err == nil {
			v, err = m.ext.Invoke(m.st.SharedArg())
		}
		called(t0)
		if err == nil {
			err = m.app.ReadMemInto(m.st.SharedArg()+4, set.out[:8])
		}
		if err == nil && (v != 200 || !bytes.Equal(set.out[:4], []byte{200, 0, 0, 0}) || !bytes.Equal(set.out[4:8], op.data)) {
			err = fmt.Errorf("%s CGI returned %d with response % x for request % x", opBackends[op.kind], v, set.out[:8], op.data)
		}
	}
	return wall, cyc, ticks, err
}

// counters reads each machine's counters.
func (set *invokeSet) counters() [numOpKinds]counters {
	var c [numOpKinds]counters
	for k, m := range set.m {
		c[k] = readCounters(m.sys.K)
	}
	return c
}

func (set *invokeSet) faults() (faults, invocations uint64) {
	for _, m := range set.m {
		st := m.ext.Stats()
		faults += st.Faults
		invocations += st.Invocations
	}
	return faults, invocations
}

// runVerifyPass runs the calls of the first verifyRequests requests on
// fresh machines and checks each call's cycles and the pass total
// against the oracle. The pass is deterministic for a seed, so its
// counters and simulated time are exact.
func runVerifyPass(e *expected, seed uint64, ops []invokeOp, t *tally) (counters, float64, error) {
	set, err := newInvokeSet(true, nil)
	if err != nil {
		return counters{}, 0, err
	}
	if err := set.warm(ops); err != nil {
		return counters{}, 0, err
	}
	before := set.counters()
	total := 0.0
	for i := range ops {
		op := &ops[i]
		_, cyc, ticks, err := set.do(op)
		total += cyc
		if err != nil {
			t.fail("verify pass call %d: %v", i, err)
			continue
		}
		t.check(e.cyclesMatch(op, cyc, ticks), "verify pass call %d (%s, class %d): %v cycles with %d ticks, oracle %v",
			i, opBackends[op.kind], op.class, cyc, ticks, e.opCycles(op))
	}
	after := set.counters()
	var sum counters
	for k := range after {
		sum.addDelta(after[k], before[k])
	}
	good, want := e.verifyPass(seed, total)
	t.check(good, "verify pass total %v cycles, oracle %v", total, want)
	return sum, total, nil
}

func runInvoke(cfg config, e *expected, r *result, t *tally) error {
	ops := genInvokeOps(cfg.Seed, invokeRequests)
	loadUS := newSampler()
	var (
		set   *invokeSet
		setup time.Duration
		err   error
	)
	slow := slowdown(func() {
		setup, err = timeMedian(setupReps, func() (err error) {
			set, err = newInvokeSet(true, loadUS)
			return err
		})
	})
	if err != nil {
		return err
	}
	if err := set.warm(ops); err != nil {
		return err
	}
	r.markHeap()
	counts, simTotal, err := runVerifyPass(e, cfg.Seed, ops[:verifyRequests*batchCalls], t)
	if err != nil {
		return err
	}
	if !cfg.Trace {
		r.setLoopMetrics(cfg.Duration, func(d time.Duration) (int64, time.Duration, *sampler) {
			lat := newSampler()
			n, elapsed := invokeLoop(e, set, ops, d, t, lat, nil)
			return n, elapsed, lat
		})
		r.markHeap()
		r.setScaled("setup_s", setup.Seconds(), slow, setupReps)
		return nil
	}

	spans := newSpanLog()
	tr := &invokeTrace{spans: spans}
	invokeLoop(e, set, ops, cfg.Duration*6/10, t, nil, tr)
	for k := opKind(0); k < numOpKinds; k++ {
		r.set("sandbox.invoke_us_p50."+opBackends[k], spans.q("sandbox.invoke."+opBackends[k], 0.5), tr.calls)
	}
	r.set("cpu.host_ns_per_instr", float64(tr.wall)/float64(tr.instr), tr.calls)
	faults, invocations := set.faults()
	r.set("sandbox.fault_ratio", ratio(faults, invocations), int64(invocations))
	r.set("sandbox.load_us", loadUS.quantile(0.5), loadUS.n)
	r.setCounts(counts, verifyRequests)
	r.set("sim.us_per_op", simTotal/set.m[0].sys.K.Clock.MHz()/verifyRequests, verifyRequests)

	extra, err := verifyLoadExtra()
	if err != nil {
		return err
	}
	r.set("verify.load_extra_us", extra, setupReps)
	overhead := traceOverhead(cfg.Duration*3/10, func(d time.Duration, traced bool) int64 {
		var tr2 *invokeTrace
		if traced {
			tr2 = &invokeTrace{spans: newSpanLog()}
		}
		n, _ := invokeLoop(e, set, ops, d, t, newSampler(), tr2)
		return n
	})
	r.set("bench.trace_overhead_ratio", overhead, 1)
	r.Spans, r.Dropped = spans.spans, spans.dropped
	if err := runProbes(r); err != nil {
		return err
	}
	r.zeroUnset()
	return nil
}

// invokeTrace collects the traced loop's spans and instruction counts.
type invokeTrace struct {
	spans *spanLog
	calls int64
	wall  time.Duration
	instr uint64
}

// invokeLoop cycles through the requests in ops for d, checking every
// call, and returns how many requests it completed. lat, if non-nil,
// samples each request's latency (the sum of its calls') in µs; tr, if
// non-nil, records a span per request and per call and reads the
// instruction counter around each call.
func invokeLoop(e *expected, set *invokeSet, ops []invokeOp, d time.Duration, t *tally, lat *sampler, tr *invokeTrace) (int64, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var n int64
	for i := 0; ; i = (i + batchCalls) % len(ops) {
		n++
		reqStart := time.Now()
		var req time.Duration
		for j := i; j < i+batchCalls; j++ {
			op := &ops[j]
			var (
				instr0 uint64
				t0     time.Time
			)
			if tr != nil {
				instr0, t0 = set.m[op.kind].sys.K.Machine.Instructions(), time.Now()
			}
			wall, cyc, ticks, err := set.do(op)
			req += wall
			switch {
			case err != nil:
				t.fail("call %d: %v", j, err)
			case !e.cyclesMatch(op, cyc, ticks):
				t.fail("call %d (%s, class %d): %v cycles with %d ticks, oracle %v", j, opBackends[op.kind], op.class, cyc, ticks, e.opCycles(op))
			default:
				t.ok()
			}
			if tr != nil {
				tr.instr += set.m[op.kind].sys.K.Machine.Instructions() - instr0
				tr.wall += wall
				tr.calls++
				tr.spans.record(n, "sandbox.invoke."+opBackends[op.kind], "invoke.request", t0, wall)
			}
		}
		if lat != nil {
			lat.add(us(req))
		}
		if tr != nil {
			tr.spans.record(n, "invoke.request", "", reqStart, time.Since(reqStart))
		}
		if !time.Now().Before(deadline) {
			return n, time.Since(start)
		}
	}
}

// verifyLoadExtra is what the static verifier adds to loading the mix:
// the median over setupReps of (verified load - unverified load) of all
// five extensions, per extension.
func verifyLoadExtra() (float64, error) {
	var extra []float64
	for i := 0; i < setupReps; i++ {
		with, without := newSampler(), newSampler()
		if _, err := newInvokeSet(true, with); err != nil {
			return 0, err
		}
		if _, err := newInvokeSet(false, without); err != nil {
			return 0, err
		}
		extra = append(extra, (with.sum-without.sum)/float64(numOpKinds))
	}
	return median(extra), nil
}

// traceOverhead alternates untraced and traced chunks of the same loop
// for d in total and returns untraced over traced throughput (1 means
// tracing costs nothing).
func traceOverhead(d time.Duration, loop func(d time.Duration, traced bool) int64) float64 {
	const pairs = 4
	chunk := d / (2 * pairs)
	var plain, traced int64
	for i := 0; i < pairs; i++ {
		plain += loop(chunk, false)
		traced += loop(chunk, true)
	}
	return float64(plain) / float64(traced)
}
