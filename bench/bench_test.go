package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/webserver"
)

var update = flag.Bool("update", false, "rewrite expected.json from the simulator")

// selfTestDuration keeps each run of the self-test short.
const selfTestDuration = 500 * time.Millisecond

// recordExpected measures every simulated value the oracle holds.
func recordExpected() (*expected, error) {
	var e expected
	e.Note = "Simulated values the benchmark's workloads must reproduce exactly. Regenerate with: go test -run TestExpected -update"
	s, err := core.NewSystem(cycles.Measured())
	if err != nil {
		return nil, err
	}
	e.TickCycles = s.K.Costs.TimerTick

	tmpl, err := webserver.BootServer(serveFileSize)
	if err != nil {
		return nil, err
	}
	srv, err := tmpl.Clone()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		c0 := srv.SimCycles()
		if _, err := srv.ServeRequest(serveModel); err != nil {
			return nil, err
		}
		sim := simText(srv.S.Clock().Micros(srv.SimCycles() - c0))
		if i == 0 {
			e.Serve.FirstSimUS = sim
		}
		e.Serve.SteadySimUS = sim
	}

	// Each class's tick-free cost: run it a few times on warm machines
	// and subtract the ticks that fired.
	set, err := newInvokeSet(true, nil)
	if err != nil {
		return nil, err
	}
	if err := set.warm(genInvokeOps(1, invokeRequests)); err != nil {
		return nil, err
	}
	cost := func(op *invokeOp) (float64, error) {
		var base float64
		for i := 0; i < 4; i++ {
			_, cyc, ticks, err := set.do(op)
			if err != nil {
				return 0, err
			}
			b := cyc - float64(ticks)*e.TickCycles
			if i > 0 && math.Abs(b-base) >= 1e-3 {
				return 0, fmt.Errorf("%s class %d costs %v then %v without ticks", opBackends[op.kind], op.class, base, b)
			}
			base = b
		}
		return base, nil
	}
	for n := minStrrev; n <= maxStrrev; n++ {
		c, err := cost(&invokeOp{kind: opStrrev, data: bytes.Repeat([]byte("x"), n), class: n})
		if err != nil {
			return nil, err
		}
		e.Invoke.StrrevCycles = append(e.Invoke.StrrevCycles, c)
	}
	base, terms := filterSpec()
	for class := 0; class <= filterTerms; class++ {
		pkt := bytes.Clone(base)
		if class < filterTerms {
			pkt[terms[class].Offset] ^= 0xff
		}
		for _, k := range []opKind{opFilterKernel, opFilterBPF} {
			c, err := cost(&invokeOp{kind: k, data: pkt, class: firstFalseTerm(terms, pkt)})
			if err != nil {
				return nil, err
			}
			if k == opFilterKernel {
				e.Invoke.FilterKernelCycles = append(e.Invoke.FilterKernelCycles, c)
			} else {
				e.Invoke.FilterBPFCycles = append(e.Invoke.FilterBPFCycles, c)
			}
		}
	}
	word := binary.LittleEndian.AppendUint32(nil, serveFileSize)
	if e.Invoke.CGISFICycles, err = cost(&invokeOp{kind: opCGISFI, data: word}); err != nil {
		return nil, err
	}
	if e.Invoke.CGIRPCCycles, err = cost(&invokeOp{kind: opCGIRPC, data: word}); err != nil {
		return nil, err
	}
	e.Invoke.VerifyPassCycles = map[string]float64{}
	for _, seed := range []uint64{1, 2} {
		var t tally
		_, total, err := runVerifyPass(&e, seed, genInvokeOps(seed, invokeRequests)[:verifyRequests*batchCalls], &t)
		if err != nil {
			return nil, err
		}
		if t.failed > 0 {
			return nil, fmt.Errorf("verify pass disagrees with the per-class costs: %v", t.mismatches)
		}
		e.Invoke.VerifyPassCycles[strconv.FormatUint(seed, 10)] = total
	}

	p, err := regenerate(nil, 0)
	if err != nil {
		return nil, err
	}
	e.Paper = *p
	return &e, e.crossCheck()
}

// TestExpected checks that expected.json is what the simulator produces
// now (with -update, it rewrites the file).
func TestExpected(t *testing.T) {
	got, err := recordExpected()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	if *update {
		if err := os.WriteFile("expected.json", b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, append(wb, '\n')) {
		t.Fatalf("expected.json differs from the simulator; a simulated value moved")
	}
}

// TestOracleCatchesMismatch changes one expected value per workload and
// checks that the run reports it as incorrect.
func TestOracleCatchesMismatch(t *testing.T) {
	for _, tc := range []struct {
		workload string
		mutate   func(e *expected)
	}{
		{"serve-shared", func(e *expected) { e.Serve.SteadySimUS = "2280.600" }},
		{"serve-clone", func(e *expected) { e.Serve.FirstSimUS = "2280.420" }},
		{"invoke", func(e *expected) { e.Invoke.FilterBPFCycles[filterTerms]++ }},
		{"paper", func(e *expected) { e.Paper.Table3[0].CGI += 1e-9 }},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			e, err := loadExpected()
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(e)
			r, err := run(config{Workload: tc.workload, Seed: 1, Duration: selfTestDuration / 2}, e)
			if err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Failed == 0 {
				t.Fatalf("run with a wrong oracle value: correct=%v failed=%d", r.Correct, r.Failed)
			}
		})
	}
}

// TestSelfTest runs every workload briefly, untraced and traced, and
// checks that each emits every metric BENCHMARK.json names, with its
// unit and a finite value, and that its outputs are correct. Traced runs
// twice with one seed, and their per-operation counts must agree
// exactly.
func TestSelfTest(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				cfg := config{Workload: w, Seed: 1, Duration: selfTestDuration, Trace: trace}
				r, err := run(cfg, e)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct {
					t.Fatalf("incorrect run: %d of %d failed: %v", r.Failed, r.Attempted, r.Mismatches)
				}
				if err := validate(r); err != nil {
					t.Fatal(err)
				}
				for name, unit := range units[trace] {
					if m := r.Metrics[name]; m.Unit != unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				if len(r.Metrics) != len(units[trace]) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.Metrics), len(units[trace]))
				}
				line, err := contractLine(r)
				if err != nil {
					t.Fatal(err)
				}
				var parsed map[string]json.RawMessage
				if err := json.Unmarshal(line, &parsed); err != nil || len(parsed) != 4 {
					t.Fatalf("result line %s: %v", line, err)
				}
				if !trace {
					return
				}
				again, err := run(cfg, e)
				if err != nil {
					t.Fatal(err)
				}
				for name, m := range r.Metrics {
					if isCount(name) && again.Metrics[name].Value != m.Value {
						t.Errorf("count %s: %v then %v with the same seed", name, m.Value, again.Metrics[name].Value)
					}
				}
			})
		}
	}
}

// isCount reports whether a per-layer metric is a count of simulated
// work, which must repeat exactly for a seed.
func isCount(name string) bool {
	return strings.HasPrefix(name, "mmu.") || strings.HasPrefix(name, "mem.") || name == "sim.us_per_op" ||
		(strings.HasPrefix(name, "cpu.") && name != "cpu.host_ns_per_instr")
}

// TestSpecMatchesCatalog holds BENCHMARK.json to the metrics the code
// emits, and to the contract's limits.
func TestSpecMatchesCatalog(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default %d", sp.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, code runs %v", names, workloads)
	}
	if len(sp.EndToEnd) != len(endToEnd) || len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, code %d/%d", len(sp.EndToEnd), len(sp.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range sp.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	for i, m := range sp.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}

// inputsDigest hashes every input a seed generates: each ladder's
// arrival schedules and the invoke operation sequence (kinds, strings
// and packets in order).
func inputsDigest(seed uint64) [32]byte {
	h := sha256.New()
	for _, clone := range []bool{false, true} {
		for i, rate := range ladders[clone] {
			for _, off := range poissonSchedule(seed, i, rate, defaultSeconds*time.Second) {
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(off)))
			}
		}
	}
	for _, op := range genInvokeOps(seed, invokeRequests) {
		h.Write([]byte{byte(op.kind), byte(op.class)})
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(op.data))))
		h.Write(op.data)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func TestSeedDeterminesInputs(t *testing.T) {
	if inputsDigest(1) != inputsDigest(1) {
		t.Fatal("seed 1 generated different inputs twice")
	}
	if inputsDigest(1) == inputsDigest(2) {
		t.Fatal("seeds 1 and 2 generated the same inputs")
	}
	short := poissonSchedule(7, 1, 16000, time.Second)
	long := poissonSchedule(7, 1, 16000, 2*time.Second)
	if len(short) == 0 || len(long) <= len(short) || !equalDurations(short, long[:len(short)]) {
		t.Fatal("a shorter schedule is not a prefix of a longer one")
	}
	matching := 0
	ops := genInvokeOps(3, invokeRequests)
	filters := 0
	for _, op := range ops {
		if op.kind == opFilterKernel || op.kind == opFilterBPF {
			filters++
			if op.class == filterTerms {
				matching++
			}
		}
	}
	if share := float64(matching) / float64(filters); share < 0.45 || share > 0.55 {
		t.Errorf("%.2f of packets match, want about half", share)
	}
}

func equalDurations(a, b []time.Duration) bool {
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

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := specMetric{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "regressed"},
		{[]float64{101, 100, 99, 100, 101, 99, 100, 101, 100, 100}, "unchanged"},
	} {
		if v := compareMetric(m, base, tc.change); v.Verdict != tc.want {
			t.Errorf("change %v: %s, want %s", tc.change, v.Verdict, tc.want)
		}
	}
	noisy := []float64{50, 150, 70, 130, 100, 90, 110, 60, 140, 100}
	if v := compareMetric(m, noisy, base); v.Verdict != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", v.Verdict)
	}
}
