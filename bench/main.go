// Command palladium-benchmark is the repository's benchmark: four
// workloads that each load a different layer of the simulator stack,
// end-to-end metrics measured with tracing off, and per-layer metrics
// from a separate traced run. See README.md.
//
//	go run . --workload serve-shared --seed 1 --seconds 20 --trace 0
//	go run .                       # all four workloads, untraced
//	go run . -repeat 10 -out r.json
//	go run . -compare parent.json change.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeconds is one run's measured duration; BENCHMARK.json's
// run_seconds holds the same value (checked by the self-test).
const defaultSeconds = 20

// workloads in the order `-workload all` runs them.
var workloads = []string{"serve-shared", "serve-clone", "invoke", "paper"}

// metricDef describes one metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p95_us", "us", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// repository's packages. A metric whose layer a workload does not reach
// reads 0 on that workload.
var perLayer = []metricDef{
	{"loadgen.lag_p99_us", "us", "lower"},
	{"loadgen.offered_rps", "req/s", "higher"},
	{"http.self_us_p50", "us", "lower"},
	{"http.self_us_p99", "us", "lower"},
	{"serve.handler_us_p50", "us", "lower"},
	{"serve.handler_us_p99", "us", "lower"},
	{"serve.admit_ratio", "fraction", "higher"},
	{"serve.conservation_gap", "count", "lower"},
	{"serve.unattributed_share", "fraction", "lower"},
	{"fleet.queue_wait_us_p50", "us", "lower"},
	{"fleet.queue_wait_us_p99", "us", "lower"},
	{"fleet.handoff_us_p50", "us", "lower"},
	{"fleet.busy_ratio", "fraction", "lower"},
	{"fleet.queue_high_water", "count", "lower"},
	{"fleet.steals_per_req", "count", "lower"},
	{"fleet.clone_take_us_p50", "us", "lower"},
	{"fleet.clone_take_us_p99", "us", "lower"},
	{"fleet.clone_cold_steal_ratio", "fraction", "lower"},
	{"fleet.clone_discard_us_p50", "us", "lower"},
	{"webserver.clone_us_p50", "us", "lower"},
	{"webserver.serve_us_p50", "us", "lower"},
	{"webserver.serve_us_p99", "us", "lower"},
	{"webserver.cgi_serve_us_p50", "us", "lower"},
	{"webserver.boot_ms", "ms", "lower"},
	{"webserver.save_ms", "ms", "lower"},
	{"webserver.load_ms", "ms", "lower"},
	{"webserver.image_bytes", "bytes", "lower"},
	{"sandbox.invoke_us_p50.palladium-user", "us", "lower"},
	{"sandbox.invoke_us_p50.palladium-kernel", "us", "lower"},
	{"sandbox.invoke_us_p50.bpf", "us", "lower"},
	{"sandbox.invoke_us_p50.sfi", "us", "lower"},
	{"sandbox.invoke_us_p50.rpc", "us", "lower"},
	{"sandbox.load_us", "us", "lower"},
	{"sandbox.fault_ratio", "fraction", "lower"},
	{"verify.load_extra_us", "us", "lower"},
	{"core.newsystem_us", "us", "lower"},
	{"core.segdlopen_us", "us", "lower"},
	{"isa.assemble_us", "us", "lower"},
	{"experiments.cold_regen_ms", "ms", "lower"},
	{"experiments.table1_ms", "ms", "lower"},
	{"experiments.table2_ms", "ms", "lower"},
	{"experiments.table3_ms", "ms", "lower"},
	{"experiments.figure7_ms", "ms", "lower"},
	{"cpu.instructions_per_op", "count", "lower"},
	{"cpu.host_ns_per_instr", "ns", "lower"},
	{"cpu.block_builds_per_op", "count", "lower"},
	{"cpu.block_hit_ratio", "fraction", "higher"},
	{"cpu.chain_hits_per_op", "count", "higher"},
	{"cpu.trace_dispatches_per_op", "count", "higher"},
	{"cpu.trace_builds_per_op", "count", "lower"},
	{"cpu.trace_side_exit_ratio", "fraction", "lower"},
	{"cpu.trace_deopts_per_op", "count", "lower"},
	{"cpu.fast_fetch_ratio", "fraction", "higher"},
	{"mmu.tlb_hit_ratio", "fraction", "higher"},
	{"mmu.tlb_misses_per_op", "count", "lower"},
	{"mmu.tlb_flushes_per_op", "count", "lower"},
	{"mmu.elided_checks_per_op", "count", "higher"},
	{"mem.cow_copies_per_op", "count", "lower"},
	{"mem.frames_per_clone", "count", "lower"},
	{"sim.us_per_op", "sim_us", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// config is one run's settings. Duration is a time.Duration rather than
// whole seconds so the self-test can run short.
type config struct {
	Workload string
	Seed     uint64
	Duration time.Duration
	Trace    bool
}

// metric is one reported value. Samples is how many measurements the
// value summarizes (1 for a single reading).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

// result is everything one run produced. The last line of standard
// output is its contract subset (see contractLine); -out writes all of
// it.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Extra      map[string]metric `json:"extra,omitempty"`
	Steps      []ladderStep      `json:"ladder,omitempty"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Spans      []span            `json:"spans,omitempty"`
	Dropped    int64             `json:"spans_dropped,omitempty"`
	Env        environment       `json:"env"`

	heapPeak uint64 // see markHeap
}

func newResult(cfg config) *result {
	return &result{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace,
		Metrics: map[string]metric{}, Extra: map[string]metric{}}
}

// set records a metric from the catalog of the run's kind.
func (r *result) set(name string, v float64, samples int64) {
	unit := ""
	for _, d := range catalog(r.Trace) {
		if d.Name == name {
			unit = d.Unit
		}
	}
	if unit == "" {
		panic("bench: metric not in catalog: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *result) extra(name, unit string, v float64, samples int64) {
	r.Extra[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func catalog(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// tally counts attempted and failed operations; a failure is an error,
// a refusal or an output that disagrees with the oracle. Safe for
// concurrent use.
type tally struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	mismatches []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.mismatches) < 10 {
		t.mismatches = append(t.mismatches, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failing it with the message when !good.
func (t *tally) check(good bool, format string, args ...any) {
	if good {
		t.ok()
		return
	}
	t.fail(format, args...)
}

func (t *tally) into(r *result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Mismatches = append(r.Mismatches, t.mismatches...)
	r.Correct = t.failed == 0 && t.attempted > 0
	if t.attempted > 0 {
		r.extra("error_ratio", "fraction", float64(t.failed)/float64(t.attempted), t.attempted)
	}
}

// run executes one workload run, checking outputs against e.
func run(cfg config, e *expected) (*result, error) {
	if err := mapRefMem(); err != nil {
		return nil, err
	}
	r := newResult(cfg)
	var t tally
	var err error
	switch cfg.Workload {
	case "serve-shared":
		err = runServe(cfg, false, e, r, &t)
	case "serve-clone":
		err = runServe(cfg, true, e, r, &t)
	case "invoke":
		err = runInvoke(cfg, e, r, &t)
	case "paper":
		err = runPaper(cfg, e, r, &t)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if !cfg.Trace {
		r.set("peak_heap_mb", float64(r.heapPeak)/(1<<20), 1)
	}
	t.into(r)
	r.Env = currentEnv(cfg)
	return r, nil
}

// contractLine is the result's last-line form: exactly correct,
// attempted, failed and the catalog metrics as {value, unit}.
func contractLine(r *result) ([]byte, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]vu{}
	for k, m := range r.Metrics {
		ms[k] = vu{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// validate checks that the run emitted every catalog metric with a
// finite value.
func validate(r *result) error {
	for _, d := range catalog(r.Trace) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s not emitted", r.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, m.Value)
		}
	}
	if len(r.Metrics) != len(catalog(r.Trace)) {
		return fmt.Errorf("%s: %d metrics emitted, catalog has %d", r.Workload, len(r.Metrics), len(catalog(r.Trace)))
	}
	return nil
}

// printHuman writes a readable table of the run to w.
func printHuman(w *os.File, r *result) {
	fmt.Fprintf(w, "%s seed=%d trace=%v correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, group := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := group[k]
			fmt.Fprintf(w, "  %-40s %16.4f %-9s n=%d\n", k, m.Value, m.Unit, m.Samples)
		}
	}
	for _, s := range r.Steps {
		fmt.Fprintf(w, "  ladder %6.0f req/s: p50 %8.1f us  p99 %8.1f us  lag p99 %7.1f us  errors %d  meets_slo=%v valid=%v\n",
			s.RateRPS, s.P50US, s.P99US, s.LagP99US, s.Errors, s.MeetsSLO, s.Valid)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "  MISMATCH %s\n", m)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+" or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		out      = flag.String("out", "", "write the full result (or repeat/compare report) as JSON to this file")
		repeat   = flag.Int("repeat", 0, "run each selected workload N times, one process per run with seeds seed..seed+N-1, and report each end-to-end metric's median, quartiles and spread")
		compare  = flag.Bool("compare", false, "compare two -repeat reports: -compare parent.json change.json")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *out, *repeat, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds, trace int, out string, repeat int, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return runCompare(args[0], args[1], out)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	e, err := loadExpected()
	if err != nil {
		return err
	}
	names := workloads
	if workload != "all" {
		names = []string{workload}
	}
	if repeat > 0 {
		return runRepeat(names, seed, seconds, repeat, out)
	}
	var results []*result
	for _, w := range names {
		cfg := config{Workload: w, Seed: seed, Duration: time.Duration(seconds) * time.Second, Trace: trace == 1}
		r, err := run(cfg, e)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if err := validate(r); err != nil {
			return err
		}
		printHuman(os.Stderr, r)
		results = append(results, r)
	}
	if out != "" {
		var v any = results
		if len(results) == 1 {
			v = results[0]
		}
		if err := writeJSON(out, v); err != nil {
			return err
		}
	}
	final := results[0]
	if len(results) > 1 {
		final = combine(results)
	}
	info, err := json.Marshal(infoLine{Env: results[0].Env, Extra: final.Extra})
	if err != nil {
		return err
	}
	fmt.Println(string(info))
	line, err := contractLine(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !final.Correct {
		return fmt.Errorf("outputs disagree with the oracle or operations failed (%d of %d)", final.Failed, final.Attempted)
	}
	return nil
}

// infoLine is printed just before the result line: the environment and
// the values outside the contract (slo_rps, error_ratio).
type infoLine struct {
	Env   environment       `json:"env"`
	Extra map[string]metric `json:"extra"`
}

// combine folds several workloads' results into one, prefixing each
// metric with its workload.
func combine(rs []*result) *result {
	c := &result{Correct: true, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	for _, r := range rs {
		c.Correct = c.Correct && r.Correct
		c.Attempted += r.Attempted
		c.Failed += r.Failed
		for k, m := range r.Metrics {
			c.Metrics[r.Workload+"."+k] = m
		}
		for k, m := range r.Extra {
			c.Extra[r.Workload+"."+k] = m
		}
	}
	return c
}
