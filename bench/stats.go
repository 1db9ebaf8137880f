package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// sampleCap bounds every sampler, so the benchmark's own memory does not
// grow with the number of operations a faster build completes (which
// would show up as a peak_heap_mb regression).
const sampleCap = 1 << 16

// sampler keeps a uniform random sample of at most sampleCap values
// (reservoir sampling) and the exact count and sum of all values seen.
type sampler struct {
	vals []float64
	n    int64
	sum  float64
	rng  *rand.Rand
}

func newSampler() *sampler {
	return &sampler{rng: rand.New(rand.NewPCG(0x5eed, 0xbe7c))}
}

func (s *sampler) add(v float64) {
	s.n++
	s.sum += v
	if len(s.vals) < sampleCap {
		s.vals = append(s.vals, v)
		return
	}
	if j := s.rng.Int64N(s.n); j < sampleCap {
		s.vals[j] = v
	}
}

// quantile returns the q-quantile of the sample by linear interpolation
// between order statistics; NaN when empty.
func (s *sampler) quantile(q float64) float64 { return quantile(s.vals, q) }

func (s *sampler) mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.n)
}

func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	if !slices.IsSorted(vals) {
		slices.Sort(vals)
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	frac := pos - float64(lo)
	return vals[lo] + frac*(vals[lo+1]-vals[lo])
}

func median(vals []float64) float64 { return quantile(slices.Clone(vals), 0.5) }

// us converts a duration to microseconds with full precision.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// markHeap runs a full collection and keeps the largest live heap seen:
// peak_heap_mb is the most memory the run held at a phase boundary.
// Reading it after a collection, rather than sampling the heap as it
// grows, makes the value depend on what the program retains and not on
// when the collector happened to run.
func (r *result) markHeap() {
	// Twice: objects parked in sync.Pools survive the first collection.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapPeak = max(r.heapPeak, ms.HeapAlloc)
}

// The host's speed drifts. On the shared 2-core machine the benchmark
// was calibrated on, a fixed CPU loop ran about 40% slower in one
// half-hour than in the next, and every workload's throughput moved with
// it, which no bound a regression check can use would absorb. So each
// timed measurement is bracketed by timings of a fixed reference loop
// (bench code, which no change to the simulator can speed up or slow
// down), and the end-to-end values are scaled to the loop's nominal
// time: a throughput is multiplied by measured/nominal and a time
// divided by it. The raw values go on the info line.
//
// The loop has two parts: arithmetic over a cache-resident table, and
// dependent loads spread over a table far larger than any cache. The
// workloads slowed down more than the arithmetic part alone did; the
// memory part tracks them more closely. Its table is mapped outside the
// Go heap so that it does not change when the collector runs.

// refNominalUS is about refUS on the calibration machine.
const refNominalUS = 1000

var (
	refCache [1 << 16]uint32 // 256 KB
	refMem   []uint32        // 32 MB, mapped by mapRefMem
	refSink  uint32
)

// mapRefMem maps the reference loop's memory table once per process.
func mapRefMem() error {
	if refMem != nil {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, 32<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the reference loop's table: %w", err)
	}
	refMem = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	return nil
}

// refUS times the reference loop, best of five, in µs. The best of
// several is the time least disturbed by preemption or a collector
// running beside it.
func refUS() float64 {
	best := math.Inf(1)
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		x := uint32(2166136261)
		for i := 0; i < 1<<18; i++ {
			j := x & uint32(len(refCache)-1)
			x = (x ^ refCache[j]) * 16777619
			refCache[j] = x
		}
		for i := 0; i < 1<<14; i++ {
			j := x & uint32(len(refMem)-1)
			x = (x ^ refMem[j]) * 16777619
			refMem[j] = x
		}
		refSink += x
		best = min(best, us(time.Since(t0)))
	}
	return best
}

// slowdown runs fn between two reference timings and returns how much
// slower than nominal the machine ran around it (1 at nominal speed).
func slowdown(fn func()) float64 {
	before := refUS()
	fn()
	return (before + refUS()) / 2 / refNominalUS
}

// setScaled records an end-to-end metric measured while the machine ran
// f times slower than nominal, scaled to nominal speed, and its raw
// value as an extra.
func (r *result) setScaled(name string, raw, f float64, samples int64) {
	v := raw / f
	if name == "throughput_ops_s" {
		v = raw * f
	}
	r.set(name, v, samples)
	r.extra("raw."+name, r.Metrics[name].Unit, raw, samples)
}

// loopChunks is how many parts a run's timed loop is split into.
const loopChunks = 8

// setLoopMetrics runs a workload's timed loop for d in loopChunks equal
// parts and reports the median over the parts of throughput and of the
// latency p50 and p95, each part scaled by the machine's speed around
// it. Medians over parts keep interference during part of a run from
// moving the result much. loop runs for the time it is given and returns
// the operations it completed, the time that took and their latencies in
// µs.
func (r *result) setLoopMetrics(d time.Duration, loop func(d time.Duration) (int64, time.Duration, *sampler)) {
	var thr, p50, p95, rawThr, rawP50, rawP95, slow []float64
	var n int64
	for i := 0; i < loopChunks; i++ {
		var (
			ops     int64
			elapsed time.Duration
			lat     *sampler
		)
		f := slowdown(func() { ops, elapsed, lat = loop(d / loopChunks) })
		n += ops
		t := float64(ops) / elapsed.Seconds()
		rawThr, rawP50, rawP95 = append(rawThr, t), append(rawP50, lat.quantile(0.5)), append(rawP95, lat.quantile(0.95))
		thr, p50, p95 = append(thr, t*f), append(p50, lat.quantile(0.5)/f), append(p95, lat.quantile(0.95)/f)
		slow = append(slow, f)
	}
	r.set("throughput_ops_s", median(thr), n)
	r.set("latency_p50_us", median(p50), n)
	r.set("latency_p95_us", median(p95), n)
	r.extra("raw.throughput_ops_s", "ops/s", median(rawThr), n)
	r.extra("raw.latency_p50_us", "us", median(rawP50), n)
	r.extra("raw.latency_p95_us", "us", median(rawP95), n)
	r.extra("slowdown", "ratio", median(slow), loopChunks)
}

// timeMedian times fn reps times and returns the median duration; every
// set-up in the benchmark is measured this way, so one slow repetition
// does not move setup_s.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// span is one timed call into a layer. Spans of one operation share Op;
// Parent names the enclosing span ("" at the top).
type span struct {
	Op      int64   `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// spanLog keeps the first maxSpans spans in memory for the result file
// and a duration sampler per span name for the per-layer metrics.
type spanLog struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	dropped int64
	byName  map[string]*sampler
}

const maxSpans = 1 << 14

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), byName: map[string]*sampler{}}
}

func (l *spanLog) record(op int64, name, parent string, start time.Time, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{Op: op, Name: name, Parent: parent,
			StartUS: us(start.Sub(l.origin)), DurUS: us(d)})
	} else {
		l.dropped++
	}
	s := l.byName[name]
	if s == nil {
		s = newSampler()
		l.byName[name] = s
	}
	s.add(us(d))
}

// q returns the q-quantile of the named span's durations in µs (0 when
// the span never ran).
func (l *spanLog) q(name string, q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.byName[name]; s != nil && s.n > 0 {
		return s.quantile(q)
	}
	return 0
}

// mean returns the mean duration of the named span in µs (0 when the
// span never ran).
func (l *spanLog) mean(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.byName[name]; s != nil && s.n > 0 {
		return s.mean()
	}
	return 0
}
