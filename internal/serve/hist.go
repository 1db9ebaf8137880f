package serve

import (
	"math/bits"
	"sync"
)

// histBuckets is sized for 6 exact low buckets (values 0..63) plus 32
// log-linear sub-buckets per power of two above that, covering the
// full uint64 range: 64 + 58*32.
const histBuckets = 64 + 58*32

// Hist is a log-linear latency histogram in the HDR style: values
// below 64 are recorded exactly, larger values land in one of 32
// sub-buckets per power of two, bounding the relative quantile error
// at ~3%. Recording is O(1) and allocation-free; a mutex keeps it
// goroutine-safe (the serving path records once per request, so the
// lock is uncontended next to the request itself).
type Hist struct {
	mu      sync.Mutex
	count   uint64
	sum     float64
	max     uint64
	buckets [histBuckets]uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < 64 {
		return int(v)
	}
	b := bits.Len64(v) // 7..64
	return 64 + (b-7)*32 + int((v>>(b-6))&31)
}

// bucketLow returns the smallest value mapping to bucket i (the
// quantile estimate reported for samples in that bucket).
func bucketLow(i int) uint64 {
	if i < 64 {
		return uint64(i)
	}
	exp := (i-64)/32 + 6
	sub := uint64((i - 64) % 32)
	return 1<<exp + sub<<(exp-5)
}

// Record adds one sample.
func (h *Hist) Record(v uint64) {
	h.mu.Lock()
	h.count++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Hist) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest recorded sample.
func (h *Hist) Max() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the value at quantile q in [0, 1]: the lower edge
// of the bucket holding the q-th sample, except the exact maximum for
// q reaching the last sample. Returns 0 when empty.
func (h *Hist) Quantile(q float64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := uint64(q*float64(h.count-1)) + 1
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i, n := range &h.buckets {
		seen += n
		if seen >= rank {
			if seen == h.count && bucketOf(h.max) == i {
				return h.max
			}
			return bucketLow(i)
		}
	}
	return h.max
}

// Quantiles returns p50/p99/p999 in one pass-friendly call.
func (h *Hist) Quantiles() (p50, p99, p999 uint64) {
	return h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
}
