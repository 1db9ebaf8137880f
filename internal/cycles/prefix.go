package cycles

import "math"

// Prefix is a worst-case charge prefix-sum table: Prefix[i] bounds the
// cycles instructions [0:i) of a compiled unit can charge. The CPU's
// block and trace tiers use one per unit to batch the per-instruction
// timer-deadline check: while the clock provably cannot reach the next
// tick before instruction j starts, the check is skipped wholesale.
type Prefix []float64

// Append extends the table by one instruction of worst-case charge wc.
// The receiver must already hold the leading zero (see NewPrefix).
func (p Prefix) Append(wc float64) Prefix {
	return append(p, p[len(p)-1]+wc)
}

// NewPrefix returns an empty table (just the leading zero), with room
// for n instructions.
func NewPrefix(n int) Prefix {
	p := make(Prefix, 1, n+1)
	return p
}

// Horizon returns the exclusive horizon h for deadline checks: units
// with index in [start, h) execute without a per-instruction deadline
// check. Unit start itself is always exempt (the caller just performed
// its check); a later unit j is exempt when the worst-case charge
// prefix proves the clock cannot have reached deadline before j begins
// (cyc + p[j] - p[start] < deadline). A return of limit means the rest
// of the range is check-free. p is monotonic, so the largest fitting
// index is found by binary search — after an O(1) test of the whole
// range, which is the common answer when a tick is far off and the one
// the search would reach anyway.
func (p Prefix) Horizon(cyc, deadline float64, start, limit int) int {
	slack := deadline - cyc + p[start]
	if p[limit] < slack {
		return limit
	}
	lo, hi := start, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p[mid] < slack {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo >= limit {
		return limit
	}
	return lo + 1
}

// BatchSafe reports whether every cost in the model is a non-negative
// multiple of 0.5 small enough that sums of any realistic number of
// charges stay below 2^52. Then every charge is an exact multiple of
// the ulp-safe quantum, so floating-point summation is associative
// over them: a trace may accumulate charges in a local and add the
// total to the clock at commit — interleaved in any order with live
// mid-trace charges (TLB-miss walks) — and the final clock reading is
// bit-identical to charging one by one. Both built-in models qualify;
// a hypothetical model that does not simply never enables the trace
// tier.
func (m *Model) BatchSafe() bool {
	for _, c := range m.costs {
		if !(c >= 0) || c >= 1<<40 {
			return false
		}
		if t := c * 2; t != math.Trunc(t) {
			return false
		}
	}
	return true
}
