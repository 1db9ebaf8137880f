package cycles

import (
	"math/rand/v2"
	"testing"
)

// horizonRef is Horizon by definition: unit start is exempt, and each
// later unit j is exempt while cyc + p[j] - p[start] < deadline; the
// horizon is the first unit past start that is not, capped at limit.
func horizonRef(p Prefix, cyc, deadline float64, start, limit int) int {
	h := start + 1
	for h < limit && cyc+p[h]-p[start] < deadline {
		h++
	}
	return min(h, limit)
}

// randomPrefix builds an n-unit prefix of half-cycle multiples (as
// every built-in model's charges are), so the reference's sums and
// Horizon's slack compare exactly. Zero-cost units make flat runs.
func randomPrefix(r *rand.Rand, n int) Prefix {
	p := NewPrefix(n)
	for range n {
		p = p.Append(float64(r.IntN(8)) / 2)
	}
	return p
}

func TestHorizonMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	check := func(p Prefix, cyc, deadline float64, start, limit int) {
		t.Helper()
		if got, want := p.Horizon(cyc, deadline, start, limit), horizonRef(p, cyc, deadline, start, limit); got != want {
			t.Fatalf("Horizon(cyc=%v, deadline=%v, %d, %d) over %v = %d, want %d",
				cyc, deadline, start, limit, p, got, want)
		}
	}
	for range 20000 {
		n := r.IntN(40)
		p := randomPrefix(r, n)
		limit := r.IntN(n + 1)
		start := r.IntN(limit + 1)
		cyc := float64(r.IntN(1000)) / 2
		// The caller has just checked the deadline, so cyc < deadline;
		// the slack ranges from just past start to well past limit.
		deadline := cyc + 0.5 + float64(r.IntN(int(2*(p[n]-p[start]))+4))/2
		check(p, cyc, deadline, start, limit)

		// Edge cases: an empty range, a slack landing exactly on
		// p[limit] (the whole-range test just fails), and a zero slack.
		check(p, cyc, deadline, limit, limit)
		check(p, cyc, cyc+p[limit]-p[start], start, limit)
		check(p, cyc, cyc, start, limit)
	}
}
