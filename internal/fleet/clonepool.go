// Clone pool for clone-per-request serving: every request runs on a
// machine cloned from a pristine template, so it sees exactly the
// template's state. A machine handed back is reset in place to that
// template and kept for the next request, so a steady stream of
// requests forks nothing: Take hands out the reset machine that has
// waited longest, or clones inline when none is waiting — the
// ColdSteals gauge counts how often. A pool as deep as the most
// machines its callers hold at once keeps every machine handed back,
// so it forks no more than that many in its life. Cross-request
// isolation comes from the reset, which rewinds every layer of the
// machine to the template (webserver.Server.Reset), so nothing one
// request wrote survives into the next. Clone and Reset only read the
// template, so Takes and Discards on different goroutines run them
// concurrently.
package fleet

import (
	"errors"
	"sync"
)

// ErrPoolClosed reports a Take after the clone pool shut down.
var ErrPoolClosed = errors.New("fleet: clone pool is closed")

// CloneStats is a snapshot of the pool gauges.
type CloneStats struct {
	// WarmDepth is the current number of reset machines waiting.
	WarmDepth int
	// TargetDepth is the most reset machines the pool keeps.
	TargetDepth int
	// Forks counts every clone ever created.
	Forks uint64
	// ColdSteals counts Takes that found no reset machine waiting and
	// cloned inline on the request path.
	ColdSteals uint64
	// Discards counts machines handed back through Discard.
	Discards uint64
	// Resets counts handed-back machines reset and kept for reuse.
	Resets uint64
}

// ClonePool hands out machines cloned from a template and takes them
// back reset. M is typically *webserver.Server; the pool is generic so
// tests can drive it with counters instead of full machines. M's Reset
// rewinds a machine in place to the template it was cloned from.
type ClonePool[M interface{ Reset() error }] struct {
	clone   func() (M, error) // forks one machine off the template
	discard func(M)           // releases a machine the pool does not keep

	mu     sync.Mutex
	idle   []M
	depth  int
	closed bool

	forks      uint64
	coldSteals uint64
	discards   uint64
	resets     uint64
}

// NewClonePool returns a pool keeping up to depth reset machines, and
// forks that many up front, so the first requests find machines
// waiting. clone forks a machine off the template; it and M's Reset
// must only read the template, since Takes and Discards on different
// goroutines call them concurrently. discard releases a machine that
// the pool does not keep: one whose Reset failed, one handed back while
// depth machines wait, and the waiting ones at Close.
func NewClonePool[M interface{ Reset() error }](depth int, clone func() (M, error), discard func(M)) *ClonePool[M] {
	return NewClonePoolWarm(depth, depth, clone, discard)
}

// NewClonePoolWarm is NewClonePool forking only warm of the depth
// machines up front; Takes that find none waiting fork the rest. A
// failed fork stops the up-front forking early; Take then clones
// inline and returns the error.
func NewClonePoolWarm[M interface{ Reset() error }](depth, warm int, clone func() (M, error), discard func(M)) *ClonePool[M] {
	p := &ClonePool[M]{clone: clone, discard: discard, depth: max(depth, 1)}
	for len(p.idle) < min(warm, p.depth) {
		m, err := clone()
		if err != nil {
			break
		}
		p.idle = append(p.idle, m)
		p.forks++
	}
	return p
}

// Take hands out the reset machine that has waited longest, or clones
// one inline (a cold steal) when none is waiting. Taking the oldest
// rotates through the kept machines, so each has served, and holds
// warm decoded blocks, before a burst needs them all at once. The
// caller owns the returned machine exclusively and must hand it to
// Discard when done.
func (p *ClonePool[M]) Take() (M, error) {
	var zero M
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return zero, ErrPoolClosed
	}
	if n := len(p.idle); n > 0 {
		m := p.idle[0]
		copy(p.idle, p.idle[1:])
		p.idle[n-1] = zero
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return m, nil
	}
	p.coldSteals++
	p.mu.Unlock()
	m, err := p.clone()
	if err != nil {
		return zero, err
	}
	p.mu.Lock()
	p.forks++
	p.mu.Unlock()
	return m, nil
}

// Discard hands a spent machine back. It is reset and kept for a later
// Take, unless the reset fails, depth machines already wait or the
// pool is closed; then it is released. Never use a machine after
// handing it back.
func (p *ClonePool[M]) Discard(m M) {
	err := m.Reset()
	p.mu.Lock()
	p.discards++
	if err == nil && !p.closed && len(p.idle) < p.depth {
		p.idle = append(p.idle, m)
		p.resets++
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.discard(m)
}

// Drop releases a taken machine without resetting or keeping it: one
// whose request panicked, leaving it in a state a reset may not undo.
func (p *ClonePool[M]) Drop(m M) { p.discard(m) }

// Stats snapshots the pool gauges.
func (p *ClonePool[M]) Stats() CloneStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CloneStats{
		WarmDepth:   len(p.idle),
		TargetDepth: p.depth,
		Forks:       p.forks,
		ColdSteals:  p.coldSteals,
		Discards:    p.discards,
		Resets:      p.resets,
	}
}

// Close releases every waiting machine. Take fails afterwards;
// machines already taken may still be handed to Discard, which then
// releases them.
func (p *ClonePool[M]) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, m := range idle {
		p.discard(m)
	}
}
