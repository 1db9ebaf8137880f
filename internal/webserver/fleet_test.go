package webserver

import (
	"testing"

	"repro/internal/fleet"
)

// servePinned serves requests of model m through pool, pinned
// round-robin over its workers (so each machine's request sequence
// does not depend on host scheduling), and returns each worker's
// sustained rate. Each worker's span runs from its machine's clock
// just before its first request to just after its last, and
// Server.SustainedRate turns it into a rate: the same subtraction and
// formula the serial Throughput applies to its own span.
func servePinned(t *testing.T, pool *fleet.Pool[*Server], workers int, m Model, requests int) []float64 {
	t.Helper()
	start := make([]float64, workers)
	rates := make([]float64, workers)
	for i := 0; i < requests; i++ {
		w := i % workers
		first, last := i < workers, i >= requests-workers
		n := requests / workers
		if w < requests%workers {
			n++
		}
		err := pool.SubmitTo(w, func(_ int, srv *Server) error {
			if first {
				start[w] = srv.SimCycles()
			}
			if _, err := srv.ServeRequest(m); err != nil {
				return err
			}
			if last {
				rates[w] = srv.SustainedRate(srv.SimCycles()-start[w], n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pool.Drain()
	if errs := pool.Stats().Errors; errs != 0 {
		t.Fatalf("%v: %d pinned requests failed", m, errs)
	}
	return rates
}

// newPool starts a fleet of workers serving the given file size. With
// clone set, ONE machine is booted and serves as worker 0 while the
// others are cloned from it, as the daemon derives its workers from a
// template; otherwise every worker is booted from scratch.
func newPool(t *testing.T, fileSize uint32, workers int, clone bool) *fleet.Pool[*Server] {
	t.Helper()
	var tmpl *Server
	pool, err := fleet.New(fleet.Config{Workers: workers}, func(w int) (*Server, error) {
		if !clone || w == 0 {
			srv, err := BootServer(fileSize)
			tmpl = srv
			return srv, err
		}
		return tmpl.Clone()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// TestFleetN1MatchesSerialThroughput pins the fleet's N=1 case to the
// serial path: one fleet machine serving the same request sequence
// must report a bit-identical rate for every model, because the
// machine boots identically, executes identically, and the rate comes
// from the same span through the same formula.
func TestFleetN1MatchesSerialThroughput(t *testing.T) {
	const requests = 30
	for _, m := range []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected} {
		serial := newServer(t, 28)
		want, err := serial.Throughput(m, requests)
		if err != nil {
			t.Fatalf("%v serial: %v", m, err)
		}
		pool := newPool(t, 28, 1, false)
		if got := servePinned(t, pool, 1, m, requests)[0]; got != want {
			t.Errorf("%v: fleet N=1 rate %v != serial %v (must be bit-identical)", m, got, want)
		}
		if n := pool.Stats().Requests; n != requests {
			t.Errorf("%v: worker 0 served %d of %d", m, n, requests)
		}
	}
}

// TestTable3CloneFleetN8BitIdentical extends the N=1 anchor to the
// clone-booted fleet: 8 workers cloned from one template must serve
// Table 3 exactly as 8 serially booted machines do — every worker's
// sustained rate bit-identical for every model — and every worker's
// rate must equal a lone serial machine's rate over the same per-worker
// request count.
func TestTable3CloneFleetN8BitIdentical(t *testing.T) {
	const (
		size     = 28
		workers  = 8
		requests = 64 // 8 per worker under pinned round-robin
	)
	cloned := newPool(t, size, workers, true)
	serialFleet := newPool(t, size, workers, false)

	// A lone serial machine serving the same per-worker request count
	// anchors the fleet rates back to the Table 3 path.
	solo, err := BootServer(size)
	if err != nil {
		t.Fatal(err)
	}
	// Table 3's serving order: TLB warmth carries from one model to the
	// next, so all three machines must see the same sequence.
	for _, m := range []Model{CGI, FastCGI, LibCGIProtected, LibCGI, Static} {
		rc := servePinned(t, cloned, workers, m, requests)
		rs := servePinned(t, serialFleet, workers, m, requests)
		soloRate, err := solo.Throughput(m, requests/workers)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			if rc[w] != rs[w] {
				t.Errorf("%v worker %d: clone-boot %v != serial-boot %v", m, w, rc[w], rs[w])
			}
			if rc[w] != soloRate {
				t.Errorf("%v worker %d: fleet rate %v != serial Table 3 machine %v", m, w, rc[w], soloRate)
			}
		}
	}
}
