package webserver

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/fleet"
)

// Fleet is a pool of independently booted web-serving machines: each
// fleet worker owns a complete Palladium system with its own kernel,
// MMU, clock and loaded LibCGI script, so N workers model N machines
// behind a load balancer. Simulated per-machine metrics are untouched
// by concurrency — a worker's machine serves exactly as the serial
// Server does — while wall-clock work spreads across the pool.
type Fleet struct {
	Pool     *fleet.Pool[*Server]
	FileSize uint32
}

// FleetResult summarizes one model's run through a fleet.
type FleetResult struct {
	Model    Model
	Workers  int
	Requests int
	// AggregateReqPerSec is the fleet's serving capacity: the sum of
	// each machine's sustained simulated request rate over the span it
	// measured locally (each machine has its own clock and client
	// link, as N real machines would).
	AggregateReqPerSec float64
	// PerWorkerReqPerSec lists each machine's own sustained rate
	// (zero for a worker that served no requests of this run).
	PerWorkerReqPerSec []float64
	// PerWorkerRequests lists how many requests each machine served.
	PerWorkerRequests []uint64
	// WallSeconds is the host wall-clock time from first submission
	// to drain.
	WallSeconds float64
	// QueueHighWater and Steals are dispatcher counters for THIS run
	// only (a fleet.Pool.BeginRun delta), so back-to-back Serve calls
	// on the same fleet report independent values.
	QueueHighWater int
	Steals         uint64
}

// BootServer boots one machine exactly as the serial Table 3 harness
// boots its single machine: the template that daemons, clones and
// saved images start from.
func BootServer(fileSize uint32) (*Server, error) { return bootServer(fileSize) }

// bootServer boots one machine exactly as the serial Table 3 harness
// boots its single machine.
func bootServer(fileSize uint32) (*Server, error) {
	s, err := core.NewSystem(cycles.Measured())
	if err != nil {
		return nil, err
	}
	return New(s, fileSize)
}

// NewFleet boots a fleet of workers serving the given file size: ONE
// template machine is booted exactly as the serial Table 3 harness
// boots its single machine, and the remaining workers are cloned from
// it (COW memory, copied machine state). A clone's simulated state is
// bit-identical to a fresh boot's, so the fleet serves exactly as a
// serially booted one while paying one boot instead of N
// (TestTable3CloneFleetN8BitIdentical pins the equality).
func NewFleet(fileSize uint32, workers int) (*Fleet, error) {
	pool, err := fleet.NewFromTemplate(fleet.Config{Workers: workers},
		func() (*Server, error) { return bootServer(fileSize) },
		func(_ int, tmpl *Server) (*Server, error) { return tmpl.Clone() })
	if err != nil {
		return nil, err
	}
	return &Fleet{Pool: pool, FileSize: fileSize}, nil
}

// Serve pushes requests of one model through the fleet and returns the
// aggregate sustained rate. With one worker the result is bit-identical
// to the serial Server.Throughput on a machine with the same history,
// because the single machine executes the same request sequence and the
// rate is computed from the same span by the same formula.
func (f *Fleet) Serve(m Model, requests int) (FleetResult, error) {
	// Per-machine spans are the run's first-to-last clock readings of
	// each machine — the same single end-minus-start subtraction the
	// serial Throughput does, recorded by the worker itself around its
	// first and last served request — rather than a float sum of
	// per-request deltas, so N=1 rates are bit-identical to the serial
	// path, and a worker that joins mid-run (autoscaling) measures its
	// own local span instead of inheriting the run's global start.
	run := f.Pool.BeginRun()
	workers := f.Pool.Workers()
	start := time.Now()
	for i := 0; i < requests; i++ {
		// Round-robin pinned placement: the load balancer decides
		// which machine serves which request, so the per-machine
		// simulated spans are deterministic regardless of how the
		// host schedules the worker goroutines.
		err := f.Pool.SubmitTo(i%workers, func(_ int, srv *Server) error {
			_, err := srv.ServeRequest(m)
			return err
		})
		if err != nil {
			return FleetResult{}, err
		}
	}
	f.Pool.Drain()
	rs := run.Stats()

	res := FleetResult{
		Model:              m,
		Workers:            len(rs.Workers),
		Requests:           requests,
		PerWorkerReqPerSec: make([]float64, len(rs.Workers)),
		PerWorkerRequests:  make([]uint64, len(rs.Workers)),
		WallSeconds:        time.Since(start).Seconds(),
		QueueHighWater:     rs.QueueHighWater,
		Steals:             rs.Steals,
	}
	served := uint64(0)
	for w := range rs.Workers {
		n := rs.Workers[w].Requests
		res.PerWorkerRequests[w] = n
		served += n
		if n == 0 {
			continue
		}
		rate := f.Pool.Machine(w).SustainedRate(rs.Workers[w].SpanCycles, int(n))
		res.PerWorkerReqPerSec[w] = rate
		res.AggregateReqPerSec += rate
	}
	if served != uint64(requests) {
		return res, fmt.Errorf("webserver: fleet served %d of %d requests", served, requests)
	}
	if rs.Errors != 0 {
		_, err := f.Pool.Close()
		if err == nil {
			err = fmt.Errorf("webserver: %d fleet requests failed", rs.Errors)
		}
		return res, err
	}
	return res, nil
}

// Close drains and shuts the fleet down.
func (f *Fleet) Close() error {
	_, err := f.Pool.Close()
	return err
}

// ServeConcurrent is the one-shot concurrent serving path: it boots a
// fleet of `clients` machines, serves `requests` requests of model m
// through it, and shuts the fleet down. clients=1 reproduces the
// serial Table 3 numbers bit-identically.
func ServeConcurrent(fileSize uint32, m Model, clients, requests int) (FleetResult, error) {
	f, err := NewFleet(fileSize, clients)
	if err != nil {
		return FleetResult{}, err
	}
	res, err := f.Serve(m, requests)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}
