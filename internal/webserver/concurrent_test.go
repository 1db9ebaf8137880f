package webserver

import (
	"testing"

	"repro/internal/fleet"
)

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
		got, err := ServeConcurrent(28, m, 1, requests)
		if err != nil {
			t.Fatalf("%v fleet: %v", m, err)
		}
		if got.AggregateReqPerSec != want {
			t.Errorf("%v: fleet N=1 rate %v != serial %v (must be bit-identical)", m, got.AggregateReqPerSec, want)
		}
		if got.PerWorkerRequests[0] != requests {
			t.Errorf("%v: worker 0 served %d of %d", m, got.PerWorkerRequests[0], requests)
		}
	}
}

// TestFleetAggregateScalesLinearly checks the point of the fleet: N
// independent machines have N times the simulated serving capacity.
func TestFleetAggregateScalesLinearly(t *testing.T) {
	const requests = 40
	single, err := ServeConcurrent(28, LibCGIProtected, 1, requests)
	if err != nil {
		t.Fatal(err)
	}
	four, err := ServeConcurrent(28, LibCGIProtected, 4, requests)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := four.AggregateReqPerSec / single.AggregateReqPerSec; ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4-worker aggregate = %.1f req/s, single = %.1f: ratio %.2f, want ~4",
			four.AggregateReqPerSec, single.AggregateReqPerSec, ratio)
	}
	// Round-robin placement: every machine served its share.
	for w, n := range four.PerWorkerRequests {
		if n != requests/4 {
			t.Errorf("worker %d served %d, want %d", w, n, requests/4)
		}
	}
}

// TestFleetReusedAcrossModels mirrors the Table 3 harness: one fleet
// serving all five models in sequence, each span measured separately.
func TestFleetReusedAcrossModels(t *testing.T) {
	f, err := NewFleet(28, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var static, cgi float64
	for _, m := range []Model{Static, CGI} {
		res, err := f.Serve(m, 20)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		switch m {
		case Static:
			static = res.AggregateReqPerSec
		case CGI:
			cgi = res.AggregateReqPerSec
		}
	}
	if static <= cgi {
		t.Errorf("static (%.0f) must outrun CGI (%.0f) in aggregate too", static, cgi)
	}
}

// TestFleetPerRunCountersNotContaminated is the regression test for
// the pool-lifetime-counter bug: back-to-back Serve runs on one fleet
// must report their own QueueHighWater (a heavy run used to leak its
// high water into a later light run's result).
func TestFleetPerRunCountersNotContaminated(t *testing.T) {
	f, err := NewFleet(28, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	heavy, err := f.Serve(Static, 40)
	if err != nil {
		t.Fatal(err)
	}
	light, err := f.Serve(Static, 2)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.QueueHighWater == 0 {
		t.Error("heavy run reports no queue high water")
	}
	if light.QueueHighWater > 1 {
		t.Errorf("light run (1 request/worker) high water = %d, want <= 1 (got the heavy run's?)",
			light.QueueHighWater)
	}
	if light.Steals != 0 {
		t.Errorf("pinned light run steals = %d, want 0", light.Steals)
	}
	if n := light.PerWorkerRequests[0] + light.PerWorkerRequests[1]; n != 2 {
		t.Errorf("light run served %d requests, want 2", n)
	}
}

// newFleetSerial boots every worker from scratch, the behaviour before
// clone-boot: the serial reference the clone-booted fleet is compared
// against.
func newFleetSerial(fileSize uint32, workers int) (*Fleet, error) {
	pool, err := fleet.New(fleet.Config{Workers: workers}, func(int) (*Server, error) {
		return bootServer(fileSize)
	})
	if err != nil {
		return nil, err
	}
	return &Fleet{Pool: pool, FileSize: fileSize}, nil
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
	cloned, err := NewFleet(size, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer cloned.Close()
	serialFleet, err := newFleetSerial(size, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer serialFleet.Close()

	// A lone serial machine serving the same per-worker request count
	// anchors the fleet rates back to the Table 3 path.
	solo, err := BootServer(size)
	if err != nil {
		t.Fatal(err)
	}
	// Table 3's serving order: TLB warmth carries from one model to the
	// next, so all three machines must see the same sequence.
	for _, m := range []Model{CGI, FastCGI, LibCGIProtected, LibCGI, Static} {
		rc, err := cloned.Serve(m, requests)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := serialFleet.Serve(m, requests)
		if err != nil {
			t.Fatal(err)
		}
		soloRate, err := solo.Throughput(m, requests/workers)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			if rc.PerWorkerReqPerSec[w] != rs.PerWorkerReqPerSec[w] {
				t.Errorf("%v worker %d: clone-boot %v != serial-boot %v",
					m, w, rc.PerWorkerReqPerSec[w], rs.PerWorkerReqPerSec[w])
			}
			if rc.PerWorkerReqPerSec[w] != soloRate {
				t.Errorf("%v worker %d: fleet rate %v != serial Table 3 machine %v",
					m, w, rc.PerWorkerReqPerSec[w], soloRate)
			}
		}
		if rc.AggregateReqPerSec != rs.AggregateReqPerSec {
			t.Errorf("%v aggregate: clone-boot %v != serial-boot %v", m, rc.AggregateReqPerSec, rs.AggregateReqPerSec)
		}
	}
}
