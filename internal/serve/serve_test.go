package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/webserver"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	return s
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestServeHTTPThroughFleet is the end-to-end path: a real HTTP
// request reaches a fleet machine, runs the protected LibCGI script on
// the simulated hardware, and reports both latencies.
func TestServeHTTPThroughFleet(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	for _, model := range []string{"", "static", "cgi", "fastcgi", "libcgi", "libcgi-prot"} {
		url := s.URL() + "/serve"
		if model != "" {
			url += "?model=" + model
		}
		resp, body := get(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model %q: HTTP %d: %s", model, resp.StatusCode, body)
		}
		if !strings.Contains(body, "status=200") {
			t.Errorf("model %q: body %q lacks script status", model, body)
		}
		if model != "static" && resp.Header.Get("X-Sim-Micros") == "0.000" {
			t.Errorf("model %q: zero simulated latency", model)
		}
		if resp.Header.Get("X-Wall-Micros") == "" {
			t.Errorf("model %q: no wall latency header", model)
		}
	}
	if resp, body := get(t, s.URL()+"/serve?model=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: HTTP %d %q, want 400", resp.StatusCode, body)
	}
	if resp, _ := get(t, s.URL()+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	if resp, _ := get(t, s.URL()+"/nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: HTTP %d, want 404", resp.StatusCode)
	}
	c := s.CountersSnapshot()
	if c.Completed != 6 || c.Failed != 0 {
		t.Errorf("counters = %+v, want 6 completed", c)
	}
	if s.SimHist().Count() != 6 || s.WallHist().Count() != 6 {
		t.Errorf("histograms recorded %d/%d samples, want 6/6", s.SimHist().Count(), s.WallHist().Count())
	}
}

// TestBackpressure503 pins the admission-control contract: with every
// worker blocked and the queue full, a request is refused immediately
// with HTTP 503, a Retry-After header and the typed backpressure fault
// class — it does not block behind capacity the fleet does not have.
func TestBackpressure503(t *testing.T) {
	s := startServer(t, Config{Workers: 1, Queue: 1})
	release := make(chan struct{})
	// Occupy the lone worker and fill the 1-deep queue through the
	// pool directly, so the HTTP request below deterministically hits
	// a full queue.
	if err := s.Pool().SubmitTo(0, func(int, *webserver.Server) error {
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	defer close(release)

	resp, body := get(t, s.URL()+"/serve")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d %q, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := resp.Header.Get("X-Fault-Class"); got != "backpressure" {
		t.Errorf("fault class %q, want backpressure", got)
	}
	if !strings.Contains(body, "backpressure") {
		t.Errorf("body %q does not name the fault class", body)
	}
	if c := s.CountersSnapshot(); c.Rejected != 1 || c.Admitted != 0 {
		t.Errorf("counters = %+v, want 1 rejected, 0 admitted", c)
	}
}

// TestMetricsEndpoint checks the observability surface: serving
// counters, fleet counters, per-worker interpreter counters and
// latency quantiles all render, and pprof answers.
func TestMetricsEndpoint(t *testing.T) {
	// 100 requests, not a handful: the worker's hot serving loop must
	// cross the trace-promotion threshold so the tier-3 counters below
	// are provably live end to end.
	s := startServer(t, Config{Workers: 1})
	for i := 0; i < 100; i++ {
		if resp, _ := get(t, s.URL()+"/serve?model=libcgi-prot"); resp.StatusCode != 200 {
			t.Fatalf("request %d failed", i)
		}
	}
	// The worker counts a request after its handler already has the
	// result, so the last count can trail the response; Drain returns
	// only once every count has landed.
	s.Pool().Drain()
	_, body := get(t, s.URL()+"/metrics")
	for _, want := range []string{
		"palladium_serve_completed_total 100",
		"palladium_serve_rejected_total 0",
		"palladium_serve_workers 1",
		"palladium_fleet_requests_total 100",
		"palladium_fleet_worker_requests_total{worker=\"0\"} 100",
		"palladium_interp_chain_hits_total",
		"palladium_interp_trace_builds_total",
		"palladium_interp_trace_dispatches_total",
		"palladium_interp_trace_deopts_total",
		"palladium_tlb_hits_total",
		"palladium_serve_sim_latency_us{quantile=\"0.5\"}",
		"palladium_serve_wall_latency_us{quantile=\"0.999\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The protected serving path runs real simulated code: the
	// per-worker interpreter counters — including the trace tier's —
	// must be live, not zero.
	for _, counter := range []string{
		"palladium_interp_chain_hits_total",
		"palladium_interp_trace_dispatches_total",
		"palladium_tlb_hits_total",
	} {
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, counter+" ") && strings.TrimPrefix(line, counter+" ") == "0" {
				t.Errorf("%s is zero after 100 protected requests", counter)
			}
		}
	}
	if resp, _ := get(t, s.URL()+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: HTTP %d", resp.StatusCode)
	}
}

// TestAutoscaleUp checks that queue pressure grows the fleet: a burst
// beyond the scale-up threshold against a 1-worker fleet must add
// workers up to the cap, and the scaled-up workers actually serve.
func TestAutoscaleUp(t *testing.T) {
	s := startServer(t, Config{
		Workers: 1, MaxWorkers: 4, Queue: 64,
		ScaleInterval: time.Millisecond, ScaleUpDepth: 1,
	})
	// Hold worker 0 hostage so the backlog builds, forcing scale-up.
	release := make(chan struct{})
	if err := s.Pool().SubmitTo(0, func(int, *webserver.Server) error {
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var okN atomic.Uint64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(s.URL() + "/serve?model=libcgi-prot")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				okN.Add(1)
			}
		}()
	}
	deadline := time.After(10 * time.Second)
	for s.Workers() == 1 {
		select {
		case <-deadline:
			t.Fatal("autoscaler never scaled up under backlog")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	if s.Workers() < 2 || s.Workers() > 4 {
		t.Errorf("workers = %d, want in [2, 4]", s.Workers())
	}
	if s.ScaleUps() == 0 {
		t.Error("no scale-ups counted")
	}
	if okN.Load() == 0 {
		t.Error("no requests served during scale-up")
	}
	// The scaled-up workers exist because worker 0 was blocked: they
	// must have taken real work.
	st := s.Pool().Stats()
	var scaledServed uint64
	for _, ws := range st.Workers[1:] {
		scaledServed += ws.Requests
	}
	if scaledServed == 0 {
		t.Error("scaled-up workers served nothing")
	}
}

// TestAutoscaledWorkerBitIdenticalToStatic is the simulated-metrics
// guarantee of clone-based scale-up: a worker added mid-run serves
// with exactly the same simulated cycle accounting as a worker of a
// statically sized fleet, because both are clones of a pristine
// template. The request sequence is pinned per machine, so per-machine
// simulated spans are deterministic.
func TestAutoscaledWorkerBitIdenticalToStatic(t *testing.T) {
	const requests = 16

	// Static twin: 2 workers from boot.
	static, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close(context.Background())

	// Autoscaled twin: 1 worker at boot, second added by ScaleUp
	// after the first has already served (the dirty-template hazard:
	// scale-up must clone the pristine template, not a serving
	// machine).
	scaled, err := New(Config{Workers: 1, MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer scaled.Close(context.Background())
	if err := scaled.Pool().SubmitTo(0, func(_ int, srv *webserver.Server) error {
		_, err := srv.ServeRequest(webserver.LibCGIProtected)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	scaled.Pool().Drain()
	if err := scaled.ScaleUp(); err != nil {
		t.Fatal(err)
	}

	serveSeq := func(s *Server, w int) (boot, span float64) {
		t.Helper()
		run := s.Pool().BeginRun()
		for i := 0; i < requests; i++ {
			if err := s.Pool().SubmitTo(w, func(_ int, srv *webserver.Server) error {
				_, err := srv.ServeRequest(webserver.LibCGIProtected)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		s.Pool().Drain()
		rs := run.Stats()
		if rs.Workers[w].Requests != requests {
			t.Fatalf("worker %d served %d of %d", w, rs.Workers[w].Requests, requests)
		}
		return s.Pool().Stats().Workers[w].BootCycles, rs.Workers[w].SpanCycles
	}

	staticBoot, staticSpan := serveSeq(static, 1)
	scaledBoot, scaledSpan := serveSeq(scaled, 1)
	if scaledBoot != staticBoot {
		t.Errorf("scaled-up worker boot cycles %v != static worker's %v", scaledBoot, staticBoot)
	}
	if scaledSpan != staticSpan {
		t.Errorf("scaled-up worker span %v != static worker's %v (must be bit-identical)", scaledSpan, staticSpan)
	}
	// And the derived serving rate — the Table 3 quantity — matches
	// bit-for-bit too.
	rs := scaled.Pool().Machine(1).SustainedRate(scaledSpan, requests)
	rt := static.Pool().Machine(1).SustainedRate(staticSpan, requests)
	if rs != rt {
		t.Errorf("scaled-up rate %v != static rate %v", rs, rt)
	}
}

// TestShutdownDrainsAccepted checks the daemon half of the drain
// guarantee: Close completes every admitted request (counters
// conserve) and later requests are refused, not hung.
func TestShutdownDrainsAccepted(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Queue: 32})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(s.URL() + "/serve")
			if err != nil {
				return // racing shutdown: connection refusal is fine
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	c := s.CountersSnapshot()
	if got := c.Completed + c.Failed; got != c.Admitted {
		t.Errorf("admitted %d but completed+failed %d: accepted requests dropped", c.Admitted, got)
	}
	if c.Failed != 0 {
		t.Errorf("%d requests failed during clean shutdown", c.Failed)
	}
}

// TestParseModelRejectsUnknown covers the error path.
func TestParseModelRejectsUnknown(t *testing.T) {
	if _, err := ParseModel("bogus"); err == nil {
		t.Error("ParseModel(bogus) = nil error")
	}
	m, err := ParseModel("static")
	if err != nil || m != webserver.Static {
		t.Errorf("ParseModel(static) = %v, %v", m, err)
	}
}

// TestLoadgenClosedLoop runs the load generator against a live
// daemon: nonzero throughput, sane quantiles, zero dropped-accepted.
func TestLoadgenClosedLoop(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	res, err := RunLoad(LoadConfig{
		URL: s.URL(), Model: "libcgi-prot", Conns: 4,
		Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 || res.AchievedReqPerSec <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.WallP50 == 0 || res.WallP99 < res.WallP50 {
		t.Errorf("wall quantiles: p50=%d p99=%d", res.WallP50, res.WallP99)
	}
	if res.SimP50 == 0 {
		t.Errorf("sim p50 = 0 for the protected model")
	}
	if res.Errors != 0 {
		t.Errorf("%d transport errors", res.Errors)
	}
}

// TestLoadgenOpenLoop paces arrivals at a fixed rate and checks the
// achieved rate lands near it (the fleet has ample capacity at this
// rate, so nothing should be shed or rejected).
func TestLoadgenOpenLoop(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	const rate = 200.0
	res, err := RunLoad(LoadConfig{
		URL: s.URL(), Conns: 8, Rate: rate,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 {
		t.Fatalf("open loop completed nothing: %+v", res)
	}
	if res.AchievedReqPerSec > rate*1.5 {
		t.Errorf("achieved %.0f req/s against a %.0f pace", res.AchievedReqPerSec, rate)
	}
	if res.Rejected != 0 {
		t.Errorf("%d rejections at a rate far below capacity", res.Rejected)
	}
}

// TestSweepReport runs a miniature connections x workers sweep and
// checks the report invariants the CI smoke leg asserts.
func TestSweepReport(t *testing.T) {
	rep, err := Sweep(SweepConfig{
		Workers:  []int{1, 2},
		Conns:    []int{1, 2},
		Duration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(rep.Cells))
	}
	if rep.CapacityReqPerSec <= 0 || rep.CeilingWorkers == 0 || rep.CeilingConns == 0 {
		t.Errorf("no capacity ceiling: %+v", rep)
	}
	if rep.DroppedAccepted != 0 {
		t.Errorf("dropped accepted = %d, want 0", rep.DroppedAccepted)
	}
	for _, c := range rep.Cells {
		if c.OK == 0 || c.WallP50 == 0 || c.SimP50 == 0 {
			t.Errorf("hollow cell: %+v", c)
		}
	}
}

// TestServeConcurrentHammer pushes concurrent HTTP load (with -race
// this is the serving tier's memory-safety proof) and checks request
// conservation: every 200 was really served by the fleet.
func TestServeConcurrentHammer(t *testing.T) {
	s := startServer(t, Config{Workers: 4, Queue: 64})
	const clients = 8
	const perClient = 25
	var ok, rejected atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(s.URL() + "/serve")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					rejected.Add(1)
				default:
					t.Errorf("HTTP %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("nothing served")
	}
	st := s.Pool().Stats()
	if st.Requests != ok.Load() {
		t.Errorf("fleet served %d, clients saw %d OKs", st.Requests, ok.Load())
	}
	c := s.CountersSnapshot()
	if c.Completed != ok.Load() || c.Rejected != rejected.Load() {
		t.Errorf("counters %+v vs client view ok=%d rejected=%d", c, ok.Load(), rejected.Load())
	}
	if got := fmt.Sprint(ok.Load() + rejected.Load()); got != fmt.Sprint(clients*perClient) {
		t.Errorf("conservation: %s outcomes for %d requests", got, clients*perClient)
	}
}
