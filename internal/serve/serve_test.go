package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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

// holdWorker checks worker w's machine out on a goroutine of its own
// and keeps it until release is closed. It returns once the machine is
// held; the request then counts as in flight.
func holdWorker(t *testing.T, s *Server, w int, release <-chan struct{}) {
	t.Helper()
	held := make(chan error, 1)
	go func() {
		if err := s.Pool().SubmitTo(w, func(int, *webserver.Server) error {
			held <- nil
			<-release
			return nil
		}); err != nil {
			held <- err
		}
	}()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
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
// machine held and the in-flight bound reached, a request is refused
// immediately with HTTP 503, a Retry-After header and the typed
// backpressure fault class — it does not block behind capacity the
// fleet does not have.
func TestBackpressure503(t *testing.T) {
	s := startServer(t, Config{Workers: 1, Queue: 1})
	release := make(chan struct{})
	// Hold the lone machine through the pool directly, which fills the
	// in-flight bound of 1, so the HTTP request below deterministically
	// hits it.
	holdWorker(t, s, 0, release)
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
	holdWorker(t, s, 0, release)
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
	// The scaled-up workers exist because worker 0 was held: they
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

	// serveSeq serves the pinned sequence on worker w and reports its
	// machine's clock before the first request (nothing has run on the
	// worker yet, so this is its boot state), the span the sequence
	// took, and the sustained rate over that span.
	serveSeq := func(s *Server, w int) (boot, span, rate float64) {
		t.Helper()
		for i := 0; i < requests; i++ {
			first, last := i == 0, i == requests-1
			if err := s.Pool().SubmitTo(w, func(_ int, srv *webserver.Server) error {
				if first {
					boot = srv.SimCycles()
				}
				if _, err := srv.ServeRequest(webserver.LibCGIProtected); err != nil {
					return err
				}
				if last {
					span = srv.SimCycles() - boot
					rate = srv.SustainedRate(span, requests)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		s.Pool().Drain()
		if ws := s.Pool().Stats().Workers[w]; ws.Requests != requests || ws.Errors != 0 {
			t.Fatalf("worker %d served %d of %d with %d errors", w, ws.Requests, requests, ws.Errors)
		}
		return boot, span, rate
	}

	staticBoot, staticSpan, staticRate := serveSeq(static, 1)
	scaledBoot, scaledSpan, scaledRate := serveSeq(scaled, 1)
	if scaledBoot != staticBoot {
		t.Errorf("scaled-up worker boot cycles %v != static worker's %v", scaledBoot, staticBoot)
	}
	if scaledSpan != staticSpan {
		t.Errorf("scaled-up worker span %v != static worker's %v (must be bit-identical)", scaledSpan, staticSpan)
	}
	// And the derived serving rate — the Table 3 quantity — matches
	// bit-for-bit too.
	if scaledRate != staticRate {
		t.Errorf("scaled-up rate %v != static rate %v", scaledRate, staticRate)
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

// TestCloseAfterFailedRequest checks that a request whose handler
// failed is counted, not fatal: Close still returns nil, so a daemon
// exits cleanly on SIGTERM after a tenant request failed, and its
// counters conserve.
func TestCloseAfterFailedRequest(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	boom := errors.New("tenant request failed")
	if err := s.Pool().SubmitTo(0, func(int, *webserver.Server) error { return boom }); err != nil {
		t.Fatal(err)
	}
	s.Pool().Drain()
	if resp, body := get(t, s.URL()+"/serve"); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d after a failed request: %s", resp.StatusCode, body)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close after a failed request = %v, want nil", err)
	}
	if errs := s.Pool().Stats().Errors; errs != 1 {
		t.Errorf("pool counted %d failed requests, want 1", errs)
	}
	c := s.CountersSnapshot()
	if c.Admitted != 1 || c.Completed+c.Failed != c.Admitted {
		t.Errorf("counters %+v: want 1 admitted, conserved", c)
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

// TestSlowHeaderClientDisconnected sends half a request header and
// never finishes it: the daemon must close the connection once the
// header timeout passes, keep serving other clients, and still conserve
// its admitted requests.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.hs.ReadHeaderTimeout != readHeaderTimeout || s.hs.IdleTimeout != idleTimeout {
		t.Fatalf("http.Server timeouts header=%v idle=%v, want %v and %v",
			s.hs.ReadHeaderTimeout, s.hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	s.hs.ReadHeaderTimeout = 50 * time.Millisecond
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /serve HTTP/1.1\r\nHost: palladium\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 512))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open 5 s after a partial header")
	}
	if err == nil {
		t.Fatalf("read %d bytes from a connection that sent half a header, want close", n)
	}

	resp, body := get(t, s.URL()+"/serve")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d after the slow client: %s", resp.StatusCode, body)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := s.CountersSnapshot()
	if c.Admitted != 1 || c.Completed+c.Failed != c.Admitted {
		t.Errorf("counters %+v: want 1 admitted == completed + failed", c)
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
