package serve

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fleet"
	"repro/internal/webserver"
)

// metricValue returns the value of one unlabelled /metrics line.
func metricValue(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	_, body := get(t, s.URL()+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics lacks %s", name)
	return 0
}

// TestPanickingRequestFails500: a Go panic while serving fails that
// one request with HTTP 500 and a typed fault class instead of killing
// the daemon. The machine it ran on is replaced, so the next request
// is served, and the accounting still reconciles.
func TestPanickingRequestFails500(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	// Wreck the lone worker's machine so that the next request on it
	// panics. (Not srv.S = nil: then the pool's own clock read after
	// this request panics, and this request is the one that fails.)
	if err := s.Pool().SubmitTo(0, func(_ int, srv *webserver.Server) error {
		srv.S.K.Machine = nil
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, s.URL()+"/serve")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("request on a wrecked machine: HTTP %d %q, want 500", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fault-Class"); got != "unknown" {
		t.Errorf("fault class %q, want unknown", got)
	}
	if !strings.Contains(body, "panicked") {
		t.Errorf("body %q does not say the request panicked", body)
	}
	if resp, body := get(t, s.URL()+"/serve"); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: HTTP %d %q, want 200", resp.StatusCode, body)
	}
	adm := metricValue(t, s, "palladium_serve_admitted_total")
	comp := metricValue(t, s, "palladium_serve_completed_total")
	fail := metricValue(t, s, "palladium_serve_failed_total")
	if adm != 2 || comp != 1 || fail != 1 {
		t.Errorf("/metrics admitted %d completed %d failed %d, want 2 = 1 + 1", adm, comp, fail)
	}
	if errs := metricValue(t, s, "palladium_fleet_errors_total"); errs != 1 {
		t.Errorf("fleet errors %d, want 1", errs)
	}
	if n := metricValue(t, s, "palladium_serve_inflight"); n != 0 {
		t.Errorf("%d requests still in flight", n)
	}
}

// TestPanickingCloneIsReleased: in clone-per-request mode a clone whose
// request panicked is released, not reset and kept for the next one.
func TestPanickingCloneIsReleased(t *testing.T) {
	s, err := New(Config{Workers: 1, ClonePerRequest: true})
	if err != nil {
		t.Fatal(err)
	}
	var forks, released atomic.Int32
	s.clones.Close()
	s.clones = fleet.NewClonePoolWarm(1, 0, func() (*webserver.Server, error) {
		c, err := s.tmpl.Clone()
		if err == nil && forks.Add(1) == 1 {
			c.S.K.Machine = nil // the first clone panics when served
		}
		return c, err
	}, func(c *webserver.Server) {
		released.Add(1)
		c.S.K.Phys.Release()
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	resp, body := get(t, s.URL()+"/serve")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("request on a broken clone: HTTP %d %q, want 500", resp.StatusCode, body)
	}
	if st, _ := s.CloneStats(); released.Load() != 1 || st.Resets != 0 || st.WarmDepth != 0 {
		t.Errorf("released %d, stats %+v: want the broken clone released, none kept", released.Load(), st)
	}
	if resp, body := get(t, s.URL()+"/serve"); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: HTTP %d %q, want 200", resp.StatusCode, body)
	}
	if st, _ := s.CloneStats(); forks.Load() != 2 || st.Resets != 1 {
		t.Errorf("forks %d, stats %+v: want a fresh clone served, reset and kept", forks.Load(), st)
	}
	c := s.CountersSnapshot()
	if c.Admitted != 2 || c.Completed != 1 || c.Failed != 1 {
		t.Errorf("counters %+v, want 2 admitted = 1 completed + 1 failed", c)
	}
}

// TestScaledUpCloneWorkerPublishesCounters: a request on a machine
// added after a scale-down, whose worker index is past the boot-time
// counter table, still reaches /metrics.
func TestScaledUpCloneWorkerPublishesCounters(t *testing.T) {
	s := startServer(t, Config{Workers: 1, MaxWorkers: 2, ClonePerRequest: true})
	for _, step := range []func() error{s.ScaleUp, s.ScaleDown, s.ScaleUp} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if live := s.Pool().LiveWorkers(); len(live) != 2 || live[1] != 2 {
		t.Fatalf("live workers %v, want [0 2]", live)
	}
	release := make(chan struct{})
	holdWorker(t, s, 0, release)
	defer close(release)
	before := metricValue(t, s, "palladium_interp_block_builds_total")
	if resp, body := get(t, s.URL()+"/serve"); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d %q", resp.StatusCode, body)
	}
	if ws := s.Pool().Stats().Workers[2]; ws.Requests != 1 {
		t.Fatalf("worker 2 served %d requests, want 1", ws.Requests)
	}
	if after := metricValue(t, s, "palladium_interp_block_builds_total"); after <= before {
		t.Errorf("block builds %d -> %d: worker 2's request was not counted", before, after)
	}
}
