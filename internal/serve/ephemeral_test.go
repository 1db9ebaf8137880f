package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/webserver"
)

// TestScaleDownRetiresIdleWorkers: ScaleDown retires the newest live
// worker and refuses to shrink below the boot size.
func TestScaleDownRetiresIdleWorkers(t *testing.T) {
	s := startServer(t, Config{Workers: 1, MaxWorkers: 3})
	if err := s.ScaleUp(); err != nil {
		t.Fatal(err)
	}
	if err := s.ScaleUp(); err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 3 {
		t.Fatalf("workers = %d after two scale-ups", s.Workers())
	}
	for i := 0; i < 2; i++ {
		if err := s.ScaleDown(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Workers() != 1 {
		t.Fatalf("workers = %d after two scale-downs, want 1", s.Workers())
	}
	// At the floor, ScaleDown is a refusal, not an error.
	if err := s.ScaleDown(); err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 1 {
		t.Fatalf("ScaleDown shrank below boot size")
	}
	if c := s.CountersSnapshot(); c.ScaleUps != 2 || c.ScaleDowns != 2 {
		t.Errorf("counters %+v, want 2 scale-ups and 2 scale-downs", c)
	}
	if _, body := get(t, s.URL()+"/metrics"); !strings.Contains(body, "palladium_serve_scaledowns_total 2") ||
		!strings.Contains(body, "palladium_serve_workers_retired 2") {
		t.Errorf("metrics missing scale-down gauges:\n%s", body)
	}
	// The shrunken fleet still serves.
	if resp, body := get(t, s.URL()+"/serve"); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d after scale-down: %s", resp.StatusCode, body)
	}
}

// TestAutoscaleDownToFloor: with ScaleDownDepth set, an idle fleet
// drains back to its boot size on its own.
func TestAutoscaleDownToFloor(t *testing.T) {
	s := startServer(t, Config{
		Workers:        1,
		MaxWorkers:     3,
		ScaleInterval:  time.Millisecond,
		ScaleDownDepth: 1,
	})
	if err := s.ScaleUp(); err != nil {
		t.Fatal(err)
	}
	if err := s.ScaleUp(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	// Workers() drops when a retiring worker stops accepting work; the
	// ScaleDowns counter lands after its drain — wait for both.
	for s.Workers() != 1 || s.ScaleDowns() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("idle fleet stuck at %d workers, %d scale-downs", s.Workers(), s.ScaleDowns())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScaleDownConservation runs real load through a fleet that is
// scaling in both directions and checks the accounting invariant:
// after the drain, every admitted request completed or failed —
// retiring workers dropped nothing.
func TestScaleDownConservation(t *testing.T) {
	s := startServer(t, Config{
		Workers:        1,
		MaxWorkers:     4,
		Queue:          64,
		ScaleInterval:  time.Millisecond,
		ScaleUpDepth:   0.5,
		ScaleDownDepth: 2,
	})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, body := get(t, s.URL()+"/serve?model=static")
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("HTTP %d: %s", resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := s.CountersSnapshot()
	if c.Admitted != c.Completed+c.Failed {
		t.Errorf("admitted %d != completed %d + failed %d: scale churn dropped requests",
			c.Admitted, c.Completed, c.Failed)
	}
	if c.Failed != 0 {
		t.Errorf("%d requests failed", c.Failed)
	}
}

// TestCloneTaxBitIdentical is the per-size anchor for clone-per-request
// serving: for every Table 3 file size and model, a request served on
// a fresh clone of a pristine template burns exactly the same
// simulated cycles as that request on a shared machine with identical
// history — cloning is invisible in simulated metrics, so the clone
// tax is pure wall-clock (the serve-clone workload of bench/ measures
// it).
func TestCloneTaxBitIdentical(t *testing.T) {
	models := []webserver.Model{webserver.Static, webserver.CGI, webserver.FastCGI,
		webserver.LibCGI, webserver.LibCGIProtected}
	for _, size := range experiments.Table3Sizes() {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			tmpl, err := webserver.BootServer(size)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range models {
				// The shared machine's history matches the template's:
				// none. (Per-request cycles are otherwise deterministic
				// but may carry a tiny one-time warm-up, so the anchor
				// compares equal histories.)
				shared, err := webserver.BootServer(size)
				if err != nil {
					t.Fatal(err)
				}
				before := shared.SimCycles()
				if _, err := shared.ServeRequest(m); err != nil {
					t.Fatal(err)
				}
				sharedCycles := shared.SimCycles() - before

				c, err := tmpl.Clone()
				if err != nil {
					t.Fatal(err)
				}
				before = c.SimCycles()
				if _, err := c.ServeRequest(m); err != nil {
					t.Fatal(err)
				}
				cloneCycles := c.SimCycles() - before
				c.S.K.Phys.Release()

				if cloneCycles != sharedCycles {
					t.Errorf("%v: clone burned %.0f cycles, shared machine %.0f", m, cloneCycles, sharedCycles)
				}
			}
		})
	}
}

// TestClonePerRequestServing drives the tier in clone-per-request mode:
// every request runs on a machine in the template's state (a clone,
// reset after each request and reused), the template machine never
// changes, the pool gauges add up, and the simulated latency is
// bit-identical to shared-machine serving. The fleet may serve on more
// workers than machines are forked at boot, and every machine handed
// back is still kept.
func TestClonePerRequestServing(t *testing.T) {
	s := startServer(t, Config{Workers: 2, MaxWorkers: 4, Queue: 64, ClonePerRequest: true, WarmClones: 1})
	tmplFP := s.tmpl.S.K.Phys.Fingerprint()
	tmplFrames := s.tmpl.S.K.Phys.FrameCount()

	const n = 30
	var mu sync.Mutex
	micros := map[string]map[string]bool{} // model -> set of sim latencies
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := []string{"static", "cgi", "libcgi-prot"}[i%3]
			resp, body := get(t, s.URL()+"/serve?model="+model)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("HTTP %d: %s", resp.StatusCode, body)
				return
			}
			mu.Lock()
			if micros[model] == nil {
				micros[model] = map[string]bool{}
			}
			micros[model][resp.Header.Get("X-Sim-Micros")] = true
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	// Every request of a model costs identical simulated time (each ran
	// on a machine in the template's state), and that time matches a
	// fresh shared machine serving the same request.
	for model, set := range micros {
		if len(set) != 1 {
			t.Errorf("model %s: clone-served requests disagreed on sim latency: %v", model, set)
			continue
		}
		m, err := ParseModel(model)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := webserver.BootServer(s.tmpl.FileSize)
		if err != nil {
			t.Fatal(err)
		}
		before := fresh.SimCycles()
		if _, err := fresh.ServeRequest(m); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%.3f", fresh.S.Clock().Micros(fresh.SimCycles()-before))
		if !set[want] {
			t.Errorf("model %s: clone latency %v != shared-machine latency %s", model, set, want)
		}
	}

	// The template is untouched by 30 take/serve/reset cycles.
	if fp := s.tmpl.S.K.Phys.Fingerprint(); fp != tmplFP {
		t.Errorf("template fingerprint changed under clone churn")
	}
	if fc := s.tmpl.S.K.Phys.FrameCount(); fc != tmplFrames {
		t.Errorf("template frames %d, was %d", fc, tmplFrames)
	}

	st, ok := s.CloneStats()
	if !ok {
		t.Fatal("CloneStats not available in clone mode")
	}
	if st.Discards != n {
		t.Errorf("discards = %d, want %d (one per request)", st.Discards, n)
	}
	// The pool keeps one machine per worker the fleet may grow to, so
	// every handed-back machine is reset and reused, and no more are
	// ever forked than workers can hold at once.
	if st.Resets != st.Discards {
		t.Errorf("resets = %d of %d discards: a handed-back machine was released", st.Resets, st.Discards)
	}
	if max := uint64(s.cfg.MaxWorkers); st.Forks > max {
		t.Errorf("forks = %d, want <= %d (max workers)", st.Forks, max)
	}
	if st.TargetDepth != 4 {
		t.Errorf("target depth = %d, want 4 (max workers)", st.TargetDepth)
	}
	_, body := get(t, s.URL()+"/metrics")
	for _, want := range []string{
		"palladium_clone_warm_depth", "palladium_clone_target_depth 4",
		"palladium_clone_forks_total", "palladium_clone_cold_steals_total",
		fmt.Sprintf("palladium_clone_discards_total %d", st.Discards),
		fmt.Sprintf("palladium_clone_resets_total %d", st.Resets),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestClonePerRequestKeepsCompiledCode: in clone-per-request mode the
// machines are reset, not forked, so once every machine has served
// the interpreter builds no more blocks: the daemon's block-build
// total stays flat over 50 warm requests. (A fresh clone per request
// rebuilds its blocks every time.)
func TestClonePerRequestKeepsCompiledCode(t *testing.T) {
	s := startServer(t, Config{Workers: 2, ClonePerRequest: true, WarmClones: 2})
	builds := func() string {
		_, body := get(t, s.URL()+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, "palladium_interp_block_builds_total "); ok {
				return v
			}
		}
		t.Fatal("metrics lack palladium_interp_block_builds_total")
		return ""
	}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			if resp, body := get(t, s.URL()+"/serve?model=libcgi-prot"); resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
			}
		}
	}
	serve(10)
	warm := builds()
	if warm == "0" {
		t.Fatal("no blocks built: the counters are not published")
	}
	serve(50)
	if got := builds(); got != warm {
		t.Errorf("block builds went from %s to %s over 50 warm requests", warm, got)
	}
}

// TestRestoreColdStart: a serving tier booted from a SaveBytes image
// (-restore) starts from the saved machine bit-for-bit — including in
// clone-per-request mode, where every request runs in the restored
// state.
func TestRestoreColdStart(t *testing.T) {
	src, err := webserver.BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := src.ServeRequest(webserver.LibCGIProtected); err != nil {
			t.Fatal(err)
		}
	}
	img := src.SaveBytes()

	s := startServer(t, Config{Workers: 1, RestoreImage: img, ClonePerRequest: true})
	if s.tmpl.FileSize != 1024 {
		t.Errorf("FileSize %d not taken from the image", s.tmpl.FileSize)
	}
	if s.tmpl.S.K.Phys.Fingerprint() != src.S.K.Phys.Fingerprint() {
		t.Fatalf("restored template differs from saved machine")
	}
	resp, body := get(t, s.URL()+"/serve?model=libcgi-prot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	// A clone of the restored template serves the request for exactly
	// the cycles the saved machine would have spent on it.
	before := src.SimCycles()
	if _, err := src.ServeRequest(webserver.LibCGIProtected); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%.3f", src.S.Clock().Micros(src.SimCycles()-before))
	if got := resp.Header.Get("X-Sim-Micros"); got != want {
		t.Errorf("restored-clone latency %s, saved machine %s", got, want)
	}

	// Corrupt images refuse to boot a tier at all.
	if _, err := New(Config{RestoreImage: img[:len(img)/2]}); err == nil {
		t.Errorf("New accepted a truncated restore image")
	}
}
