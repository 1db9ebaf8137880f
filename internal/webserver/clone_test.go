package webserver

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/kernel"
)

var cloneModels = []Model{CGI, FastCGI, LibCGIProtected, LibCGI, Static}

// TestServerCloneServesBitIdentical: a cloned server is
// indistinguishable, in every simulated metric, from a freshly booted
// one — boot cycles, per-model sustained rates and the full memory
// image after serving.
func TestServerCloneServesBitIdentical(t *testing.T) {
	tmpl, err := BootServer(28)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BootServer(28)
	if err != nil {
		t.Fatal(err)
	}
	if c, f := clone.SimCycles(), fresh.SimCycles(); c != f {
		t.Fatalf("boot cycles: clone %v, fresh %v", c, f)
	}
	for _, m := range cloneModels {
		rc, err := clone.Throughput(m, 40)
		if err != nil {
			t.Fatalf("clone %v: %v", m, err)
		}
		rf, err := fresh.Throughput(m, 40)
		if err != nil {
			t.Fatalf("fresh %v: %v", m, err)
		}
		if rc != rf {
			t.Errorf("%v: clone rate %v != fresh rate %v", m, rc, rf)
		}
	}
	if clone.S.K.Phys.Fingerprint() != fresh.S.K.Phys.Fingerprint() {
		t.Error("memory fingerprints differ after identical serving")
	}
	ch, cm, cf := clone.S.K.MMU.TLB().Stats()
	fh, fm, ff := fresh.S.K.MMU.TLB().Stats()
	if ch != fh || cm != fm || cf != ff {
		t.Errorf("TLB stats differ: clone %d/%d/%d, fresh %d/%d/%d", ch, cm, cf, fh, fm, ff)
	}
}

// TestCloneOfExitedProcessServes: a process that has exited while it
// is the kernel's current process is in no process table. A clone must
// still bind it, as the application's process or as the CGI helper,
// and serve exactly as the template does: the same status and the same
// simulated latency (what the daemon reports as X-Sim-Micros).
func TestCloneOfExitedProcessServes(t *testing.T) {
	serve := func(srv *Server, m Model) (int, string) {
		t.Helper()
		before := srv.SimCycles()
		status, err := srv.ServeRequest(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return status, strconv.FormatFloat(srv.S.Clock().Micros(srv.SimCycles()-before), 'f', 3, 64)
	}
	for _, tc := range []struct {
		name  string
		model Model
		proc  func(*Server) *kernel.Process
	}{
		{"application", LibCGIProtected, func(srv *Server) *kernel.Process { return srv.app.P }},
		{"cgi-helper", CGI, func(srv *Server) *kernel.Process { return srv.cgiProc }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmpl, err := BootServer(1024)
			if err != nil {
				t.Fatal(err)
			}
			k, p := tmpl.S.K, tc.proc(tmpl)
			k.Switch(p)
			k.Exit(p, 0)
			clone, err := tmpl.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if cp := tc.proc(clone); cp == nil || cp.PID != p.PID || !cp.Exited || cp != clone.S.K.Current() {
				t.Fatalf("clone bound %+v, want its exited current process %d", cp, p.PID)
			}
			for i := range 3 {
				ts, tus := serve(tmpl, tc.model)
				cs, cus := serve(clone, tc.model)
				if ts != cs || tus != cus {
					t.Errorf("request %d: clone served %d in %s us, template %d in %s us", i, cs, cus, ts, tus)
				}
			}
		})
	}
}

// TestServerSnapshotRestoreServingDeterministic: freezing a clone of
// the system mid-service and resetting onto it replays the remaining
// requests bit-identically — the whole-machine determinism check at the
// top of the stack.
func TestServerSnapshotRestoreServingDeterministic(t *testing.T) {
	srv, err := BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cloneModels { // mid-life state, warm TLB and caches
		if _, err := srv.Throughput(m, 10); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := srv.S.Clone()
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.K.Phys.Release()

	type obs struct {
		rates   [5]float64
		cycles  float64
		instret uint64
		memFP   uint64
	}
	serve := func() obs {
		var o obs
		for i, m := range cloneModels {
			r, err := srv.Throughput(m, 15)
			if err != nil {
				t.Fatal(err)
			}
			o.rates[i] = r
		}
		o.cycles = srv.S.K.Clock.Cycles()
		o.instret = srv.S.K.Machine.Instructions()
		o.memFP = srv.S.K.Phys.Fingerprint()
		return o
	}
	run1 := serve()
	srv.S.ResetTo(frozen)
	run2 := serve()
	if run1 != run2 {
		t.Errorf("post-reset serving diverged:\n run1 %+v\n run2 %+v", run1, run2)
	}
}

// TestCloneHammerConcurrentServing drives a template and many clones
// from concurrent goroutines; under -race this is the end-to-end check
// that COW frame sharing between live serving machines is sound.
func TestCloneHammerConcurrentServing(t *testing.T) {
	tmpl, err := BootServer(28)
	if err != nil {
		t.Fatal(err)
	}
	const clones = 6
	servers := make([]*Server, clones)
	for i := range servers {
		if servers[i], err = tmpl.Clone(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	rates := make([]float64, clones)
	errs := make([]error, clones)
	for i, s := range servers {
		wg.Add(1)
		go func(i int, s *Server) {
			defer wg.Done()
			for _, m := range cloneModels {
				r, err := s.Throughput(m, 20)
				if err != nil {
					errs[i] = err
					return
				}
				if m == LibCGIProtected {
					rates[i] = r
				}
			}
		}(i, s)
	}
	// The template serves concurrently with every clone.
	var tmplRate float64
	for _, m := range cloneModels {
		r, err := tmpl.Throughput(m, 20)
		if err != nil {
			t.Fatal(err)
		}
		if m == LibCGIProtected {
			tmplRate = r
		}
	}
	wg.Wait()
	for i := range servers {
		if errs[i] != nil {
			t.Fatalf("clone %d: %v", i, errs[i])
		}
		if rates[i] != tmplRate {
			t.Errorf("clone %d protected rate %v != template %v", i, rates[i], tmplRate)
		}
	}
}
