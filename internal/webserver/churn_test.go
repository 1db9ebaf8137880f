package webserver

import (
	"sync"
	"testing"
)

// TestCloneChurnLeavesTemplateIntact is the frame-accounting hammer
// behind clone-per-request serving: 500 fork/serve/discard cycles
// against one quiescent template, forks, serving and discarding all
// concurrent. The template must come out bit-identical, at its
// original frame count, and with every frame sole-owned again — no
// frame leaked to a dead clone, none left falsely shared.
func TestCloneChurnLeavesTemplateIntact(t *testing.T) {
	tmpl, err := BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	fp := tmpl.S.K.Phys.Fingerprint()
	frames := tmpl.S.K.Phys.FrameCount()
	models := []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected}

	const (
		goroutines = 4
		perG       = 125 // 500 churn cycles total
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c, err := tmpl.Clone()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.ServeRequest(models[(g+i)%len(models)]); err != nil {
					t.Error(err)
				}
				c.S.K.Phys.Release()
			}
		}(g)
	}
	wg.Wait()

	if got := tmpl.S.K.Phys.Fingerprint(); got != fp {
		t.Errorf("template fingerprint changed under churn")
	}
	if got := tmpl.S.K.Phys.FrameCount(); got != frames {
		t.Errorf("template frames %d, was %d", got, frames)
	}
	if sole := tmpl.S.K.Phys.SoleOwnerFrames(); sole != frames {
		t.Errorf("%d of %d template frames still falsely shared after churn", frames-sole, frames)
	}
	// The template still serves, identically to a never-churned
	// machine.
	fresh, err := BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		s1, err1 := tmpl.ServeRequest(m)
		s2, err2 := fresh.ServeRequest(m)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v / %v", m, err1, err2)
		}
		if s1 != s2 {
			t.Fatalf("%v: churned template status %d, fresh %d", m, s1, s2)
		}
	}
	if tmpl.S.K.Phys.Fingerprint() != fresh.S.K.Phys.Fingerprint() {
		t.Errorf("churned template diverged from fresh machine after identical requests")
	}
	// Post-churn writes on the template must not COW-copy: nothing
	// shares its frames any more. (Last: Write8 materializes the frame
	// if absent, which would skew the comparisons above.)
	_, copies, _ := tmpl.S.K.Phys.COWStats()
	tmpl.S.K.Phys.Write8(0, tmpl.S.K.Phys.Read8(0))
	if _, c2, _ := tmpl.S.K.Phys.COWStats(); c2 != copies {
		t.Errorf("template write COW-copied after all clones released")
	}
}

// TestSharedServerServesManyCGIRequests serves more classic-CGI
// requests on one long-lived server than a kernel has kernel-stack
// slots (8064): each request forks and execs a process that exits, so
// every request after the first must run on a recycled slot. The
// replaced and the exited page directories go back to the allocator
// too, so the free frame count after the last request is the one after
// the first.
func TestSharedServerServesManyCGIRequests(t *testing.T) {
	srv, err := BootServer(28)
	if err != nil {
		t.Fatal(err)
	}
	var free int
	for i := 0; i < 10_000; i++ {
		if status, err := srv.ServeRequest(CGI); err != nil || status != 200 {
			t.Fatalf("request %d: status %d, %v", i, status, err)
		}
		if i == 0 {
			free = srv.S.K.Alloc.Available()
		}
	}
	if got := srv.S.K.Alloc.Available(); got != free {
		t.Errorf("%d free frames after 10,000 CGI requests, %d after the first", got, free)
	}
}
