package webserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/mem"
)

// TestServerImageGolden pins the byte image of a server that has served
// one request under every model. The layout is wire version 3; a change
// to any layer's encoding must either reproduce these bytes or bump the
// version and re-record them.
func TestServerImageGolden(t *testing.T) {
	const (
		wantLen    = 88467
		wantSHA256 = "2a31bbb0aa9516990d138125422e98a1325317cbf6306387f96a011ab9ee0463"
	)
	srv, err := BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected} {
		if _, err := srv.ServeRequest(m); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
	img := srv.SaveBytes()
	sum := sha256.Sum256(img)
	if len(img) != wantLen || hex.EncodeToString(sum[:]) != wantSHA256 {
		t.Fatalf("image is %d bytes sha256 %x, want %d bytes sha256 %s", len(img), sum, wantLen, wantSHA256)
	}
}

// machineState gathers every simulated metric the round-trip must
// reproduce exactly.
type machineState struct {
	fingerprint             uint64
	frames                  int
	clock                   float64
	instret                 uint64
	tlbHits, tlbMiss, tlbFl uint64
	copies                  uint64
	console                 string
	curPID                  int
}

func stateOf(srv *Server) machineState {
	k := srv.S.K
	h, m, f := k.MMU.TLB().Stats()
	_, copies, _ := k.Phys.COWStats()
	return machineState{
		fingerprint: k.Phys.Fingerprint(),
		frames:      k.Phys.FrameCount(),
		clock:       k.Clock.Cycles(),
		instret:     k.Machine.Instructions(),
		tlbHits:     h, tlbMiss: m, tlbFl: f,
		copies:  copies,
		console: string(k.ConsoleOut),
		curPID:  k.Current().PID,
	}
}

// TestServerSaveLoadRoundTrip drives a server through real requests
// under every model, saves it, restores it into a twin, and requires
// the twin to be bit-identical in every simulated metric — then to
// serve the SAME future: each subsequent request must land both
// machines on identical clocks and fingerprints.
func TestServerSaveLoadRoundTrip(t *testing.T) {
	srv, err := BootServer(10 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected} {
		for i := 0; i < 3; i++ {
			if _, err := srv.ServeRequest(m); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
		}
	}

	img := srv.SaveBytes()
	want := stateOf(srv)

	restored, err := LoadServerBytes(img)
	if err != nil {
		t.Fatalf("LoadServerBytes: %v", err)
	}
	if got := stateOf(restored); got != want {
		t.Fatalf("restored state differs:\n got %+v\nwant %+v", got, want)
	}
	// Serialization is deterministic: a re-save is byte-identical.
	if !bytes.Equal(restored.SaveBytes(), img) {
		t.Errorf("re-serialized image differs from original")
	}

	// The restored machine serves the same future as the original.
	for _, m := range []Model{LibCGIProtected, CGI, LibCGI, FastCGI} {
		s1, err1 := srv.ServeRequest(m)
		s2, err2 := restored.ServeRequest(m)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v / %v", m, err1, err2)
		}
		if s1 != s2 {
			t.Fatalf("%v: status %d vs %d", m, s1, s2)
		}
		a, b := stateOf(srv), stateOf(restored)
		if a != b {
			t.Fatalf("%v: post-request state diverged:\n orig %+v\n rest %+v", m, a, b)
		}
	}
}

// TestServerLoadBytesCorruption feeds damaged images to the restore
// path: every corruption must produce a typed error and no server.
func TestServerLoadBytesCorruption(t *testing.T) {
	srv, err := BootServer(28)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ServeRequest(LibCGIProtected); err != nil {
		t.Fatal(err)
	}
	img := srv.SaveBytes()

	check := func(t *testing.T, data []byte) {
		t.Helper()
		s, err := LoadServerBytes(data)
		if err == nil {
			t.Fatalf("LoadServerBytes accepted bad image")
		}
		if s != nil {
			t.Fatalf("LoadServerBytes returned a server alongside error %v", err)
		}
	}

	t.Run("empty", func(t *testing.T) { check(t, nil) })
	t.Run("version-2", func(t *testing.T) {
		p, err := mem.Open(srvMagic, srvVersion, img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadServerBytes(mem.Seal(srvMagic, 2, p)); !errors.Is(err, mem.ErrBadVersion) {
			t.Fatalf("version 2 image: %v, want ErrBadVersion", err)
		}
	})
	t.Run("wrong-magic", func(t *testing.T) {
		p, err := mem.Open(srvMagic, srvVersion, img)
		if err != nil {
			t.Fatal(err)
		}
		check(t, mem.Seal("PALLPHYS", srvVersion, p))
	})
	for _, cut := range []int{10, len(img) / 3, len(img) - 1} {
		t.Run("truncated", func(t *testing.T) { check(t, img[:cut]) })
	}
	t.Run("bit-flips", func(t *testing.T) {
		for _, off := range []int{20, len(img) / 2, len(img) - 2} {
			bad := bytes.Clone(img)
			bad[off] ^= 0x40
			check(t, bad)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		// Reseal a shortened payload: the CRC passes, the decoder must
		// still reject it.
		p, err := mem.Open(srvMagic, srvVersion, img)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{4, len(p) / 2, len(p) - 3} {
			check(t, mem.Seal(srvMagic, srvVersion, p[:cut]))
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		p, err := mem.Open(srvMagic, srvVersion, img)
		if err != nil {
			t.Fatal(err)
		}
		check(t, mem.Seal(srvMagic, srvVersion, append(bytes.Clone(p), 0)))
	})
}

// TestRestoredCloneIdentity: the restore path composes with cloning —
// a clone of a restored server is bit-identical to a clone of the
// original, which is what lets a fleet restore ONE template from disk
// and fork ephemeral clones from it. The template has served CGI
// requests, so the image carries recycled kernel-stack slots, and the
// clones serve CGI requests on them.
func TestRestoredCloneIdentity(t *testing.T) {
	srv, err := BootServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{LibCGIProtected, CGI, CGI, CGI} {
		if _, err := srv.ServeRequest(m); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := LoadServerBytes(srv.SaveBytes())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := stateOf(srv), stateOf(restored); a != b {
		t.Fatalf("restored server differs from the original:\n %+v\n %+v", a, b)
	}
	c1, err := srv.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := restored.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		m := []Model{LibCGIProtected, CGI}[i%2]
		if _, err := c1.ServeRequest(m); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.ServeRequest(m); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := stateOf(c1), stateOf(c2); a != b {
		t.Fatalf("clone-of-restored diverged from clone-of-original:\n %+v\n %+v", a, b)
	}
}
