package webserver

// Bit-identity anchor for the sandbox API redesign: ServeRequest's
// registry dispatch and sandbox-extension invocations must reproduce
// the pre-redesign switch (raw CallUnprotected / ProtectedFunc.Call)
// exactly, at full float precision, across every model and the
// request sequencing TLB warmth depends on.

import (
	"fmt"
	"testing"
)

// leWord allocates a fresh little-endian word, as the pre-redesign
// serving path did; the serving path now uses putLEWord into
// per-server scratch.
func leWord(v uint32) []byte {
	b := make([]byte, 4)
	putLEWord(b, v)
	return b
}

// legacyServeRequest replicates the pre-redesign ServeRequest switch
// against the same server state.
func legacyServeRequest(srv *Server, m Model) (int, error) {
	k := srv.S.K
	c := srv.Costs
	k.Clock.Add(c.BaseRequest + c.PerByte*float64(srv.FileSize))
	switch m {
	case Static:
		return 200, nil

	case CGI:
		child, err := k.Fork(srv.cgiProc)
		if err != nil {
			return 0, err
		}
		if err := k.Exec(child); err != nil {
			return 0, err
		}
		k.Clock.Add(c.CGIEnv + c.CGIProcessExtra)
		k.Exit(child, 0)
		return 200, nil

	case FastCGI:
		k.Clock.Add(c.CGIEnv + c.FastCGIRoundTrip)
		return 200, nil

	case LibCGI:
		k.Clock.Add(c.CGIEnv)
		if err := srv.app.WriteMem(srv.shared, leWord(srv.FileSize)); err != nil {
			return 0, err
		}
		status, err := srv.app.CallUnprotected(srv.scriptRaw, srv.shared)
		if err != nil {
			return 0, err
		}
		return int(status), nil

	case LibCGIProtected:
		k.Clock.Add(c.CGIEnv)
		env := make([]byte, c.EnvBytes)
		copy(env, leWord(srv.FileSize))
		if err := srv.app.WriteMem(srv.shared, env); err != nil {
			return 0, err
		}
		if err := k.SetRange(srv.app.P, srv.shared, 1, true); err != nil {
			return 0, err
		}
		status, err := srv.script.Call(srv.shared)
		if err != nil {
			return 0, err
		}
		if err := srv.app.ReadMemInto(srv.shared+4, make([]byte, 8)); err != nil {
			return 0, err
		}
		if err := k.SetRange(srv.app.P, srv.shared, 1, false); err != nil {
			return 0, err
		}
		return int(status), nil
	}
	return 0, fmt.Errorf("webserver: unknown model %v", m)
}

func TestServeRequestBitIdenticalThroughSandbox(t *testing.T) {
	// Two machines with identical histories: one served through the
	// new registry+sandbox path, one through the pre-redesign switch.
	// Model order matches the Table 3 harness so TLB warmth carries
	// over identically.
	order := []Model{CGI, FastCGI, LibCGIProtected, LibCGI, Static}
	for _, size := range []uint32{28, 10 * 1024} {
		srvNew, err := BootServer(size)
		if err != nil {
			t.Fatal(err)
		}
		srvLegacy, err := BootServer(size)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range order {
			const requests = 25
			startNew := srvNew.S.K.Clock.Cycles()
			startLegacy := srvLegacy.S.K.Clock.Cycles()
			for i := 0; i < requests; i++ {
				sNew, err := srvNew.ServeRequest(m)
				if err != nil {
					t.Fatal(err)
				}
				sLegacy, err := legacyServeRequest(srvLegacy, m)
				if err != nil {
					t.Fatal(err)
				}
				if sNew != sLegacy {
					t.Fatalf("%v size %d: status %d != legacy %d", m, size, sNew, sLegacy)
				}
			}
			rateNew := srvNew.SustainedRate(srvNew.S.K.Clock.Cycles()-startNew, requests)
			rateLegacy := srvLegacy.SustainedRate(srvLegacy.S.K.Clock.Cycles()-startLegacy, requests)
			if rateNew != rateLegacy {
				t.Errorf("%v size %d: sandbox rate %v != pre-redesign rate %v (want bit-identical)",
					m, size, rateNew, rateLegacy)
			}
		}
	}
}
