// Snapshot-to-bytes serialization of a whole web server: the envelope
// the -restore cold-start path and the clone bench persist to disk.
// SaveBytes captures the server's state value, the system (kernel,
// machine, frame store) and the application; LoadServerBytes boots a
// fresh twin — the same deterministic boot the saved server went
// through — and overlays the image onto it. A restored server is bit-identical in
// every simulated metric (memory fingerprint, clock, instret, TLB and
// COW counters) to the server that was saved; on any decode or
// validation error the half-restored twin is discarded and an error
// returned, so callers never observe a partial machine.
package webserver

import (
	"fmt"

	"repro/internal/mem"
)

const (
	srvMagic   = "PALLWSRV"
	srvVersion = 3
)

// SaveBytes serializes into a standalone enveloped image the server's
// state value (FileSize first, so a restore knows which twin to boot),
// the CGI helper's PID and the protected script's stub addresses (both
// validated against the twin), the system and the application. Save
// while no request is in flight.
func (srv *Server) SaveBytes() []byte {
	var e mem.Enc
	s := &srv.serverState
	e.U32(s.FileSize)
	e.F64(s.NetBandwidthMbps)
	e.F64(s.Costs.BaseRequest)
	e.F64(s.Costs.PerByte)
	e.F64(s.Costs.CGIEnv)
	e.F64(s.Costs.CGIProcessExtra)
	e.F64(s.Costs.FastCGIRoundTrip)
	e.I32(int32(s.Costs.EnvBytes))
	e.U32(s.scriptRaw)
	e.U32(s.shared)
	e.I32(int32(srv.cgiProc.PID))
	e.U32(srv.script.PrepareAddr)
	e.U32(srv.script.TransferAddr)
	e.U32(srv.script.FnAddr)
	srv.S.SaveTo(&e)
	srv.app.SaveTo(&e)
	return mem.Seal(srvMagic, srvVersion, e.Data())
}

// LoadServerBytes reconstructs a server from a SaveBytes image: it
// boots a twin for the image's file size and overlays the saved
// machine onto it. The wall-clock cost is one boot plus the decode;
// the simulated state is the saved server's, exactly.
func LoadServerBytes(data []byte) (*Server, error) {
	payload, err := mem.Open(srvMagic, srvVersion, data)
	if err != nil {
		return nil, err
	}
	d := mem.NewDec(payload)
	var s serverState
	s.FileSize = d.U32()
	s.NetBandwidthMbps = d.NonNegF64("network bandwidth")
	s.Costs.BaseRequest = d.NonNegF64("base request cost")
	s.Costs.PerByte = d.NonNegF64("per-byte cost")
	s.Costs.CGIEnv = d.NonNegF64("CGI environment cost")
	s.Costs.CGIProcessExtra = d.NonNegF64("CGI process cost")
	s.Costs.FastCGIRoundTrip = d.NonNegF64("FastCGI round-trip cost")
	s.Costs.EnvBytes = int(d.I32())
	if d.Err() == nil && (s.Costs.EnvBytes < 0 || s.Costs.EnvBytes > sharedBytes) {
		d.Failf("CGI environment of %d bytes does not fit the %d-byte shared area", s.Costs.EnvBytes, sharedBytes)
	}
	s.scriptRaw = d.U32()
	s.shared = d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	srv, err := BootServer(s.FileSize)
	if err != nil {
		return nil, fmt.Errorf("webserver: booting restore twin: %w", err)
	}

	// Overlay the rest onto the twin. On error the twin is unusable and
	// is discarded, never handed out.
	cgiPID := int(d.I32())
	prep := d.U32()
	xfer := d.U32()
	fn := d.U32()
	if d.Err() == nil && (s.scriptRaw != srv.scriptRaw || s.shared != srv.shared || cgiPID != srv.cgiProc.PID) {
		d.Failf("server layout (script %#x shared %#x cgi pid %d) differs from booted twin's (%#x %#x %d)",
			s.scriptRaw, s.shared, cgiPID, srv.scriptRaw, srv.shared, srv.cgiProc.PID)
	}
	if d.Err() == nil && (prep != srv.script.PrepareAddr || xfer != srv.script.TransferAddr || fn != srv.script.FnAddr) {
		d.Failf("protected-script stub addresses differ from booted twin's")
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := srv.S.LoadFrom(d); err != nil {
		return nil, err
	}
	if err := srv.app.LoadFrom(d); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after server image", mem.ErrCorrupt, d.Remaining())
	}
	// The kernel restored processes in place, so the twin's process
	// handle and the sandbox adapters over its app stay valid.
	srv.serverState = s
	return srv, nil
}
