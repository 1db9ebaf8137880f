package webserver

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// loadServerSeeds are payload corruptions of a BootServer(28) image
// that LoadServerBytes used to accept: the register byte of the 82nd
// code entry's destination operand (register 132 of 8: the first
// protected request panicked), a negative Costs.PerByte (a negative
// clock charge panicked) and an EnvBytes near 2^31 (every request
// allocated ~1.8 GB).
var loadServerSeeds = []struct {
	off uint32
	xor byte
}{
	{3451, 0x80},
	{27, 0x92},
	{55, 0x70},
}

// FuzzLoadServerBytes flips bits in one byte of a server image's
// payload and re-seals it, so the corruption gets past the envelope's
// checksum and reaches the decoders. A load must either fail with an
// error or yield a server that serves one request under each model,
// each request succeeding or failing with an error; nothing may
// panic.
func FuzzLoadServerBytes(f *testing.F) {
	srv, err := BootServer(28)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := mem.Open(srvMagic, srvVersion, srv.SaveBytes())
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range loadServerSeeds {
		f.Add(s.off, s.xor)
	}
	f.Fuzz(func(t *testing.T, off uint32, xor byte) {
		p := bytes.Clone(payload)
		p[off%uint32(len(p))] ^= xor
		srv, err := LoadServerBytes(mem.Seal(srvMagic, srvVersion, p))
		if err != nil {
			return
		}
		for _, m := range []Model{Static, CGI, FastCGI, LibCGI, LibCGIProtected} {
			_, _ = srv.ServeRequest(m) // an error or a fault is an allowed outcome
		}
	})
}
