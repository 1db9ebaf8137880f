package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServeHTTP drives the daemon's request mux through httptest
// on one worker, one request at a time: the serving tier's own cost per
// request, with no network. shared serves on a long-lived machine,
// clone on a clone of the template that is reset after every request.
func BenchmarkServeHTTP(b *testing.B) {
	for _, mode := range []struct {
		name  string
		clone bool
	}{{"shared", false}, {"clone", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := New(Config{Workers: 1, ClonePerRequest: mode.clone})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close(context.Background())
			req := httptest.NewRequest(http.MethodGet, "/serve?model=libcgi-prot", nil)
			serve := func() {
				rec := httptest.NewRecorder()
				s.mux.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
				}
			}
			// Warm the machines past their cold first requests and the
			// trace tier's hotness threshold.
			for i := 0; i < 200; i++ {
				serve()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// BenchmarkServeConn sends the benchmark's raw GET /serve request over
// one loopback keep-alive connection, one request at a time, through
// the daemon's whole connection loop: read, dispatch, serve and write.
// Allocations count both ends; the client allocates nothing.
func BenchmarkServeConn(b *testing.B) {
	for _, mode := range []struct {
		name  string
		clone bool
	}{{"shared", false}, {"clone", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := New(Config{Workers: 1, ClonePerRequest: mode.clone})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close(context.Background())
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			nc, err := net.Dial("tcp", s.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			req := []byte("GET /serve HTTP/1.1\r\nHost: bench\r\n\r\n")
			serve := func() {
				if _, err := nc.Write(req); err != nil {
					b.Fatal(err)
				}
				if err := discardResponse(br); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				serve()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// discardResponse reads one 200 response with a Content-Length from br,
// allocating nothing.
func discardResponse(br *bufio.Reader) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		return fmt.Errorf("status line %q", line)
	}
	clen := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			clen = 0
			for _, d := range bytes.TrimSpace(v) {
				clen = clen*10 + int(d-'0')
			}
		}
	}
	if clen < 0 {
		return errors.New("response without Content-Length")
	}
	_, err = br.Discard(clen)
	return err
}
