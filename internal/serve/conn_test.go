package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// answer is the part of a response the conformance test compares.
// Simulated and wall-clock times vary from request to request, so they
// are cut out of the body and out of Content-Length.
type answer struct {
	proto, contentType string
	status             int
	contentLength      int // -1 when absent
	body               string
}

// exchange writes raw to a new connection to addr, reads one response
// per entry of methods (the method of the request it answers), and
// reports whether the connection was closed after them: an open one
// answers a further request.
func exchange(t *testing.T, addr, raw string, methods []string) ([]answer, bool) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	// A server may answer and close before it has read all of raw.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		nc.Write([]byte(raw))
	}()
	br := bufio.NewReader(nc)
	var got []answer
	for i, m := range methods {
		resp, err := http.ReadResponse(br, &http.Request{Method: m})
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("response %d body: %v", i, err)
		}
		a := answer{proto: resp.Proto, status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"),
			contentLength: -1, body: string(body)}
		if v := resp.Header.Get("Content-Length"); v != "" {
			if a.contentLength, err = strconv.Atoi(v); err != nil {
				t.Fatalf("response %d: Content-Length %q", i, v)
			}
		}
		for _, f := range []struct{ header, key string }{{"X-Sim-Micros", "sim_us="}, {"X-Wall-Micros", "wall_us="}} {
			if v := resp.Header.Get(f.header); v != "" {
				a.body = strings.Replace(a.body, f.key+v, f.key, 1)
				a.contentLength -= len(v)
			}
		}
		got = append(got, a)
	}
	<-wrote
	_, err = io.WriteString(nc, "GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n")
	if err == nil {
		_, err = http.ReadResponse(br, nil)
	}
	return got, err != nil
}

// TestConnConformsToNetHTTP sends the same raw requests to net/http
// serving the daemon's mux and to the daemon's own connection loop, and
// requires the same answers: status, body, Content-Length, Content-Type
// and whether the connection is closed after them.
func TestConnConformsToNetHTTP(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	ref := httptest.NewServer(s.mux)
	defer ref.Close()
	get := func(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n" }
	for _, tc := range []struct {
		name    string
		raw     string
		methods []string
		// bodyPolicy marks a request with a body. net/http reads and
		// discards a small unread body and keeps the connection; the
		// loop never reads a body, so it must close instead.
		bodyPolicy bool
	}{
		{name: "serve", raw: get("/serve"), methods: []string{"GET"}},
		{name: "healthz", raw: get("/healthz"), methods: []string{"GET"}},
		{name: "nosuch", raw: get("/nosuch"), methods: []string{"GET"}},
		{name: "head", raw: "HEAD /serve HTTP/1.1\r\nHost: x\r\n\r\n", methods: []string{"HEAD"}},
		{name: "pipelined", raw: get("/healthz") + get("/serve"), methods: []string{"GET", "GET"}},
		{name: "http10", raw: "GET /serve HTTP/1.0\r\n\r\n", methods: []string{"GET"}},
		{name: "connection-close", raw: "GET /serve HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", methods: []string{"GET"}},
		{name: "garbage", raw: "garbage\r\n\r\n", methods: []string{"GET"}},
		{name: "no-host", raw: "GET /serve HTTP/1.1\r\n\r\n", methods: []string{"GET"}},
		{name: "http2", raw: "GET /serve HTTP/2.0\r\nHost: x\r\n\r\n", methods: []string{"GET"}},
		{name: "huge-header", raw: "GET /serve HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 2<<20) + "\r\n\r\n", methods: []string{"GET"}},
		{name: "content-length-body", raw: "POST /serve HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", methods: []string{"POST"}, bodyPolicy: true},
		{name: "chunked-body", raw: "POST /serve HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", methods: []string{"POST"}, bodyPolicy: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantClosed := exchange(t, ref.Listener.Addr().String(), tc.raw, tc.methods)
			got, gotClosed := exchange(t, s.Addr(), tc.raw, tc.methods)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("response %d:\n got  %+v\n want %+v", i, got[i], want[i])
				}
			}
			if tc.bodyPolicy {
				if wantClosed || !gotClosed {
					t.Errorf("closed: net/http %v, loop %v; want false, true", wantClosed, gotClosed)
				}
			} else if gotClosed != wantClosed {
				t.Errorf("connection closed %v, net/http %v", gotClosed, wantClosed)
			}
		})
	}
}

// TestHandlerPanicFailsOnlyItsConnection: a panic in a handler outside
// the fleet (/metrics, /healthz, pprof) gives that request a 500 with
// fault class unknown and closes its connection; the daemon serves on.
func TestHandlerPanicFailsOnlyItsConnection(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	s.mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	// roundTrip serves one request over a pipe through serveConn and
	// reports the response, its body and whether serveConn then closed
	// the connection without waiting for another request.
	roundTrip := func(path string) (*http.Response, string, bool) {
		t.Helper()
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.serveConn(srv)
		}()
		defer func() {
			cli.Close()
			<-done
		}()
		cli.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := fmt.Fprintf(cli, "GET %s HTTP/1.1\r\nHost: x\r\n\r\n", path); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(cli)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		closed := false
		if resp.Close {
			_, err := br.ReadByte()
			closed = errors.Is(err, io.EOF)
		}
		return resp, string(body), closed
	}

	resp, body, closed := roundTrip("/panic")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: HTTP %d %q, want 500", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fault-Class"); got != "unknown" {
		t.Errorf("fault class %q, want unknown", got)
	}
	if !strings.Contains(body, "panicked: boom") {
		t.Errorf("body %q does not carry the panic", body)
	}
	if !closed {
		t.Error("connection of the panicking request left open")
	}
	for _, path := range []string{"/healthz", "/serve"} {
		if resp, body, closed := roundTrip(path); resp.StatusCode != http.StatusOK || closed {
			t.Errorf("%s after the panic: HTTP %d %q, closed %v; want 200 on an open connection", path, resp.StatusCode, body, closed)
		}
	}
	if c := s.CountersSnapshot(); c.Admitted != 1 || c.Completed != 1 {
		t.Errorf("counters %+v, want the one /serve request admitted and completed", c)
	}
}

// TestIdleConnectionClosed: a keep-alive connection left idle is closed
// once the idle timeout passes, and the daemon serves a fresh one.
func TestIdleConnectionClosed(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const idle = 50 * time.Millisecond
	s.timeouts.idle = idle
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The idle timeout starts after the response is written, so no
	// earlier than the request is sent.
	sent := time.Now()
	if _, err := io.WriteString(nc, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := br.Read(make([]byte, 512))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("idle connection still open 5 s after its response")
	}
	if err == nil {
		t.Fatalf("read %d bytes from an idle connection, want close", n)
	}
	if waited := time.Since(sent); waited < idle {
		t.Errorf("idle connection closed %v after its request, before the %v idle timeout", waited, idle)
	}
	if resp, body := get(t, s.URL()+"/serve"); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d after the idle close: %s", resp.StatusCode, body)
	}
}

// heldRequest sends GET /serve while worker 0's machine is held, and
// returns once the request is admitted and waiting for the machine.
// The response, or the error, arrives on the returned channel.
func heldRequest(t *testing.T, s *Server, release <-chan struct{}) <-chan error {
	t.Helper()
	holdWorker(t, s, 0, release)
	result := make(chan error, 1)
	go func() {
		resp, err := http.Get(s.URL() + "/serve")
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && (resp.StatusCode != http.StatusOK || !resp.Close) {
				err = fmt.Errorf("HTTP %d, close %v; want 200 with Connection: close", resp.StatusCode, resp.Close)
			}
		}
		result <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); s.Pool().Inflight() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the HTTP request was never admitted")
		}
	}
	return result
}

// TestCloseFinishesHeldRequest: Close shuts an idle keep-alive
// connection at once, but lets a request in flight finish and write its
// response before it returns.
func TestCloseFinishesHeldRequest(t *testing.T) {
	s := startServer(t, Config{Workers: 1, Queue: 2})
	idle, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)

	release := make(chan struct{})
	result := heldRequest(t, s, release)
	closed := make(chan error, 1)
	go func() { closed <- s.Close(context.Background()) }()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Errorf("idle connection during Close: read error %v, want EOF", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a request in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-result; err != nil {
		t.Errorf("request held across Close: %v", err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting 5 s after the held request finished")
	}
	if c := s.CountersSnapshot(); c.Admitted != 1 || c.Completed != 1 {
		t.Errorf("counters %+v, want the held request admitted and completed", c)
	}
	if _, err := net.Dial("tcp", s.Addr()); err == nil {
		t.Error("daemon still accepting after Close")
	}
}

// TestCloseForceClosesAtDeadline: when Close's context ends before a
// request finishes, Close closes its connection, still lets the
// admitted request run to completion, and returns the context's error.
func TestCloseForceClosesAtDeadline(t *testing.T) {
	s := startServer(t, Config{Workers: 1, Queue: 2})
	release := make(chan struct{})
	result := heldRequest(t, s, release)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- s.Close(ctx) }()
	if err := <-result; err == nil {
		t.Error("client got a response from a force-closed connection")
	}
	close(release)
	if err := <-closed; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want the context's deadline error", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c := s.CountersSnapshot()
		if c.Completed+c.Failed == c.Admitted && c.Admitted == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters %+v: the admitted request never finished", c)
		}
	}
}

// TestAbandonedProfileStops: a CPU profile or execution trace whose
// client disconnects stops, and its connection goroutine finishes,
// instead of running for the full ?seconds its request asked for.
func TestAbandonedProfileStops(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	for _, path := range []string{"/debug/pprof/profile?seconds=30", "/debug/pprof/trace?seconds=30"} {
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.serveConn(srv)
		}()
		cli.SetDeadline(time.Now().Add(5 * time.Second))
		// The pipe is unbuffered: the write returns once the loop has
		// read the whole request.
		if _, err := fmt.Fprintf(cli, "GET %s HTTP/1.1\r\nHost: x\r\n\r\n", path); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // let the handler start
		cli.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: connection goroutine still running 5 s after its client left", path)
		}
	}
}
