package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/sandbox"
)

// HTTP connection bounds. A client that never finishes its request
// headers, or leaves a keep-alive connection idle, is disconnected
// instead of pinning a goroutine forever. There is deliberately no
// write timeout: /debug/pprof/profile streams for 30 s by default.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	// maxHeaderBytes is net/http's DefaultMaxHeaderBytes. A request
	// whose header runs past it (plus one read buffer of slack, as in
	// net/http) gets 431.
	maxHeaderBytes = 1<<20 + 4096
	// lingerTimeout bounds how long a connection closed on a bad
	// request or an unread body drains the client's input, so that the
	// close does not reset the connection before the client has read
	// the response (net/http waits the same 500 ms).
	lingerTimeout = 500 * time.Millisecond
	// maxKeptBody is the largest response buffer a connection keeps for
	// its next response; a larger one (a pprof profile) is dropped.
	maxKeptBody = 64 << 10
)

// Connection states, for Close: an idle connection is waiting for the
// first byte of its next request and may be closed at once; an active
// one finishes the request it is serving first.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// conn is one client connection, served by one goroutine in serveConn:
// requests are read, dispatched through the mux and answered in order.
type conn struct {
	s  *Server
	nc net.Conn
	// lr is the connection as br sees it: reads stop at the header
	// limit, so a header past maxHeaderBytes ends in io.EOF and gets 431
	// instead of being buffered without bound.
	lr    io.LimitedReader
	br    *bufio.Reader
	bw    *bufio.Writer
	w     response
	state atomic.Int32
	num   [20]byte // scratch for formatting numbers
	// date is the Date header value for the second dateSec: formatting
	// it for every response took ~40% of writing the header.
	date    []byte
	dateSec int64
}

// response is the http.ResponseWriter handlers write into. It buffers
// the whole response, so the loop knows the body's length before it
// writes the header; it is reused for every request on a connection.
type response struct {
	header http.Header
	status int
	body   []byte
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *response) reset() {
	clear(w.header)
	w.status = 0
	if cap(w.body) > maxKeptBody {
		w.body = nil
	}
	w.body = w.body[:0]
}

// acceptLoop runs until the listener is closed, serving each accepted
// connection on a goroutine of its own.
func (s *Server) acceptLoop() {
	defer close(s.serveDone)
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of file descriptors, say: keep the daemon up and
			// try again shortly.
			fmt.Printf("serve: accept: %v\n", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveConn(nc)
		}()
	}
}

// shutdown stops accepting connections, closes the idle ones and waits
// for the rest to finish the request each is serving. When ctx ends
// first it closes every connection and returns ctx's error; the
// handlers still running then finish on their own.
func (s *Server) shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.ln.Close()
	<-s.serveDone // no connection is accepted from here on
	s.closeConns(false)
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns(true)
		return ctx.Err()
	}
}

// closeConns closes every idle connection, or with all every connection.
// A connection that turns idle after this sees closing set and closes
// itself.
func (s *Server) closeConns(all bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) || all {
			c.nc.Close()
		}
	}
}

// serveConn serves nc's requests in order until the client closes it, a
// timeout passes, a request asks for the connection to close, or Close
// shuts the daemon down; then it closes nc.
func (s *Server) serveConn(nc net.Conn) {
	c := &conn{s: s, nc: nc, lr: io.LimitedReader{R: nc}, w: response{header: make(http.Header)}}
	c.br = bufio.NewReader(&c.lr)
	c.bw = bufio.NewWriter(nc)
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
	}()
	if c.serve() {
		lingeringClose(nc)
		return
	}
	nc.Close()
}

// serve is the request loop. It reports whether the connection must be
// closed lingering, because the client may still be sending input the
// loop will never read.
func (c *conn) serve() (linger bool) {
	for n := 0; ; n++ {
		c.lr.N = maxHeaderBytes
		if c.br.Buffered() == 0 {
			// A fresh connection gets the header timeout from accept,
			// as in net/http; between requests the idle timeout runs
			// until the next request's first byte.
			wait := c.s.timeouts.idle
			if n == 0 {
				wait = c.s.timeouts.header
			}
			if !c.waitIdle(wait) {
				return false
			}
		}
		if n > 0 {
			c.nc.SetReadDeadline(time.Now().Add(c.s.timeouts.header))
		}
		r, err := http.ReadRequest(c.br)
		if err != nil {
			var ne net.Error
			switch {
			case c.lr.N <= 0:
				c.fail(http.StatusRequestHeaderFieldsTooLarge, "")
			case errors.Is(err, io.EOF), errors.As(err, &ne) && ne.Timeout():
				return false
			default:
				c.fail(http.StatusBadRequest, "")
			}
			return true
		}
		switch {
		case r.ProtoMajor != 1:
			c.fail(http.StatusHTTPVersionNotSupported, "unsupported protocol version")
			return true
		case r.ProtoMinor >= 1 && r.Host == "":
			c.fail(http.StatusBadRequest, "missing required Host header")
			return true
		}
		// No handler reads a request body, so the loop never reads
		// one: a request that declares a body is answered, and its
		// connection closed, since the body's bytes would otherwise be
		// parsed as the next request.
		hasBody := r.Body != http.NoBody || r.Header["Expect"] != nil
		var stop func() bool
		if longRunning(r.URL.Path) {
			r, stop = c.watchClose(r)
		}
		panicked := c.dispatch(r)
		pipelined := stop != nil && stop()
		closing := r.Close || hasBody || panicked || pipelined || c.s.closing.Load()
		c.writeResponse(r, closing)
		if c.bw.Flush() != nil {
			return false
		}
		if closing {
			return hasBody || pipelined
		}
	}
}

// longRunning reports whether path's handler runs for as long as its
// request asks (?seconds=N). Only these requests get a context that
// ends when the client goes away, since watching for that takes a
// goroutine.
func longRunning(path string) bool {
	return path == "/debug/pprof/profile" || path == "/debug/pprof/trace"
}

// watchClose gives r a context that is cancelled when a background read
// on the connection ends while r's handler runs: the client closed the
// connection, or Close did. The read has no deadline, so a long
// profile is not cut short by the header timeout. stop ends the watch
// and reports whether the client sent more input meanwhile; that input
// stays buffered, but the connection is closed after this response, as
// it is no longer watched.
func (c *conn) watchClose(r *http.Request) (*http.Request, func() bool) {
	ctx, cancel := context.WithCancel(r.Context())
	c.lr.N = maxHeaderBytes
	c.nc.SetReadDeadline(time.Time{})
	more := make(chan bool, 1)
	go func() {
		_, err := c.br.Peek(1)
		if err != nil {
			cancel()
		}
		more <- err == nil
	}()
	return r.WithContext(ctx), func() bool {
		c.nc.SetReadDeadline(time.Unix(1, 0)) // unblocks the read
		got := <-more
		cancel()
		return got
	}
}

// waitIdle waits as an idle connection, for at most d, for the first
// byte of the next request. It reports false if none came, or if Close
// shut the connection meanwhile.
func (c *conn) waitIdle(d time.Duration) bool {
	c.state.Store(connIdle)
	if c.s.closing.Load() {
		return false
	}
	c.nc.SetReadDeadline(time.Now().Add(d))
	_, err := c.br.Peek(1)
	return err == nil && c.state.CompareAndSwap(connIdle, connActive)
}

// dispatch runs r's handler into c.w. A handler that panics, outside
// the fleet that already contains a simulated request's panic, fails
// only this request: it gets HTTP 500 with the fault class unknown, and
// dispatch reports true so that the connection is closed.
func (c *conn) dispatch(r *http.Request) (panicked bool) {
	w := &c.w
	w.reset()
	defer func() {
		if p := recover(); p != nil {
			fmt.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			fault := sandbox.NewFault(sandbox.Unknown, "serve", "handler", fmt.Errorf("panicked: %v", p))
			w.reset()
			w.header.Set("X-Fault-Class", fault.Class.String())
			http.Error(w, fault.Error(), http.StatusInternalServerError)
			panicked = true
		}
	}()
	c.s.mux.ServeHTTP(w, r)
	return false
}

// newlineToSpace keeps a header value from splitting the response
// header, as net/http does.
var newlineToSpace = strings.NewReplacer("\n", " ", "\r", " ")

// writeResponse writes c.w as r's response: the status line,
// Content-Length, Date, a sniffed Content-Type when the handler set
// none, the handler's headers and, unless r is a HEAD, the body.
func (c *conn) writeResponse(r *http.Request, closing bool) {
	w, bw := &c.w, c.bw
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if r.ProtoMinor >= 1 {
		bw.WriteString("HTTP/1.1 ")
	} else {
		bw.WriteString("HTTP/1.0 ")
	}
	bw.Write(strconv.AppendInt(c.num[:0], int64(w.status), 10))
	bw.WriteByte(' ')
	bw.WriteString(http.StatusText(w.status))
	bw.WriteString("\r\nContent-Length: ")
	bw.Write(strconv.AppendInt(c.num[:0], int64(len(w.body)), 10))
	bw.WriteString("\r\nDate: ")
	if now := time.Now(); now.Unix() != c.dateSec {
		c.date, c.dateSec = now.UTC().AppendFormat(c.date[:0], http.TimeFormat), now.Unix()
	}
	bw.Write(c.date)
	if _, set := w.header["Content-Type"]; !set && len(w.body) > 0 {
		bw.WriteString("\r\nContent-Type: ")
		bw.WriteString(http.DetectContentType(w.body))
	}
	switch {
	case closing:
		bw.WriteString("\r\nConnection: close")
	case r.ProtoMinor == 0:
		bw.WriteString("\r\nConnection: keep-alive")
	}
	bw.WriteString("\r\n")
	for k, vs := range w.header {
		for _, v := range vs {
			if strings.IndexByte(v, '\n') >= 0 || strings.IndexByte(v, '\r') >= 0 {
				v = newlineToSpace.Replace(v)
			}
			bw.WriteString(k)
			bw.WriteString(": ")
			bw.WriteString(v)
			bw.WriteString("\r\n")
		}
	}
	bw.WriteString("\r\n")
	if r.Method != http.MethodHead {
		bw.Write(w.body)
	}
}

// fail answers a request the loop could not read with the response
// net/http gives it: the status, a plain-text body and no keep-alive.
func (c *conn) fail(code int, text string) {
	msg := strconv.Itoa(code) + " " + http.StatusText(code)
	c.bw.WriteString("HTTP/1.1 " + msg + "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n" + msg)
	if text != "" {
		c.bw.WriteString(": " + text)
	}
	c.bw.Flush()
}

// lingeringClose closes nc after the client has had lingerTimeout to
// finish sending: closing a TCP connection with unread input resets it,
// and the reset can destroy the response before the client reads it.
func lingeringClose(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.CloseWrite()
		tc.SetReadDeadline(time.Now().Add(lingerTimeout))
		io.Copy(io.Discard, tc)
	}
	nc.Close()
}
