package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: a minimal HTTP/1.1 keep-alive client (one
// connection per load goroutine, so the client's own CPU cost stays
// small on a machine it shares with the daemon) driving either an
// open-loop Poisson schedule or a closed loop.

var serveRequest = []byte("GET /serve HTTP/1.1\r\nHost: bench\r\n\r\n")

// response is what the benchmark reads from one HTTP response. body is
// valid until the next request on the same client.
type response struct {
	status int
	simUS  string // X-Sim-Micros
	wallUS int64  // X-Wall-Micros: the daemon's admission-to-completion time
	body   []byte
}

type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends req and reads the response. Responses must carry a
// Content-Length, which the daemon's short bodies always do.
func (c *client) do(req []byte) (response, error) {
	var resp response
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return resp, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	if _, err := c.conn.Write(req); err != nil {
		c.close()
		return resp, err
	}
	err := c.read(&resp)
	if err != nil {
		c.close()
	}
	return resp, err
}

func (c *client) read(resp *response) error {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return fmt.Errorf("bad status line %q", line)
	}
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return fmt.Errorf("bad status line %q", line)
	}
	clen := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			break // the blank line ending the header
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if clen, err = strconv.Atoi(string(v)); err != nil {
				return fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("X-Sim-Micros")):
			resp.simUS = string(v)
		case bytes.EqualFold(k, []byte("X-Wall-Micros")):
			if resp.wallUS, err = strconv.ParseInt(string(v), 10, 64); err != nil {
				return fmt.Errorf("bad X-Wall-Micros %q", v)
			}
		}
	}
	if clen < 0 {
		return errors.New("response without Content-Length")
	}
	if cap(c.body) < clen {
		c.body = make([]byte, clen)
	}
	resp.body = c.body[:clen]
	_, err = io.ReadFull(c.br, resp.body)
	return err
}

// poissonSchedule returns the send offsets of a Poisson arrival process
// at rate per second over d. The same seed and step give the same
// schedule, and a shorter d gives a prefix of a longer one.
func poissonSchedule(seed uint64, step int, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5c4ed+uint64(step)))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// sent is one open-loop request's outcome: latency from when it was due,
// how late it was sent, and the round trip once sent.
type sent struct {
	latUS, lagUS, rttUS float64
	resp                response
	err                 error
}

// openLoop sends one request per schedule entry over the clients, one
// goroutine per client. A request due while every client is busy waits
// for the first free one, and its latency still counts from its due
// time. onResp sees each outcome on the goroutine that sent it; the
// response body is valid only during the call.
func openLoop(clients []*client, sched []time.Duration, onResp func(i int, s *sent)) time.Duration {
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				t0 := time.Now()
				resp, err := c.do(serveRequest)
				t1 := time.Now()
				onResp(i, &sent{latUS: us(t1.Sub(due)), lagUS: us(t0.Sub(due)), rttUS: us(t1.Sub(t0)), resp: resp, err: err})
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// closedLoop keeps every client sending back-to-back requests for d and
// returns how many completed; onResp is called as in openLoop.
func closedLoop(clients []*client, d time.Duration, onResp func(s *sent)) int64 {
	deadline := time.Now().Add(d)
	var n atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				resp, err := c.do(serveRequest)
				rtt := us(time.Since(t0))
				onResp(&sent{latUS: rtt, rttUS: rtt, resp: resp, err: err})
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	return n.Load()
}
