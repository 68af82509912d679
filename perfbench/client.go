package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
)

// The benchmark's client is its own code, not the repository's load
// generator, so a change to the program cannot change the thing doing the
// measuring. It is a closed loop: each of its goroutines replays one trace
// connection at a time and starts the next only when the previous one
// completes, as browsers do on persistent connections.

// ioTimeout bounds every socket operation; a stalled server shows up as
// failed requests rather than a hung run.
const ioTimeout = 10 * time.Second

// client replays a trace against the cluster's front-ends.
type client struct {
	addrs  []string // goroutine i talks to addrs[i % len(addrs)]
	http10 bool
	conns  []core.Connection
	// wire holds each connection's request bytes, one pipelined write per
	// batch, built before anything is timed.
	wire [][][]byte
	// next is the shared cursor into conns (taken modulo their number),
	// carried over from one run to the next.
	next atomic.Int64
}

func newClient(addrs []string, conns []core.Connection, http10 bool) *client {
	proto := "HTTP/1.1"
	if http10 {
		proto = "HTTP/1.0"
	}
	c := &client{addrs: addrs, http10: http10, conns: conns, wire: make([][][]byte, len(conns))}
	for i, conn := range conns {
		c.wire[i] = make([][]byte, len(conn.Batches))
		for j, b := range conn.Batches {
			var buf bytes.Buffer
			for _, r := range b {
				fmt.Fprintf(&buf, "GET %s %s\r\nHost: cluster\r\n\r\n", r.Target, proto)
			}
			c.wire[i][j] = buf.Bytes()
		}
	}
	return c
}

// windowStats is what the client saw during one run.
type windowStats struct {
	attempted int64
	completed int64 // verified responses
	failed    int64
	lat       []time.Duration // batch write (HTTP/1.0: dial) → last byte
	done      []time.Time     // when each lat sample's last byte arrived
	ttfb      []time.Duration // batch write → response head read
	transfer  []time.Duration // response head read → last byte
	connect   []time.Duration
	problems  []string
}

func (w *windowStats) merge(o *windowStats) {
	w.attempted += o.attempted
	w.completed += o.completed
	w.failed += o.failed
	w.lat = append(w.lat, o.lat...)
	w.done = append(w.done, o.done...)
	w.ttfb = append(w.ttfb, o.ttfb...)
	w.transfer = append(w.transfer, o.transfer...)
	w.connect = append(w.connect, o.connect...)
	for _, p := range o.problems {
		if len(w.problems) < 5 {
			w.problems = append(w.problems, p)
		}
	}
}

// run drives the closed loop with one goroutine per front-end address
// slot until d has passed, lets every connection in progress finish, and
// returns the merged statistics. With a tracer, every connection and
// request is recorded as a span.
func (c *client) run(goroutines int, d time.Duration, tr *tracer) windowStats {
	deadline := time.Now().Add(d)
	return c.replay(goroutines, func(int64) bool { return time.Now().Before(deadline) }, tr)
}

// pass replays every connection of the trace once, from where the
// cursor stands, with the given number of goroutines.
func (c *client) pass(goroutines int) windowStats {
	end := c.next.Load() + int64(len(c.conns))
	return c.replay(goroutines, func(k int64) bool { return k < end }, nil)
}

// replay runs goroutines that each take the next connection off the
// shared cursor while more allows it.
func (c *client) replay(goroutines int, more func(k int64) bool, tr *tracer) windowStats {
	parts := make([]windowStats, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addr := c.addrs[i%len(c.addrs)]
			var scratch []byte
			for {
				k := c.next.Add(1) - 1
				if !more(k) {
					return
				}
				c.drive(addr, int(k%int64(len(c.conns))), tr, &parts[i], &scratch)
			}
		}(i)
	}
	wg.Wait()
	var all windowStats
	for i := range parts {
		all.merge(&parts[i])
	}
	return all
}

// drive replays trace connection k and accounts for it: every request of
// the connection is attempted, and those not verified count as failed.
func (c *client) drive(addr string, k int, tr *tracer, st *windowStats, scratch *[]byte) {
	n := int64(c.conns[k].Requests())
	st.attempted += n
	done, err := c.exchange(addr, k, tr, st, scratch)
	st.completed += done
	if err != nil {
		st.failed += n - done
		if len(st.problems) < 5 {
			st.problems = append(st.problems, err.Error())
		}
	}
}

// exchange runs one connection: dial, then per batch one pipelined write
// and the responses read back in order, each one verified.
func (c *client) exchange(addr string, k int, tr *tracer, st *windowStats, scratch *[]byte) (int64, error) {
	var spans []span
	var traceID uint64
	t0 := time.Now()
	if tr != nil {
		traceID = tr.newID()
		defer func() { tr.add(append(spans, tr.rec(traceID, traceID, 0, "client.conn", t0, time.Now()))...) }()
	}
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	tc := time.Now()
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	st.connect = append(st.connect, tc.Sub(t0))
	if tr != nil {
		spans = append(spans, tr.rec(traceID, tr.newID(), traceID, "client.connect", t0, tc))
	}
	br := bufio.NewReaderSize(nc, 32<<10)
	var done int64
	for bi, batch := range c.conns[k].Batches {
		if err := nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
			return done, err
		}
		tw := time.Now()
		if c.http10 {
			tw = t0
		}
		if _, err := nc.Write(c.wire[k][bi]); err != nil {
			return done, err
		}
		for _, r := range batch {
			status, length, err := readHead(br)
			tf := time.Now()
			if err != nil {
				return done, fmt.Errorf("%s: %w", r.Target, err)
			}
			if status != 200 {
				return done, fmt.Errorf("%s: status %d", r.Target, status)
			}
			if length != r.Size {
				return done, fmt.Errorf("%s: Content-Length %d, catalog size %d", r.Target, length, r.Size)
			}
			if err := checkBody(br, r.Target, length, scratch); err != nil {
				return done, fmt.Errorf("%s: %w", r.Target, err)
			}
			te := time.Now()
			st.lat = append(st.lat, te.Sub(tw))
			st.done = append(st.done, te)
			st.ttfb = append(st.ttfb, tf.Sub(tw))
			st.transfer = append(st.transfer, te.Sub(tf))
			if tr != nil {
				rid := tr.newID()
				spans = append(spans,
					tr.rec(traceID, rid, traceID, "client.request", tw, te),
					tr.rec(traceID, tr.newID(), rid, "client.transfer", tf, te))
			}
			done++
		}
	}
	return done, nil
}

// readHead reads a response's status line and headers and returns the
// status code and Content-Length, which must be present.
func readHead(br *bufio.Reader) (status int, length int64, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("status line: %w", err)
	}
	f := strings.Fields(string(line))
	if len(f) < 2 || !strings.HasPrefix(f[0], "HTTP/1.") {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(f[1]); err != nil {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	length = -1
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return 0, 0, fmt.Errorf("headers: %w", err)
		}
		h := strings.TrimSpace(string(line))
		if h == "" {
			break
		}
		name, v, ok := strings.Cut(h, ":")
		if ok && strings.EqualFold(name, "Content-Length") {
			if length, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64); err != nil || length < 0 {
				return 0, 0, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, 0, errors.New("no Content-Length")
	}
	return status, length, nil
}

// checkBody reads an n-byte body and compares every byte with the
// content the cluster package defines for t: the stream cluster.WriteContent
// produces, with the first and last bytes also checked against
// cluster.ContentByte.
func checkBody(br *bufio.Reader, t core.Target, n int64, scratch *[]byte) error {
	v := bodyChecker{br: br, buf: *scratch}
	err := cluster.WriteContent(&v, t, n)
	*scratch = v.buf
	if err != nil {
		return err
	}
	if n > 0 && (v.first != cluster.ContentByte(t, 0) || v.last != cluster.ContentByte(t, n-1)) {
		return errors.New("body differs from ContentByte at its first or last byte")
	}
	return nil
}

// bodyChecker is the writer cluster.WriteContent streams the expected
// body into: each Write reads as many bytes off the socket and compares.
type bodyChecker struct {
	br          *bufio.Reader
	buf         []byte
	off         int64
	first, last byte
}

func (b *bodyChecker) Write(p []byte) (int, error) {
	if cap(b.buf) < len(p) {
		b.buf = make([]byte, len(p))
	}
	got := b.buf[:len(p)]
	if _, err := io.ReadFull(b.br, got); err != nil {
		return 0, fmt.Errorf("body truncated near offset %d: %w", b.off, err)
	}
	if i := firstDiff(got, p); i >= 0 {
		return 0, fmt.Errorf("body corrupt at offset %d", b.off+int64(i))
	}
	if len(got) > 0 {
		if b.off == 0 {
			b.first = got[0]
		}
		b.last = got[len(got)-1]
	}
	b.off += int64(len(p))
	return len(p), nil
}

// firstDiff is the first index where a and b (equal lengths) differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
