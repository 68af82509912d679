package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"phttp/internal/dispatch"
)

// newBatchReader returns a front-end and one client connection of it,
// whose forwarding-module side reads from a real loopback TCP socket (the
// batch boundary probes the kernel socket, which net.Pipe does not have),
// plus the client's end.
func newBatchReader(t *testing.T, window time.Duration) (*FrontEnd, *feConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	eng, err := dispatch.NewEngine(dispatch.Spec{Policy: "lard", Nodes: 1, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fe := &FrontEnd{cfg: FrontEndConfig{IdleTimeout: 10 * time.Second, BatchWindow: window}, eng: eng}
	return fe, &feConn{conn: server, br: bufio.NewReaderSize(server, 16<<10)}, client
}

func pipelined(targets ...string) string {
	var sb strings.Builder
	for _, tg := range targets {
		fmt.Fprintf(&sb, "GET %s HTTP/1.1\r\nHost: cluster\r\n\r\n", tg)
	}
	return sb.String()
}

func writeAll(t *testing.T, conn net.Conn, s string) {
	t.Helper()
	if _, err := io.WriteString(conn, s); err != nil {
		t.Fatal(err)
	}
}

func readBatchTargets(t *testing.T, fe *FrontEnd, c *feConn) []string {
	t.Helper()
	batch, _, err := fe.readBatch(c)
	if err != nil {
		t.Fatalf("readBatch: %v", err)
	}
	out := make([]string, len(batch))
	for i, r := range batch {
		out[i] = string(r.Target)
	}
	return out
}

func TestReadBatchOneWriteIsOneBatch(t *testing.T) {
	fe, c, client := newBatchReader(t, 2*time.Millisecond)
	var targets []string
	for i := 0; i < 20; i++ {
		targets = append(targets, fmt.Sprintf("/doc/%d", i))
	}
	writeAll(t, client, pipelined(targets...))
	got := readBatchTargets(t, fe, c)
	if strings.Join(got, " ") != strings.Join(targets, " ") {
		t.Fatalf("batch = %v, want all %d requests in order", got, len(targets))
	}
	if c.br.Buffered() != 0 {
		t.Errorf("%d bytes left buffered after a complete batch", c.br.Buffered())
	}
}

// A batch ends when nothing more of it has arrived; the window bounds only
// the wait for a request that has started arriving.
func TestReadBatchSingleRequestDoesNotWaitWindow(t *testing.T) {
	fe, c, client := newBatchReader(t, time.Second)
	writeAll(t, client, pipelined("/only"))
	start := time.Now()
	got := readBatchTargets(t, fe, c)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("readBatch took %v for one request (window %v)", took, fe.cfg.BatchWindow)
	}
	if len(got) != 1 || got[0] != "/only" {
		t.Errorf("batch = %v, want [/only]", got)
	}
}

func TestReadBatchSplitHeadStartsNextBatch(t *testing.T) {
	fe, c, client := newBatchReader(t, 20*time.Millisecond)
	partial := "GET /b HTTP/1.1\r\nHo"
	writeAll(t, client, pipelined("/a")+partial)
	if got := readBatchTargets(t, fe, c); len(got) != 1 || got[0] != "/a" {
		t.Fatalf("first batch = %v, want [/a]", got)
	}
	if n := c.br.Buffered(); n != len(partial) {
		t.Fatalf("%d bytes buffered after the batch, want the %d-byte partial head kept", n, len(partial))
	}
	writeAll(t, client, "st: cluster\r\n\r\n")
	if got := readBatchTargets(t, fe, c); len(got) != 1 || got[0] != "/b" {
		t.Fatalf("second batch = %v, want [/b]", got)
	}
}

func TestReadBatchSplitHeadCompletingInWindowJoinsBatch(t *testing.T) {
	fe, c, client := newBatchReader(t, 5*time.Second)
	writeAll(t, client, pipelined("/a")+"GET /b HTTP/1.1\r\nHo")
	go func() {
		time.Sleep(20 * time.Millisecond)
		io.WriteString(client, "st: cluster\r\n\r\n")
	}()
	start := time.Now()
	got := readBatchTargets(t, fe, c)
	if strings.Join(got, " ") != "/a /b" {
		t.Fatalf("batch = %v, want [/a /b]", got)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("readBatch took %v: it waited past the completed head", took)
	}
}

// A burst larger than the reader's buffer stays one batch: the kernel
// probe sees the bytes not yet pulled into the buffer.
func TestReadBatchBurstBeyondBufferIsOneBatch(t *testing.T) {
	fe, c, client := newBatchReader(t, 2*time.Millisecond)
	var targets []string
	for i := 0; i < 600; i++ {
		targets = append(targets, fmt.Sprintf("/burst/%04d", i))
	}
	burst := pipelined(targets...)
	if len(burst) <= c.br.Size() {
		t.Fatalf("burst of %d bytes fits the %d-byte buffer", len(burst), c.br.Size())
	}
	writeAll(t, client, burst)
	if got := readBatchTargets(t, fe, c); len(got) != len(targets) {
		t.Fatalf("batch of %d requests, want %d", len(got), len(targets))
	}
}

// A malformed request after the first ends the batch with an error, but
// the requests before it are still returned for dispatch.
func TestReadBatchMalformedLaterRequest(t *testing.T) {
	fe, c, client := newBatchReader(t, 2*time.Millisecond)
	writeAll(t, client, pipelined("/a")+"NOT-HTTP\r\n\r\n")
	batch, _, err := fe.readBatch(c)
	if err == nil || len(batch) != 1 || batch[0].Target != "/a" {
		t.Fatalf("readBatch = %v, %v; want [/a] and an error", batch, err)
	}
}

func TestHeadComplete(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"", false},
		{"GET / HTTP/1.1\r\n", false},
		{"GET / HTTP/1.1\r\nHost: x\r\n", false},
		{"GET / HTTP/1.1\r\nHost: x\r\n\r", false},
		{"GET / HTTP/1.1\r\nHost: x\r\n\r\n", true},
		{"GET / HTTP/1.1\nHost: x\n\n", true},
		{"GET / HTTP/1.0\r\n\r\n", true},
		{"\r\n", true},
	} {
		if got := headComplete([]byte(tc.in)); got != tc.want {
			t.Errorf("headComplete(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
