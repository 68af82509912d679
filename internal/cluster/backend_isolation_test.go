package cluster_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/server"
)

// fakeFE drives one Backend directly over the wire protocol, standing in
// for the front-end: it owns the control session, the handoff socket and a
// client TCP pair.
type fakeFE struct {
	t    *testing.T
	be   *cluster.Backend
	ctrl net.Conn
	ho   *net.UnixConn
}

func newBackendPair(t *testing.T) (*cluster.Backend, *cluster.Backend, *fakeFE) {
	t.Helper()
	dir := t.TempDir()
	catalog := map[core.Target]int64{
		"/local":  3000,
		"/remote": 5000,
	}
	mk := func(id int) *cluster.Backend {
		be, err := cluster.NewBackend(cluster.BackendConfig{
			ID:            core.NodeID(id),
			Catalog:       catalog,
			CacheBytes:    1 << 20,
			Disk:          server.DiskParams{Position: 100, TransferPer512: 1},
			TimeScale:     100,
			HandoffSocket: filepath.Join(dir, fmt.Sprintf("be%d.sock", id)),
		})
		if err != nil {
			t.Fatalf("backend %d: %v", id, err)
		}
		t.Cleanup(be.Close)
		return be
	}
	be0, be1 := mk(0), mk(1)
	peers := map[core.NodeID]string{0: be0.PeerAddr(), 1: be1.PeerAddr()}
	be0.SetPeers(peers)
	be1.SetPeers(peers)

	ctrl, err := net.Dial("tcp", be0.CtrlAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	if _, err := io.WriteString(ctrl, "HELLO CTRL\n"); err != nil {
		t.Fatal(err)
	}
	raddr, err := net.ResolveUnixAddr("unix", be0.HandoffPath())
	if err != nil {
		t.Fatal(err)
	}
	ho, err := net.DialUnix("unix", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ho.Close() })
	return be0, be1, &fakeFE{t: t, be: be0, ctrl: ctrl, ho: ho}
}

// handoff creates a client TCP pair, hands the server side to the backend
// under connID, and returns the client side.
func (f *fakeFE) handoff(connID core.ConnID) net.Conn {
	f.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.t.Fatal(err)
	}
	defer ln.Close()
	clientCh := make(chan net.Conn, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			clientCh <- c
		}
	}()
	serverSide, err := ln.Accept()
	if err != nil {
		f.t.Fatal(err)
	}
	file, err := serverSide.(*net.TCPConn).File()
	if err != nil {
		f.t.Fatal(err)
	}
	if err := cluster.SendConnFD(f.ho, connID, file); err != nil {
		f.t.Fatal(err)
	}
	file.Close()
	serverSide.Close() // the backend holds its own duplicate now
	client := <-clientCh
	f.t.Cleanup(func() { client.Close() })
	return client
}

func (f *fakeFE) send(line string) {
	f.t.Helper()
	if _, err := io.WriteString(f.ctrl, line); err != nil {
		f.t.Fatal(err)
	}
}

func readFullResponse(t *testing.T, br *bufio.Reader) (*httpmsg.Response, []byte) {
	t.Helper()
	resp, err := httpmsg.ReadResponse(br)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	body := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

func TestBackendServesLocalTaggedRequest(t *testing.T) {
	_, _, fe := newBackendPair(t)
	client := fe.handoff(1)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	// "REQ <conn> <seq> <proto> <keep> <remote|-> <target>"
	fe.send("REQ 1 0 HTTP/1.1 1 - /local\n")
	br := bufio.NewReader(client)
	resp, body := readFullResponse(t, br)
	if resp.Status != 200 || int64(len(body)) != 3000 {
		t.Fatalf("status %d, body %d bytes", resp.Status, len(body))
	}
	for i := 0; i < 32; i++ {
		if body[i] != cluster.ContentByte("/local", int64(i)) {
			t.Fatalf("corrupt body at %d", i)
		}
	}
	fe.send("CLOSE 1\n")
}

func TestBackendLateralFetchProducesRemoteContent(t *testing.T) {
	_, be1, fe := newBackendPair(t)
	client := fe.handoff(2)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	// Tagged: be0 must fetch /remote from be1 and forward it.
	fe.send("REQ 2 0 HTTP/1.1 1 1 /remote\n")
	br := bufio.NewReader(client)
	resp, body := readFullResponse(t, br)
	if resp.Status != 200 || int64(len(body)) != 5000 {
		t.Fatalf("status %d, body %d bytes", resp.Status, len(body))
	}
	for i := 0; i < 32; i++ {
		if body[i] != cluster.ContentByte("/remote", int64(i)) {
			t.Fatalf("corrupt forwarded body at %d", i)
		}
	}
	// The content came off be1's store, not be0's.
	if h, m := be1.Store().Counters(); h+m != 1 {
		t.Errorf("peer store accesses = %d, want 1", h+m)
	}
	fe.send("CLOSE 2\n")
}

func TestBackendPipelinedOrderPreserved(t *testing.T) {
	_, _, fe := newBackendPair(t)
	client := fe.handoff(3)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	// Two pipelined requests, one local and one lateral: responses must
	// come back in request order despite different service paths.
	fe.send("REQ 3 0 HTTP/1.1 1 1 /remote\n")
	fe.send("REQ 3 1 HTTP/1.1 1 - /local\n")
	br := bufio.NewReader(client)
	r1, _ := readFullResponse(t, br)
	r2, _ := readFullResponse(t, br)
	if r1.ContentLength != 5000 || r2.ContentLength != 3000 {
		t.Errorf("response order: got %d then %d bytes, want 5000 then 3000",
			r1.ContentLength, r2.ContentLength)
	}
	fe.send("CLOSE 3\n")
}

// One connection with a deep queue of requests it cannot serve yet (its
// socket has not been handed off) must not stall the control session for
// the other connections sharing it.
func TestBackendDeepQueueDoesNotBlockOtherConns(t *testing.T) {
	_, _, fe := newBackendPair(t)
	var sb strings.Builder
	for seq := 0; seq < 1000; seq++ {
		fmt.Fprintf(&sb, "REQ 4 %d HTTP/1.1 1 - /local\n", seq)
	}
	fe.send(sb.String())
	client := fe.handoff(5)
	client.SetDeadline(time.Now().Add(10 * time.Second))
	fe.send("REQ 5 0 HTTP/1.1 1 - /local\n")
	if resp, _ := readFullResponse(t, bufio.NewReader(client)); resp.Status != 200 {
		t.Fatalf("status %d", resp.Status)
	}
	fe.send("CLOSE 5\n")
}

func TestBackendDiskReports(t *testing.T) {
	_, _, fe := newBackendPair(t)
	br := bufio.NewReader(fe.ctrl)
	fe.ctrl.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no disk report: %v", err)
	}
	var depth int
	if _, err := fmt.Sscanf(line, "DISKQ %d", &depth); err != nil {
		t.Fatalf("unexpected control message %q", line)
	}
	if depth != 0 {
		t.Errorf("idle backend reports disk queue %d", depth)
	}
}

func TestMainDoesNotLeakTempSockets(t *testing.T) {
	dir, err := cluster.HandoffSocketDir()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
}
