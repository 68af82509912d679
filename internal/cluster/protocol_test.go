package cluster

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"phttp/internal/core"
	"phttp/internal/server"
)

func TestCtrlReqRoundTrip(t *testing.T) {
	line := formatReq(42, 7, "HTTP/1.1", true, 3, "/docs/page.html")
	m, err := parseCtrl(strings.TrimSpace(line))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != "REQ" || m.Conn != 42 || m.Seq != 7 || m.Proto != "HTTP/1.1" ||
		!m.Keep || m.Remote != 3 || m.Target != "/docs/page.html" {
		t.Errorf("parsed %+v", m)
	}
}

// The REQ wire bytes are fixed: back-ends of other builds parse them.
func TestCtrlReqWireBytes(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{formatReq(42, 7, "HTTP/1.1", true, 3, "/docs/page.html"), "REQ 42 7 HTTP/1.1 1 3 /docs/page.html\n"},
		{formatReq(1<<40+5, 0, "HTTP/1.0", false, core.NoNode, "/x"), "REQ 1099511627781 0 HTTP/1.0 0 - /x\n"},
		{string(appendReq([]byte("CLOSE 9\n"), 9, 12, "HTTP/1.1", false, 0, "/a?b")), "CLOSE 9\nREQ 9 12 HTTP/1.1 0 0 /a?b\n"},
	} {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
}

func TestCtrlReqLocalServe(t *testing.T) {
	line := formatReq(1, 0, "HTTP/1.0", false, core.NoNode, "/x")
	m, err := parseCtrl(strings.TrimSpace(line))
	if err != nil {
		t.Fatal(err)
	}
	if m.Remote != core.NoNode || m.Keep {
		t.Errorf("parsed %+v", m)
	}
}

func TestCtrlCloseRelayDiskQ(t *testing.T) {
	m, err := parseCtrl("CLOSE 9")
	if err != nil || m.Kind != "CLOSE" || m.Conn != 9 {
		t.Errorf("CLOSE parse: %+v, %v", m, err)
	}
	m, err = parseCtrl("RELAY 11")
	if err != nil || m.Kind != "RELAY" || m.Conn != 11 {
		t.Errorf("RELAY parse: %+v, %v", m, err)
	}
	m, err = parseCtrl("DISKQ 5")
	if err != nil || m.Kind != "DISKQ" || m.Depth != 5 {
		t.Errorf("DISKQ parse: %+v, %v", m, err)
	}
}

func TestCtrlMalformed(t *testing.T) {
	bad := []string{
		"", "BOGUS 1", "REQ 1 2", "REQ x 0 HTTP/1.1 1 - /t",
		"REQ 1 y HTTP/1.1 1 - /t", "REQ 1 2 HTTP/1.1 1 z /t",
		"CLOSE", "CLOSE x", "DISKQ", "DISKQ x", "RELAY",
	}
	for _, line := range bad {
		if _, err := parseCtrl(line); err == nil {
			t.Errorf("accepted malformed control message %q", line)
		}
	}
}

// Property: REQ messages round trip for arbitrary IDs, sequence numbers and
// whitespace-free targets.
func TestCtrlReqRoundTripProperty(t *testing.T) {
	f := func(id uint32, seq uint16, keep bool, remote uint8, pathSeed uint8) bool {
		r := core.NodeID(remote % 16)
		if remote%5 == 0 {
			r = core.NoNode
		}
		target := core.Target("/t" + strings.Repeat("q", int(pathSeed%40)+1))
		line := formatReq(core.ConnID(id), int(seq), "HTTP/1.1", keep, r, target)
		m, err := parseCtrl(strings.TrimSpace(line))
		if err != nil {
			return false
		}
		return m.Conn == core.ConnID(id) && m.Seq == int(seq) &&
			m.Keep == keep && m.Remote == r && m.Target == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFDPassing exercises the handoff primitive end to end: a TCP socket's
// descriptor crosses a UNIX socketpair; the receiver writes to the client
// through it while the sender keeps reading — the paper's control/data
// split.
func TestFDPassing(t *testing.T) {
	// Client <-> "front-end" TCP connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	clientDone := make(chan string, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			clientDone <- "dial: " + err.Error()
			return
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("ping\n")); err != nil {
			clientDone <- err.Error()
			return
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			clientDone <- err.Error()
			return
		}
		clientDone <- line
	}()
	feConn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer feConn.Close()

	// UNIX socketpair standing in for the FE->BE handoff channel.
	hoDir := t.TempDir()
	uaddr, _ := net.ResolveUnixAddr("unix", hoDir+"/ho.sock")
	uln, err := net.ListenUnix("unix", uaddr)
	if err != nil {
		t.Fatal(err)
	}
	defer uln.Close()
	sendSide, err := net.DialUnix("unix", nil, uaddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sendSide.Close()
	recvSide, err := uln.AcceptUnix()
	if err != nil {
		t.Fatal(err)
	}
	defer recvSide.Close()

	// Hand the client socket off.
	f, err := feConn.(*net.TCPConn).File()
	if err != nil {
		t.Fatal(err)
	}
	if err := SendConnFD(sendSide, 77, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	id, beConn, err := RecvConnFD(recvSide)
	if err != nil {
		t.Fatal(err)
	}
	defer beConn.Close()
	if id != 77 {
		t.Errorf("handoff conn id = %d, want 77", id)
	}

	// The "front-end" reads the request on its descriptor...
	line, err := bufio.NewReader(feConn).ReadString('\n')
	if err != nil || line != "ping\n" {
		t.Fatalf("FE read %q, %v", line, err)
	}
	// ...and the "back-end" answers directly on the handed-off one.
	if _, err := beConn.Write([]byte("pong\n")); err != nil {
		t.Fatal(err)
	}
	if got := <-clientDone; got != "pong\n" {
		t.Errorf("client received %q, want pong", got)
	}
}

func TestDocStoreBasics(t *testing.T) {
	catalog := map[core.Target]int64{"/a": 1000, "/b": 2000}
	ds := NewDocStore(catalog, 10<<10, testDisk(), 1000)
	if _, err := ds.Open("/missing"); err == nil {
		t.Error("Open of unknown target succeeded")
	}
	sz, err := ds.Open("/a")
	if err != nil || sz != 1000 {
		t.Fatalf("Open(/a) = %d, %v", sz, err)
	}
	if h, m := ds.Counters(); h != 0 || m != 1 {
		t.Errorf("counters %d/%d after cold read, want 0/1", h, m)
	}
	ds.Open("/a")
	if h, _ := ds.Counters(); h != 1 {
		t.Error("second read of /a was not a hit")
	}
	if ds.HitRate() != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", ds.HitRate())
	}
}

func TestDocStoreEviction(t *testing.T) {
	catalog := map[core.Target]int64{"/a": 800, "/b": 800}
	ds := NewDocStore(catalog, 1000, testDisk(), 1000)
	ds.Open("/a")
	ds.Open("/b") // evicts /a
	ds.Open("/a") // must miss again
	if h, m := ds.Counters(); h != 0 || m != 3 {
		t.Errorf("counters %d/%d, want 0 hits 3 misses", h, m)
	}
}

func TestContentDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := WriteContent(&a, "/x", 5000); err != nil {
		t.Fatal(err)
	}
	if err := WriteContent(&b, "/x", 5000); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("content not deterministic")
	}
	var c strings.Builder
	WriteContent(&c, "/y", 5000)
	if a.String() == c.String() {
		t.Error("different targets produced identical content")
	}
	if int64(a.Len()) != 5000 {
		t.Errorf("content length %d, want 5000", a.Len())
	}
	for i := int64(0); i < 64; i++ {
		if a.String()[i] != ContentByte("/x", i) {
			t.Fatalf("ContentByte mismatch at %d", i)
		}
	}
}

// testDisk returns a tiny disk model so unit tests never sleep long.
func testDisk() server.DiskParams {
	return server.DiskParams{Position: 100, TransferPer512: 1}
}
