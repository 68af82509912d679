package cluster_test

import (
	"bufio"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// dialCluster starts a tiny cluster and returns a raw client connection.
func dialCluster(t *testing.T, pol string, mech core.Mechanism) (*cluster.Cluster, net.Conn) {
	t.Helper()
	cfg, _ := testConfig(t, 2, pol, mech)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(cl.Close)
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return cl, conn
}

func TestFrontEndDropsMalformedFirstRequest(t *testing.T) {
	_, conn := dialCluster(t, "extlard", core.BEForwarding)
	if _, err := conn.Write([]byte("NOT-HTTP GARBAGE\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The front-end must close the connection rather than wedge.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected connection close after malformed request")
	}
}

func TestFrontEndServes404ForUnknownTarget(t *testing.T) {
	_, conn := dialCluster(t, "extlard", core.BEForwarding)
	req := httpmsg.Request{
		Method: "GET", Target: "/no/such/target", Proto: "HTTP/1.1",
		Headers: []httpmsg.Header{{Name: "Host", Value: "x"}},
	}
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("reading 404: %v", err)
	}
	if resp.Status != 404 {
		t.Errorf("status = %d, want 404", resp.Status)
	}
}

func TestFrontEndIdleTimeoutClosesConnection(t *testing.T) {
	sc := trace.SmallSynthConfig()
	sc.Connections = 50
	tr := trace.NewSynth(sc).Generate()
	cfg := cluster.DefaultConfig(1, tr.Sizes)
	cfg.TimeScale = 100
	cfg.CacheBytes = 8 << 20
	cfg.IdleTimeout = 300 * time.Millisecond
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send one valid request, read the response, then go idle.
	var target core.Target
	var size int64
	for tg, sz := range tr.Sizes {
		target, size = tg, sz
		break
	}
	req := httpmsg.Request{Method: "GET", Target: string(target), Proto: "HTTP/1.1"}
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := httpmsg.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != size {
		t.Fatalf("Content-Length %d, want %d", resp.ContentLength, size)
	}
	io.CopyN(io.Discard, br, resp.ContentLength)

	// The front-end's idle timer must now close the connection.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection still open after idle timeout")
	}
}

func TestDocStoreConcurrentOpens(t *testing.T) {
	catalog := map[core.Target]int64{}
	for _, tg := range []core.Target{"/a", "/b", "/c", "/d"} {
		catalog[tg] = 4096
	}
	ds := cluster.NewDocStore(catalog, 16<<10, server.DiskParams{Position: 50, TransferPer512: 1}, 1000)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			targets := []core.Target{"/a", "/b", "/c", "/d"}
			for j := 0; j < 200; j++ {
				if _, err := ds.Open(targets[(i+j)%4]); err != nil {
					t.Errorf("Open: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	h, m := ds.Counters()
	if h+m != 16*200 {
		t.Errorf("counted %d accesses, want %d", h+m, 16*200)
	}
	if ds.DiskQueue() != 0 {
		t.Errorf("disk queue %d after quiescence", ds.DiskQueue())
	}
}

func TestClusterStartValidation(t *testing.T) {
	if _, err := cluster.Start(cluster.Config{Nodes: 0}); err == nil {
		t.Error("accepted 0 nodes")
	}
	if _, err := cluster.Start(cluster.Config{Nodes: 1}); err == nil {
		t.Error("accepted empty catalog")
	}
	cfg := cluster.DefaultConfig(1, map[core.Target]int64{"/x": 1})
	cfg.Policy = "bogus"
	if _, err := cluster.Start(cfg); err == nil {
		t.Error("accepted unknown policy")
	}
}

func TestHTTP10ConnectionClosesAfterResponse(t *testing.T) {
	_, conn := dialCluster(t, "wrr", core.SingleHandoff)
	req := httpmsg.Request{Method: "GET", Target: firstTarget(t), Proto: "HTTP/1.0"}
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	resp, err := httpmsg.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.KeepAlive() {
		t.Error("HTTP/1.0 response advertised keep-alive without the client asking")
	}
	io.CopyN(io.Discard, br, resp.ContentLength)
}

// firstTarget returns a stable target from the small test catalog.
func firstTarget(t *testing.T) string {
	t.Helper()
	sc := trace.SmallSynthConfig()
	tr := trace.NewSynth(sc).Generate()
	var best core.Target
	for tg := range tr.Sizes {
		if best == "" || tg < best {
			best = tg
		}
	}
	return string(best)
}

// twoTargets returns two distinct targets of the small test catalog.
func twoTargets(tr *trace.Trace) (string, string) {
	var ts []string
	for tg := range tr.Sizes {
		ts = append(ts, string(tg))
	}
	sort.Strings(ts)
	return ts[0], ts[1]
}

// readResponses reads n complete responses from br.
func readResponses(t *testing.T, conn net.Conn, br *bufio.Reader, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := httpmsg.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, n, err)
		}
		if resp.Status != 200 {
			t.Fatalf("response %d status %d", i+1, resp.Status)
		}
		if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
			t.Fatalf("response %d body: %v", i+1, err)
		}
	}
}

// A pipelined request whose head arrives in two pieces, the second after
// the batch window, is served: the front-end must not consume the first
// piece while deciding where the batch ends.
func TestSplitRequestAcrossWritesIsServed(t *testing.T) {
	cfg, tr := testConfig(t, 2, "extlard", core.BEForwarding)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	a, b := twoTargets(tr)
	if _, err := io.WriteString(conn, "GET "+a+" HTTP/1.1\r\nHost: cluster\r\n\r\nGET "+b+" HTTP/1.1\r\nHo"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := io.WriteString(conn, "st: cluster\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	readResponses(t, conn, bufio.NewReader(conn), 2)
}

// A batch is dispatched as soon as it has arrived: one request is answered
// long before a (deliberately huge) batch window could expire.
func TestBatchBoundaryNoIdleWait(t *testing.T) {
	cfg, tr := testConfig(t, 2, "extlard", core.BEForwarding)
	cfg.BatchWindow = 300 * time.Millisecond
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	a, _ := twoTargets(tr)
	start := time.Now()
	if _, err := io.WriteString(conn, "GET "+a+" HTTP/1.1\r\nHost: cluster\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	readResponses(t, conn, bufio.NewReader(conn), 1)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("one request took %v with a %v batch window", took, cfg.BatchWindow)
	}
}
