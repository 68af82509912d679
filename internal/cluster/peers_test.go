package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
)

// newTestPeerTier builds one sharded tier member with its own policy and
// interner, listener bound but links not yet established.
func newTestPeerTier(t *testing.T, fe, frontends, nodes int) (*peerTier, *core.Interner) {
	t.Helper()
	pol, err := dispatch.Build(dispatch.Spec{Policy: "lard", Nodes: nodes, CacheBytes: 8 << 20})
	if err != nil {
		t.Fatalf("build policy: %v", err)
	}
	tier, err := newPeerTier(FrontEndConfig{
		Nodes: nodes, Frontends: frontends, FEID: fe,
		State: dstate.ModeSharded, SyncInterval: 5 * time.Millisecond,
	}, pol)
	if err != nil {
		t.Fatalf("newPeerTier fe %d: %v", fe, err)
	}
	in := core.NewInterner()
	tier.finishInit(in)
	return tier, in
}

// waitFor polls cond until it holds or the deadline passes (the sharded
// PCLOSE/PMOVE RPCs are fire-and-forget, so owner-side effects land
// asynchronously).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPeerTierShardedRPCs drives the full sharded state-transaction
// surface over a real two-member tier: remote open (POPEN/PNODE),
// pinned batch assignment, move (PMOVE) and close (PCLOSE) on the owner,
// the local-owner fast path, and — after the owner dies — the
// availability-first fallback with its counter.
func TestPeerTierShardedRPCs(t *testing.T) {
	const nodes = 2
	t0, in0 := newTestPeerTier(t, 0, 2, nodes)
	defer t0.Close()
	t1, _ := newTestPeerTier(t, 1, 2, nodes)
	if err := t0.connect([]string{"", t1.Addr()}); err != nil {
		t.Fatalf("fe0 connect: %v", err)
	}
	if err := t1.connect([]string{t0.Addr(), ""}); err != nil {
		t.Fatalf("fe1 connect: %v", err)
	}
	if t0.Mode() != dstate.ModeSharded {
		t.Fatalf("Mode = %v", t0.Mode())
	}

	// One target owned by each member (the ring spreads a handful of
	// distinct names across two front-ends).
	var remoteReq, localReq core.Request
	for i := 0; remoteReq.Target == "" || localReq.Target == ""; i++ {
		if i > 4096 {
			t.Fatal("owner ring never produced both owners")
		}
		tg := core.Target(fmt.Sprintf("/obj/%d", i))
		r := core.Request{Target: tg, ID: in0.Intern(tg), Size: 4096}
		if t0.Owner(r.ID) == 1 && remoteReq.Target == "" {
			remoteReq = r
		}
		if t0.Owner(r.ID) == 0 && localReq.Target == "" {
			localReq = r
		}
	}

	ownerConns := func(tier *peerTier) int {
		total := 0
		for n := 0; n < nodes; n++ {
			total += tier.pol.Loads().LocalConns(core.NodeID(n))
		}
		return total
	}

	// Remote-owned connection: the open RPC is synchronous, so by return
	// the owner's shard carries the charge and we know the node.
	rc := core.NewConnState(1)
	n := t0.ConnOpen(rc, remoteReq)
	if rc.OwnerFE != 1 || t0.remoteOpens.Load() != 1 {
		t.Fatalf("remote open: OwnerFE %d remoteOpens %d", rc.OwnerFE, t0.remoteOpens.Load())
	}
	if got := ownerConns(t1); got != 1 {
		t.Fatalf("owner charges %d conns after open, want 1", got)
	}
	as := t0.AssignBatch(rc, core.Batch{remoteReq, remoteReq})
	for i, a := range as {
		if a.Node != rc.Handling {
			t.Fatalf("assignment %d went to %d, not the pinned node %d", i, a.Node, rc.Handling)
		}
	}
	t0.BatchDone(rc) // remote-owned: must be a safe no-op
	to := core.NodeID((int(n) + 1) % nodes)
	t0.MoveConn(rc, to)
	if rc.Handling != to {
		t.Fatalf("MoveConn left Handling at %d", rc.Handling)
	}
	waitFor(t, "PMOVE to land on the owner", func() bool {
		return t1.pol.Loads().LocalConns(to) == 1
	})
	t0.ConnClose(rc)
	waitFor(t, "PCLOSE to land on the owner", func() bool {
		return ownerConns(t1) == 0
	})

	// Locally owned connection: the whole lifecycle stays on our shard.
	lc := core.NewConnState(2)
	ln := t0.ConnOpen(lc, localReq)
	if lc.OwnerFE != 0 || ownerConns(t0) != 1 {
		t.Fatalf("local open: OwnerFE %d, %d conns", lc.OwnerFE, ownerConns(t0))
	}
	t0.AssignBatch(lc, core.Batch{localReq})
	t0.BatchDone(lc)
	t0.MoveConn(lc, core.NodeID((int(ln)+1)%nodes))
	t0.ReportDiskQueue(0, 3)
	t0.ConnClose(lc)
	if got := ownerConns(t0); got != 0 {
		t.Fatalf("local close left %d conns charged", got)
	}

	// Owner death: opens fall back to local decisions, fire-and-forget
	// transactions count fallbacks instead of blocking.
	t1.Close()
	rc2 := core.NewConnState(3)
	t0.ConnOpen(rc2, remoteReq)
	if rc2.OwnerFE != 0 {
		t.Fatalf("fallback open: OwnerFE %d, want local 0", rc2.OwnerFE)
	}
	orphan := core.NewConnState(4)
	orphan.OwnerFE = 1
	orphan.Handling = 0
	t0.MoveConn(orphan, 1)
	t0.ConnClose(orphan)
	if got := t0.Fallbacks(); got < 3 {
		t.Fatalf("Fallbacks = %d, want >= 3 (open, move, close)", got)
	}
	t0.ConnClose(rc2)
}

// TestPeerTierReleasesDepartedOrigin pins the owner-side cleanup: a
// connection opened on the owner's shard by a peer stays charged only as
// long as that peer's session. Once the origin closes, its link never
// redials, so no PCLOSE can arrive; the owner must release the charge
// and the interner reference itself when the session ends.
func TestPeerTierReleasesDepartedOrigin(t *testing.T) {
	const nodes = 2
	t0, in0 := newTestPeerTier(t, 0, 2, nodes)
	t1, _ := newTestPeerTier(t, 1, 2, nodes)
	defer t1.Close()
	if err := t0.connect([]string{"", t1.Addr()}); err != nil {
		t.Fatalf("fe0 connect: %v", err)
	}
	var req core.Request
	for i := 0; req.Target == ""; i++ {
		tg := core.Target(fmt.Sprintf("/obj/%d", i))
		if r := (core.Request{Target: tg, ID: in0.Intern(tg), Size: 4096}); t0.Owner(r.ID) == 1 {
			req = r
		}
	}
	ownerConns := func() int {
		total := 0
		for n := 0; n < nodes; n++ {
			total += t1.pol.Loads().LocalConns(core.NodeID(n))
		}
		return total
	}
	for id := core.ConnID(1); id <= 3; id++ {
		if t0.ConnOpen(core.NewConnState(id), req); ownerConns() != int(id) {
			t.Fatalf("owner charges %d conns after %d remote opens", ownerConns(), id)
		}
	}
	t0.Close()
	waitFor(t, "the owner to release the departed origin's connections", func() bool {
		return ownerConns() == 0
	})
	t1.rmu.Lock()
	left := len(t1.remote)
	t1.rmu.Unlock()
	if left != 0 {
		t.Errorf("%d remote connections still tracked after the origin left", left)
	}
}

// TestPeerTierSessionValidation drives raw inbound sessions: a HELLO that
// names no valid peer, or ourselves, is refused, and a transaction that
// names another origin than the session's drops the session (releasing
// what it opened).
func TestPeerTierSessionValidation(t *testing.T) {
	const nodes = 2
	owner, _ := newTestPeerTier(t, 1, 3, nodes)
	defer owner.Close()
	dial := func(hello string) (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", owner.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := io.WriteString(conn, hello); err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	// closed reports whether the owner dropped the session: a probe open
	// gets no PNODE reply.
	closed := func(conn net.Conn, br *bufio.Reader, origin string) bool {
		fmt.Fprintf(conn, "POPEN %s 99 10 /probe\n", origin)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := br.ReadString('\n')
		return err != nil
	}
	for _, hello := range []string{
		"HELLO PEER\n", "HELLO PEER x\n", "HELLO PEER -1\n",
		"HELLO PEER 3\n", "HELLO PEER 1\n", "HELLO PEER 0 extra\n",
	} {
		conn, br := dial(hello)
		if !closed(conn, br, "0") {
			t.Errorf("%q was accepted", strings.TrimSpace(hello))
		}
	}

	conn, br := dial("HELLO PEER 0\n")
	if closed(conn, br, "0") {
		t.Fatal("valid session refused")
	}
	fmt.Fprintf(conn, "PCLOSE 2 99\n") // names another origin
	waitFor(t, "the mismatched session to be dropped and released", func() bool {
		owner.rmu.Lock()
		defer owner.rmu.Unlock()
		return len(owner.remote) == 0
	})
	if !closed(conn, br, "0") {
		t.Error("session survived a transaction naming another origin")
	}
}

// TestPeerTierRejectsBadReplicaInput feeds the replicated handlers lines
// that parse but carry values no peer can legitimately send — non-finite
// or negative loads, negative connection counts, negative sizes — and
// demands that each leaves the tier's peer state untouched.
func TestPeerTierRejectsBadReplicaInput(t *testing.T) {
	const nodes = 2
	pol, err := dispatch.Build(dispatch.Spec{Policy: "lard", Nodes: nodes, CacheBytes: 8 << 20})
	if err != nil {
		t.Fatalf("build policy: %v", err)
	}
	tier, err := newPeerTier(FrontEndConfig{
		Nodes: nodes, Frontends: 2, FEID: 0, State: dstate.ModeReplicated,
	}, pol)
	if err != nil {
		t.Fatalf("newPeerTier: %v", err)
	}
	defer tier.Close()
	in := core.NewInterner()
	tier.finishInit(in)
	mapping := pol.(dstate.MappingPolicy).Mapping()

	// A valid vector and delta first, so "unchanged" is not the zero state.
	tier.handleLoadVector(strings.Fields("1 2 1.5 2 0.5 1"))
	tier.handleMapDelta(strings.Fields("1 4096 /good"))
	if !mapping.IsMapped(in.Intern("/good"), 1) || pol.Loads().Load(0) != 1.5 {
		t.Fatal("valid replica input was not applied")
	}

	type snapshot struct {
		Loads   []float64
		Conns   []int
		Bytes   []int64
		Targets []int
		Peer    [][]float64
		PeerC   [][]int64
	}
	snap := func() snapshot {
		var s snapshot
		for n := 0; n < nodes; n++ {
			s.Loads = append(s.Loads, pol.Loads().Load(core.NodeID(n)))
			s.Conns = append(s.Conns, pol.Loads().Conns(core.NodeID(n)))
			s.Bytes = append(s.Bytes, mapping.MappedBytes(core.NodeID(n)))
			s.Targets = append(s.Targets, mapping.MappedTargets(core.NodeID(n)))
		}
		tier.lmu.Lock()
		for f := range tier.peerLoads {
			s.Peer = append(s.Peer, append([]float64(nil), tier.peerLoads[f]...))
			s.PeerC = append(s.PeerC, append([]int64(nil), tier.peerConns[f]...))
		}
		tier.lmu.Unlock()
		return s
	}
	want := snap()

	for _, tc := range []struct {
		verb, line string
	}{
		{"PLOADV", "1 2 NaN 2 0.5 1"},
		{"PLOADV", "1 2 1.5 2 nan 1"},
		{"PLOADV", "1 2 +Inf 2 0.5 1"},
		{"PLOADV", "1 2 1.5 2 -Inf 1"},
		{"PLOADV", "1 2 inf 2 0.5 1"},
		{"PLOADV", "1 2 -0.5 2 0.5 1"},
		{"PLOADV", "1 2 1.5 -2 0.5 1"},
		{"PLOADV", "1 2 1.5 2 0.5 -1"},
		{"PMAPD", "0 -1 /bad"},
		{"PMAPD", "1 -4096 /good"},
		{"POPEN", "1 7 -1 /bad"},
	} {
		args := strings.Fields(tc.line)
		switch tc.verb {
		case "PLOADV":
			tier.handleLoadVector(args)
		case "PMAPD":
			tier.handleMapDelta(args)
		case "POPEN":
			if _, ok := tier.handleOpen(nil, args); ok {
				t.Errorf("POPEN %s accepted", tc.line)
			}
		}
		if got := snap(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s changed peer state:\n got %+v\nwant %+v", tc.verb, tc.line, got, want)
		}
	}
	if mapping.IsMapped(in.Intern("/bad"), 0) {
		t.Error("negative-size delta mapped its target")
	}
}
