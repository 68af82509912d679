package cluster_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
)

// TestIdleFrontEndMaintainTicker reproduces the maintenance-staleness bug
// and pins the fix. A single persistent connection pipelines one large
// batch of never-repeated URLs: every target is referenced at once while
// the batch is parsed and in flight, so the capped interner overflows past
// MaxTargets (the documented behavior). After dispatch the references
// drain into a large limbo — and then the front-end goes idle. Close-driven
// maintenance (Spec.MaintainEvery connection closes) never fires because
// nothing closes; before the wall-clock ticker existed, the oversized
// table persisted indefinitely. The ticker must shrink it back to the cap
// without any further traffic.
func TestIdleFrontEndMaintainTicker(t *testing.T) {
	const (
		maxTargets = 128
		uniqueURLs = 600
		// tick is the ticker period. The burst must be answered and
		// checked before the first tick; under a loaded test run the 600
		// responses have taken over a second, so the margin is wide.
		tick = 5 * time.Second
	)
	catalog := make(map[core.Target]int64, uniqueURLs)
	targets := make([]core.Target, uniqueURLs)
	for i := range targets {
		targets[i] = core.Target(fmt.Sprintf("/burst/%04d", i))
		catalog[targets[i]] = 512
	}

	cfg := cluster.DefaultConfig(2, catalog)
	cfg.Policy = "lard"
	cfg.Mechanism = core.SingleHandoff
	cfg.CacheBytes = 256 << 10 // 32 mapping entries per node: held refs stay far below the cap
	cfg.MaxTargets = maxTargets
	cfg.SimulateCPU = false
	cfg.TimeScale = 200
	// The burst is written in one write, so it arrives as one batch and
	// all parse-time references overlap; the generous batch window also
	// rides out a head split across TCP segments. The ticker interval
	// leaves room to observe the bloated table before the first tick.
	cfg.BatchWindow = 200 * time.Millisecond
	cfg.MaintainInterval = tick
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
	var sb strings.Builder
	for _, tgt := range targets {
		fmt.Fprintf(&sb, "GET %s HTTP/1.1\r\nHost: cluster\r\n\r\n", tgt)
	}
	if _, err := io.WriteString(conn, sb.String()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	for i := 0; i < uniqueURLs; i++ {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		resp, err := httpmsg.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
			t.Fatalf("response %d body: %v", i, err)
		}
	}

	// All responses are in, so the batch was dispatched and its parse
	// references released into limbo. Nothing has closed: the table must
	// still be bloated past the cap (this is the bug scenario).
	eng := cl.FE.Engine()
	in := eng.Interner()
	if n := eng.Maintains(); n != 0 {
		t.Fatalf("the ticker already ran %d maintenance passes before the overflow check; the burst took longer than the %v tick", n, tick)
	}
	if got := in.Len(); got <= maxTargets {
		t.Fatalf("burst did not overflow the interner (len %d, cap %d); the scenario needs simultaneous in-flight references", got, maxTargets)
	}
	if closes := eng.Closes(); closes != 0 {
		t.Fatalf("unexpected connection closes (%d); close-driven maintenance would mask the ticker", closes)
	}

	// The connection stays open and idle. Only the wall-clock ticker can
	// compact now.
	deadline := time.Now().Add(tick + 10*time.Second)
	for time.Now().Before(deadline) {
		if in.Len() <= maxTargets {
			if limbo := in.Limbo(); limbo > maxTargets {
				t.Errorf("limbo %d exceeds cap %d after compaction", limbo, maxTargets)
			}
			if closes := eng.Closes(); closes != 0 || eng.Maintains() == 0 {
				t.Errorf("compaction not by the ticker alone: %d closes, %d maintenance passes", closes, eng.Maintains())
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("idle front-end never compacted: interner holds %d targets, cap %d", in.Len(), maxTargets)
}

// TestFrontEndNoTickerWhenDisabled pins the opt-out: with a zero
// MaintainInterval the bloated table persists (the pre-fix behavior),
// which is what benchmark configurations that never idle rely on to avoid
// a background goroutine.
func TestFrontEndNoTickerWhenDisabled(t *testing.T) {
	const maxTargets = 64
	catalog := make(map[core.Target]int64)
	var targets []core.Target
	for i := 0; i < 300; i++ {
		tgt := core.Target(fmt.Sprintf("/burst/%04d", i))
		targets = append(targets, tgt)
		catalog[tgt] = 512
	}
	cfg := cluster.DefaultConfig(1, catalog)
	cfg.Policy = "lard"
	cfg.Mechanism = core.SingleHandoff
	cfg.CacheBytes = 256 << 10
	cfg.MaxTargets = maxTargets
	cfg.SimulateCPU = false
	cfg.TimeScale = 200
	cfg.BatchWindow = 200 * time.Millisecond
	cfg.MaintainInterval = 0
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
	var sb strings.Builder
	for _, tgt := range targets {
		fmt.Fprintf(&sb, "GET %s HTTP/1.1\r\nHost: cluster\r\n\r\n", tgt)
	}
	if _, err := io.WriteString(conn, sb.String()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	for i := range targets {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		resp, err := httpmsg.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
			t.Fatal(err)
		}
	}
	in := cl.FE.Engine().Interner()
	before := in.Len()
	if before <= maxTargets {
		t.Fatalf("burst did not overflow the interner (len %d)", before)
	}
	time.Sleep(300 * time.Millisecond)
	if got := in.Len(); got != before {
		t.Errorf("table changed from %d to %d with the ticker disabled", before, got)
	}
}
