package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/policy"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// serveArg is the first argument that makes the binary a server process.
const serveArg = "serve"

// roleConfig is what the benchmark hands a server process: everything it
// needs to build one cluster node through the cluster package's public
// constructors. The catalog is regenerated from the workload's synthetic
// trace configuration, so every process agrees on target sizes.
type roleConfig struct {
	Role       string // "backend" or "frontend"
	ID         int
	Synth      trace.SynthConfig
	CacheBytes int64
	TimeScale  float64
	Handoff    string // back-end: handoff socket path, relative to the run dir

	Nodes     int
	Policy    string
	Mechanism core.Mechanism
	Frontends int
	State     dstate.Mode
	Backends  []cluster.BackendEndpoints
}

// readyMsg is a server's first line on standard output.
type readyMsg struct {
	Addr string `json:"addr,omitempty"` // front-end client address
	Peer string `json:"peer,omitempty"` // front-end peer or back-end lateral address
	Ctrl string `json:"ctrl,omitempty"` // back-end control address
}

// feStats are a front-end's public counters; the latency buckets are
// those recorded since the last "mark".
type feStats struct {
	Requests     int64      `json:"requests"`
	Connections  int64      `json:"connections"`
	RemoteOpens  int64      `json:"remote_opens"`
	Syncs        int64      `json:"syncs"`
	Fallbacks    int64      `json:"fallbacks"`
	Redispatches int64      `json:"redispatches"`
	Unavailable  int64      `json:"unavailable"`
	BusyNs       int64      `json:"busy_ns"`
	LatBuckets   [][2]int64 `json:"lat_buckets"` // {bucket upper bound µs, count}
}

// beStats are a back-end's public counters.
type beStats struct {
	Served int64 `json:"served"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// serve runs one cluster node until its standard input closes or says
// "quit". It answers one JSON line per command line: "peers <json>",
// "mark", "stats", "cpu", "quit".
func serve(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench serve: want one JSON role config")
		return 2
	}
	var cfg roleConfig
	if err := json.Unmarshal([]byte(args[0]), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve: %v\n", err)
		return 2
	}
	var err error
	switch cfg.Role {
	case "backend":
		err = serveBackend(cfg)
	case "frontend":
		err = serveFrontend(cfg)
	default:
		err = fmt.Errorf("unknown role %q", cfg.Role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve %s %d: %v\n", cfg.Role, cfg.ID, err)
		return 1
	}
	return 0
}

// commands reads command lines and answers each through handle until
// EOF or "quit".
func commands(handle func(cmd, arg string) (any, error)) error {
	out := json.NewEncoder(os.Stdout)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		cmd, arg, _ := strings.Cut(sc.Text(), " ")
		if cmd == "quit" {
			return nil
		}
		var v any
		var err error
		if cmd == "cpu" {
			v = selfUsage()
		} else {
			v, err = handle(cmd, arg)
		}
		if err != nil {
			return err
		}
		if err := out.Encode(v); err != nil {
			return err
		}
	}
	return sc.Err()
}

func serveBackend(cfg roleConfig) error {
	be, err := cluster.NewBackend(cluster.BackendConfig{
		ID:            core.NodeID(cfg.ID),
		Catalog:       trace.NewSynth(cfg.Synth).Sizes(),
		CacheBytes:    cfg.CacheBytes,
		Disk:          server.DefaultDisk(),
		Costs:         server.ApacheCosts(),
		TimeScale:     cfg.TimeScale,
		HandoffSocket: cfg.Handoff,
	})
	if err != nil {
		return err
	}
	defer be.Close()
	if err := json.NewEncoder(os.Stdout).Encode(readyMsg{Ctrl: be.CtrlAddr(), Peer: be.PeerAddr()}); err != nil {
		return err
	}
	return commands(func(cmd, arg string) (any, error) {
		switch cmd {
		case "peers":
			var peers map[core.NodeID]string
			if err := json.Unmarshal([]byte(arg), &peers); err != nil {
				return nil, err
			}
			be.SetPeers(peers)
			return struct{}{}, nil
		case "stats":
			h, m := be.Store().Counters()
			return beStats{Served: be.Served(), Hits: h, Misses: m}, nil
		}
		return nil, fmt.Errorf("unknown command %q", cmd)
	})
}

func serveFrontend(cfg roleConfig) error {
	fecfg := cluster.FrontEndConfig{
		Nodes:       cfg.Nodes,
		Policy:      cfg.Policy,
		Mechanism:   cfg.Mechanism,
		Params:      policy.DefaultParams(),
		CacheBytes:  cfg.CacheBytes,
		IdleTimeout: 15 * time.Second,
		BatchWindow: 2 * time.Millisecond,
	}
	if cfg.Frontends > 1 {
		fecfg.Frontends = cfg.Frontends
		fecfg.FEID = cfg.ID
		fecfg.State = cfg.State
	}
	started := time.Now()
	fe, err := cluster.NewFrontEnd(fecfg, cfg.Backends)
	if err != nil {
		return err
	}
	defer fe.Close()
	if err := json.NewEncoder(os.Stdout).Encode(readyMsg{Addr: fe.Addr(), Peer: fe.PeerAddr()}); err != nil {
		return err
	}
	mark := core.NewLatencyHist()
	return commands(func(cmd, arg string) (any, error) {
		switch cmd {
		case "peers":
			var addrs []string
			if err := json.Unmarshal([]byte(arg), &addrs); err != nil {
				return nil, err
			}
			return struct{}{}, fe.ConnectPeers(addrs)
		case "mark":
			mark = fe.Latency().Clone()
			return struct{}{}, nil
		case "stats":
			lat := fe.Latency().Clone()
			lat.Sub(mark)
			st := feStats{
				Requests:     fe.Requests(),
				Connections:  fe.Connections(),
				RemoteOpens:  fe.RemoteOpens(),
				Syncs:        fe.TierSyncs(),
				Fallbacks:    fe.TierFallbacks(),
				Redispatches: fe.Redispatches(),
				Unavailable:  fe.Unavailable(),
				BusyNs:       int64(fe.Utilization() * float64(time.Since(started))),
			}
			lat.Each(func(_, hi, n int64) { st.LatBuckets = append(st.LatBuckets, [2]int64{hi, n}) })
			return st, nil
		}
		return nil, fmt.Errorf("unknown command %q", cmd)
	})
}
