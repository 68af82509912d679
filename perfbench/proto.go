package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/trace"
)

// protoWorkload is one prototype-cluster configuration. Both run with the
// modeled CPU off, 3 back-ends and 2 closed-loop clients (2 = the nproc
// of the machine the benchmark was tuned on), one process per cluster
// role.
type protoWorkload struct {
	name       string
	frontends  int
	state      dstate.Mode
	policy     string
	mech       core.Mechanism
	http10     bool
	cacheBytes int64
	// timeScale divides the modeled disk latency.
	timeScale float64
}

const (
	protoBackends = 3
	protoClients  = 2
	// protoConns is the trace length. Measured windows replay the trace
	// cyclically after a warm-up pass over all of it, so every window
	// sees caches and mapping tables in the same steady state: measuring
	// during the first pass instead lets the share of first-time targets,
	// which falls as the pass goes on, set the result.
	protoConns = 1000
	// warmupClients replay the warm-up pass; more than the measured
	// clients, so the pass takes a few seconds.
	warmupClients = 8
	// clusterRounds is how many fresh clusters a run sets up and
	// measures in turn.
	clusterRounds = 3
)

// phttpHot is decided by the per-request path: pipelined P-HTTP batches,
// extended LARD with back-end forwarding, and caches that hold the whole
// working set (the disk model is scaled to nothing).
var phttpHot = protoWorkload{
	name: "phttp-hot", frontends: 1, policy: "extlard", mech: core.BEForwarding,
	cacheBytes: 256 << 20, timeScale: 1e6,
}

// http10Tier pays for a connection per request: accept, socket handoff,
// sharded dispatch state across two front-ends (a remote-open RPC when
// the peer owns the target), and modeled disk reads behind caches well
// under the working set.
var http10Tier = protoWorkload{
	name: "http10-tier", frontends: 2, state: dstate.ModeSharded, policy: "lard",
	mech: core.SingleHandoff, http10: true, cacheBytes: 8 << 20, timeScale: 25,
}

// tailProb is the share of responses whose size comes from the Pareto
// tail. The default, 1%, puts the p99 latency on the edge between body
// and tail responses, where a seed's share of tail requests, 1% give or
// take its sampling error, decides which of the two the p99 reads. Half
// that keeps the p99 inside the body of the size distribution.
const tailProb = 0.005

// synthConfig is the trace the prototype workloads replay.
func synthConfig(seed uint64, smoke bool) trace.SynthConfig {
	cfg := trace.DefaultSynthConfig()
	cfg.Seed = seed
	cfg.Connections = protoConns
	cfg.TailProb = tailProb
	if smoke {
		cfg = trace.SmallSynthConfig()
		cfg.Seed = seed
		cfg.Connections = 300
	}
	return cfg
}

// runProto measures one prototype workload on clusterRounds fresh
// clusters in turn. Each round generates the trace and brings a cluster up
// (timed as set-up), replays the whole trace once to warm it, and measures
// one window of its share of the run's seconds; a traced run follows with
// a traced window of the same length. The end-to-end metrics pool the
// slices of every round's window, so no one cluster's luck — where its
// processes landed, how its heaps grew — sets the result. After the last
// round a traced run replays the workload's inputs through each layer.
func runProto(w protoWorkload, o options) (*report, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rounds := clusterRounds
	if o.smoke {
		rounds = 1
	}
	runDir := filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	scfg := synthConfig(o.seed, o.smoke)
	d := seconds(o) / time.Duration(rounds)
	var (
		setups, gens, flats, rss, feRSS, beRSS []float64
		plain, traced                          []*window
		tra                                    *trace.Trace
		cli                                    *client
	)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		gens = append(gens, tr.timed("trace.gen", func() { tra = trace.NewSynth(scfg).Generate() }).Seconds())
		conns := tra.Conns
		if w.http10 {
			flats = append(flats, tr.timed("trace.flatten", func() { conns = tra.Flatten10().Conns }).Seconds())
		}
		var cl *procCluster
		var err error
		tr.timed("cluster.start", func() { cl, err = startCluster(w, scfg, runDir, i) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cli = newClient(cl.feAddrs, conns, w.http10)
		p, t, err := cl.measure(cli, d, tr, rep)
		if err == nil {
			var all, fe, be float64
			if all, fe, be, err = cl.peakRSS(); err == nil {
				rss, feRSS, beRSS = append(rss, all), append(feRSS, fe), append(beRSS, be)
			}
		}
		if serr := cl.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		if t != nil {
			traced = append(traced, t)
		}
	}
	rep.e2e["setup_s"] = value{v: median(setups), n: int64(len(setups)), base: "median over clusters"}
	rep.e2e["peak_rss_mb"] = value{v: median(rss), n: int64(len(rss)),
		base: "median over clusters of the server processes' summed VmHWM"}
	rep.layer["cluster.fe_rss_mb"] = value{v: median(feRSS), n: int64(len(feRSS))}
	rep.layer["cluster.be_rss_mb"] = value{v: median(beRSS), n: int64(len(beRSS))}
	rep.layer["trace.gen_s"] = value{v: median(gens), n: int64(len(gens))}
	if len(flats) > 0 {
		rep.layer["trace.flatten_s"] = value{v: median(flats), n: int64(len(flats))}
	}
	pe := e2eMetrics(plain, rep)
	if o.trace {
		layerMetrics(traced, rep)
		te := pooledE2E(traced)
		addOverhead(rep, pe.reqPerS, te.reqPerS, pe.p50, te.p50)
		replayLayers(w, tra, cli.conns, cli.wire, tr, rep)
		rep.spans = tr.snapshot()
		addSelfTimes(rep, rep.spans)
	}
	return rep, nil
}

// measure warms a fresh cluster with one pass over the trace, measures an
// untraced window of length d and, with a tracer, a traced one, and checks
// the cluster's counters against everything the client verified.
func (cl *procCluster) measure(cli *client, d time.Duration, tr *tracer, rep *report) (plain, traced *window, err error) {
	total := cli.pass(warmupClients)
	plain, err = cl.window(d, func() windowStats { return cli.run(protoClients, d, nil) })
	if err != nil {
		return nil, nil, err
	}
	total.merge(&plain.client)
	if tr != nil {
		if traced, err = cl.window(d, func() windowStats { return cli.run(protoClients, d, tr) }); err != nil {
			return nil, nil, err
		}
		total.merge(&traced.client)
	}
	rep.attempted += total.attempted
	rep.failed += total.failed
	for _, p := range total.problems {
		rep.fail(0, "client: %s", p)
	}
	return plain, traced, cl.checkCounters(total, rep)
}

func seconds(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// proc is one server process and its command pipe.
type proc struct {
	name string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Scanner
}

// spawn starts this binary in the serve role and waits for its ready line.
func spawn(dir, name string, cfg roleConfig, ready *readyMsg) (*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, serveArg, string(arg))
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	// A benchmark killed mid-run must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, in: in, out: bufio.NewScanner(out)}
	p.out.Buffer(make([]byte, 64<<10), 4<<20)
	if err := p.reply(ready); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// reply decodes the process's next output line into v.
func (p *proc) reply(v any) error {
	if !p.out.Scan() {
		if err := p.out.Err(); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		return fmt.Errorf("%s: exited", p.name)
	}
	if err := json.Unmarshal(p.out.Bytes(), v); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	return nil
}

// call sends one command line and decodes the answer into v.
func (p *proc) call(cmd string, v any) error {
	if _, err := io.WriteString(p.in, cmd+"\n"); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	var discard struct{}
	if v == nil {
		v = &discard
	}
	return p.reply(v)
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// quit asks the process to shut down and waits for it; one that does not
// exit within a few seconds is killed.
func (p *proc) quit() error {
	io.WriteString(p.in, "quit\n")
	p.in.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		return nil
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s: did not exit, killed", p.name)
	}
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// procCluster is a running cluster of server processes.
type procCluster struct {
	fes, bes []*proc
	feAddrs  []string
}

// startCluster brings up the back-ends, wires their lateral-fetch peers,
// then starts the front-ends (which connect to every back-end) and links
// the front-end tier. round keeps handoff socket names unique per setup.
func startCluster(w protoWorkload, scfg trace.SynthConfig, dir string, round int) (*procCluster, error) {
	cl := &procCluster{}
	eps := make([]cluster.BackendEndpoints, protoBackends)
	peers := map[core.NodeID]string{}
	for i := 0; i < protoBackends; i++ {
		sock := fmt.Sprintf("r%d-be%d.sock", round, i)
		var ready readyMsg
		p, err := spawn(dir, fmt.Sprintf("backend %d", i), roleConfig{
			Role: "backend", ID: i, Synth: scfg, CacheBytes: w.cacheBytes,
			TimeScale: w.timeScale, Handoff: sock,
		}, &ready)
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.bes = append(cl.bes, p)
		eps[i] = cluster.BackendEndpoints{Ctrl: ready.Ctrl, Handoff: sock}
		peers[core.NodeID(i)] = ready.Peer
	}
	pj, _ := json.Marshal(peers)
	for _, p := range cl.bes {
		if err := p.call("peers "+string(pj), nil); err != nil {
			cl.stop()
			return nil, err
		}
	}
	var peerAddrs []string
	for f := 0; f < w.frontends; f++ {
		var ready readyMsg
		p, err := spawn(dir, fmt.Sprintf("frontend %d", f), roleConfig{
			Role: "frontend", ID: f, Nodes: protoBackends, Policy: w.policy, Mechanism: w.mech,
			CacheBytes: w.cacheBytes, Frontends: w.frontends, State: w.state, Backends: eps,
		}, &ready)
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.fes = append(cl.fes, p)
		cl.feAddrs = append(cl.feAddrs, ready.Addr)
		peerAddrs = append(peerAddrs, ready.Peer)
	}
	if w.frontends > 1 {
		aj, _ := json.Marshal(peerAddrs)
		for _, p := range cl.fes {
			if err := p.call("peers "+string(aj), nil); err != nil {
				cl.stop()
				return nil, err
			}
		}
	}
	return cl, nil
}

// stop shuts the front-ends down first (no new traffic), then the
// back-ends, and waits for every process.
func (cl *procCluster) stop() error {
	var first error
	for _, p := range append(append([]*proc(nil), cl.fes...), cl.bes...) {
		if err := p.quit(); err != nil && first == nil {
			first = err
		}
	}
	cl.fes, cl.bes = nil, nil
	return first
}

// usageSample is every server process's CPU usage at one instant.
type usageSample struct {
	at     time.Time
	fe, be []usage
}

func (cl *procCluster) usage() (usageSample, error) {
	s := usageSample{at: time.Now()}
	for _, p := range cl.fes {
		var u usage
		if err := p.call("cpu", &u); err != nil {
			return s, err
		}
		s.fe = append(s.fe, u)
	}
	for _, p := range cl.bes {
		var u usage
		if err := p.call("cpu", &u); err != nil {
			return s, err
		}
		s.be = append(s.be, u)
	}
	return s, nil
}

// cpuDelta is the CPU the processes used between two samples.
func cpuDelta(before, end []usage) time.Duration {
	var ns int64
	for i := range end {
		ns += end[i].CPUNs - before[i].CPUNs
	}
	return time.Duration(ns)
}

// snapshot is the cluster's counters at one instant.
type snapshot struct {
	usage usageSample
	fe    []feStats
	be    []beStats
}

func (cl *procCluster) snap() (snapshot, error) {
	var s snapshot
	for _, p := range cl.fes {
		var st feStats
		if err := p.call("stats", &st); err != nil {
			return s, err
		}
		s.fe = append(s.fe, st)
	}
	for _, p := range cl.bes {
		var st beStats
		if err := p.call("stats", &st); err != nil {
			return s, err
		}
		s.be = append(s.be, st)
	}
	var err error
	s.usage, err = cl.usage()
	return s, err
}

// slicesPerWindow is how many slices a measured window is cut into.
// Each end-to-end metric is the median over slices, so a burst of
// interference from outside the benchmark moves one slice rather than
// the result.
const slicesPerWindow = 3

// window is one measured interval: the client's view, the cluster's
// counters before and after, and CPU usage at every slice boundary.
type window struct {
	client      windowStats
	before, end snapshot
	ticks       []usageSample
}

// window marks the front-ends' latency histograms, snapshots, runs f
// while sampling CPU usage every slice, and snapshots again.
func (cl *procCluster) window(d time.Duration, f func() windowStats) (*window, error) {
	for _, p := range cl.fes {
		if err := p.call("mark", nil); err != nil {
			return nil, err
		}
	}
	w := &window{}
	var err error
	if w.before, err = cl.snap(); err != nil {
		return nil, err
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		t := time.NewTicker(d / slicesPerWindow)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-t.C:
				u, err := cl.usage()
				if err != nil {
					done <- err
					return
				}
				w.ticks = append(w.ticks, u)
			}
		}
	}()
	w.client = f()
	close(stop)
	if err := <-done; err != nil {
		return nil, err
	}
	if w.end, err = cl.snap(); err != nil {
		return nil, err
	}
	return w, nil
}

// slice is one sampled interval of a window and the requests that
// completed in it.
type slice struct {
	start, end time.Time
	fe, be     time.Duration
	lat        []time.Duration
}

// slices cuts the window at its CPU samples. The drain after the last
// sample, when the clients stop starting connections, is left out.
func (w *window) slices() []slice {
	bounds := append([]usageSample{w.before.usage}, w.ticks...)
	ss := make([]slice, len(bounds)-1)
	for k := range ss {
		ss[k] = slice{start: bounds[k].at, end: bounds[k+1].at,
			fe: cpuDelta(bounds[k].fe, bounds[k+1].fe), be: cpuDelta(bounds[k].be, bounds[k+1].be)}
	}
	for i, t := range w.client.done {
		k := sort.Search(len(ss), func(k int) bool { return ss[k].end.After(t) })
		if k < len(ss) && !t.Before(ss[k].start) {
			ss[k].lat = append(ss[k].lat, w.client.lat[i])
		}
	}
	return ss
}

// e2e holds end-to-end figures, each the median over slices.
type e2e struct {
	reqPerS, p50, p99, fe, be float64
	slices                    int
	reqs                      int64
}

// pooledE2E takes every slice of every window as one sample.
func pooledE2E(ws []*window) e2e {
	var rps, p50, p99, fe, be []float64
	var e e2e
	for _, w := range ws {
		for _, s := range w.slices() {
			n := len(s.lat)
			if n == 0 {
				continue
			}
			e.slices++
			e.reqs += int64(n)
			rps = append(rps, float64(n)/s.end.Sub(s.start).Seconds())
			p50 = append(p50, durQuantile(s.lat, 0.5, time.Millisecond))
			p99 = append(p99, durQuantile(s.lat, 0.99, time.Millisecond))
			fe = append(fe, float64(s.fe)/float64(time.Microsecond)/float64(n))
			be = append(be, float64(s.be)/float64(time.Microsecond)/float64(n))
		}
	}
	e.reqPerS, e.p50, e.p99, e.fe, e.be = median(rps), median(p50), median(p99), median(fe), median(be)
	return e
}

// e2eMetrics reports the end-to-end metrics of the untraced windows. The
// p99 latency and the CPU per request are reported beside them as
// per-layer figures: on the shared 2-CPU host they spread too far from
// run to run to carry a bound (see README.md).
func e2eMetrics(ws []*window, rep *report) e2e {
	e := pooledE2E(ws)
	base := fmt.Sprintf("median of %d slices from %d clusters holding %d requests", e.slices, len(ws), e.reqs)
	rep.e2e["req_per_s"] = value{v: e.reqPerS, n: e.reqs, base: base}
	rep.e2e["latency_p50_ms"] = value{v: e.p50, n: e.reqs, base: base}
	rep.layer["client.latency_p99_ms"] = value{v: e.p99, n: e.reqs, base: base}
	rep.layer["cluster.fe_cpu_us_per_req"] = value{v: e.fe, n: e.reqs, base: "front-end processes, " + base}
	rep.layer["cluster.be_cpu_us_per_req"] = value{v: e.be, n: e.reqs, base: "back-end processes, " + base}
	return e
}

// layerMetrics reports the client and cluster layers from the traced
// windows, summing the cluster counters' changes over them.
func layerMetrics(ws []*window, rep *report) {
	var c windowStats
	lat := core.NewLatencyHist()
	var reqs, conns, remote, syncs, fallbacks, redisp, unavail, busy, ctxsw int64
	var hits, misses, served, maxServed int64
	perBE := map[int]int64{}
	var wall time.Duration
	var nfe int
	for _, w := range ws {
		c.merge(&w.client)
		for i, e := range w.end.fe {
			b := w.before.fe[i]
			for _, bk := range e.LatBuckets {
				for k := int64(0); k < bk[1]; k++ {
					lat.Record(bk[0])
				}
			}
			reqs += e.Requests - b.Requests
			conns += e.Connections - b.Connections
			remote += e.RemoteOpens - b.RemoteOpens
			syncs += e.Syncs - b.Syncs
			fallbacks += e.Fallbacks - b.Fallbacks
			redisp += e.Redispatches - b.Redispatches
			unavail += e.Unavailable - b.Unavailable
			busy += e.BusyNs - b.BusyNs
			ctxsw += w.end.usage.fe[i].Ctxsw - w.before.usage.fe[i].Ctxsw
		}
		nfe = len(w.end.fe)
		wall += w.end.usage.at.Sub(w.before.usage.at)
		for i, e := range w.end.be {
			b := w.before.be[i]
			hits += e.Hits - b.Hits
			misses += e.Misses - b.Misses
			served += e.Served - b.Served
			perBE[i] += e.Served - b.Served
		}
	}
	for _, n := range perBE {
		maxServed = max(maxServed, n)
	}
	n := int64(len(c.lat))
	rep.layer["client.connect_us_p50"] = value{v: durQuantile(c.connect, 0.5, time.Microsecond), n: int64(len(c.connect))}
	rep.layer["client.ttfb_ms_p50"] = value{v: durQuantile(c.ttfb, 0.5, time.Millisecond), n: n}
	rep.layer["client.transfer_us_p50"] = value{v: durQuantile(c.transfer, 0.5, time.Microsecond), n: n}
	rep.layer["cluster.fe_latency_p50_ms"] = value{v: float64(lat.Quantile(0.5)) / 1e3, n: lat.Count()}
	rep.layer["cluster.fe_latency_p99_ms"] = value{v: float64(lat.Quantile(0.99)) / 1e3, n: lat.Count()}
	rep.layer["cluster.fe_busy_frac"] = value{v: frac(float64(busy), float64(wall)*float64(nfe)), n: int64(nfe),
		base: fmt.Sprintf("dispatcher busy time over %d front-ends x %.3f s", nfe, wall.Seconds())}
	rep.layer["cluster.fe_ctxsw_per_req"] = value{v: frac(float64(ctxsw), float64(reqs)), n: reqs,
		base: fmt.Sprintf("%d context switches over %d front-end requests", ctxsw, reqs)}
	rep.layer["cluster.tier_remote_open_frac"] = value{v: frac(float64(remote), float64(conns)), n: conns,
		base: fmt.Sprintf("%d remote opens of %d connections", remote, conns)}
	rep.layer["cluster.tier_fallbacks"] = value{v: float64(fallbacks), n: conns}
	rep.layer["cluster.tier_syncs"] = value{v: float64(syncs), n: conns}
	rep.layer["cluster.redispatches"] = value{v: float64(redisp), n: reqs}
	rep.layer["cluster.unavailable"] = value{v: float64(unavail), n: conns}
	rep.layer["cluster.be_hit_ratio"] = value{v: frac(float64(hits), float64(hits+misses)), n: hits + misses,
		base: fmt.Sprintf("%d hits of %d lookups", hits, hits+misses)}
	rep.layer["cluster.be_served_max_share"] = value{v: frac(float64(maxServed), float64(served)), n: served,
		base: fmt.Sprintf("busiest back-end served %d of %d", maxServed, served)}
}

// checkCounters compares the client's verified count with the
// front-ends' request counters and the back-ends' Served sum; a mismatch
// counts as failed operations. The servers' counters settle just after
// the client reads the last byte, so they are polled briefly.
func (cl *procCluster) checkCounters(total windowStats, rep *report) error {
	var fe, be int64
	for try := 0; try < 20; try++ {
		s, err := cl.snap()
		if err != nil {
			return err
		}
		fe, be = 0, 0
		for _, st := range s.fe {
			fe += st.Requests
		}
		for _, st := range s.be {
			be += st.Served
		}
		if fe == total.completed && be == total.completed {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	if total.failed > 0 {
		// Requests the client could not verify may still have been
		// served; they are already counted as failed.
		return nil
	}
	diff := max(abs(fe-total.completed), abs(be-total.completed))
	rep.fail(diff, "counters disagree: client verified %d, front-ends assigned %d, back-ends served %d",
		total.completed, fe, be)
	return nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// peakRSS sums VmHWM over the server processes, in MB: all, front-ends,
// back-ends.
func (cl *procCluster) peakRSS() (all, fe, be float64, err error) {
	sum := func(ps []*proc) (float64, error) {
		var kb int64
		for _, p := range ps {
			v, err := peakRSSKB(p.pid())
			if err != nil {
				return 0, err
			}
			kb += v
		}
		return float64(kb) / 1024, nil
	}
	if fe, err = sum(cl.fes); err != nil {
		return
	}
	if be, err = sum(cl.bes); err != nil {
		return
	}
	return fe + be, fe, be, nil
}
