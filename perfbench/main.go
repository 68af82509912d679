// Command perfbench is the repository's benchmark. It runs one named
// workload — the prototype cluster over loopback sockets, or the
// simulator's reference sweep — checks every output, and prints each
// metric by name with its unit and sample count. The last line of standard
// output is one JSON object with the verdict and the metrics. With
// -trace 1 it instead reports the per-layer metrics, taken from spans it
// records around its own calls into each layer. README.md describes the
// workloads and what each metric should move.
//
//	perfbench -workload phttp-hot -seed 1 -seconds 15 -trace 0
//
// The same binary re-executes itself as the cluster's server processes
// (the "serve" role, see serve.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"phttp/internal/sim"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root carries the same lists with their bounds; a test keeps
// the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them (see README.md for what each means on the
// simulator workload).
var endToEnd = []metricDef{
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// spanNames are the spans the benchmark records; each one's summed self
// time is reported as self_ms.<name>.
var spanNames = []string{
	"trace.gen", "trace.flatten", "cluster.start",
	"client.conn", "client.connect", "client.request", "client.transfer",
	"httpmsg.parse", "dispatch.replay", "dstate.replay", "cluster.docstore",
	"sim.sweep", "sim.point",
}

// perLayer are the metrics of single layers, reported by traced runs. A
// layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"client.latency_p99_ms", "ms"},
		{"cluster.fe_cpu_us_per_req", "us"},
		{"cluster.be_cpu_us_per_req", "us"},
		{"client.connect_us_p50", "us"},
		{"client.ttfb_ms_p50", "ms"},
		{"client.transfer_us_p50", "us"},
		{"cluster.fe_latency_p50_ms", "ms"},
		{"cluster.fe_latency_p99_ms", "ms"},
		{"cluster.fe_busy_frac", "ratio"},
		{"cluster.fe_ctxsw_per_req", "count/req"},
		{"cluster.be_hit_ratio", "ratio"},
		{"cluster.be_served_max_share", "ratio"},
		{"cluster.tier_remote_open_frac", "ratio"},
		{"cluster.tier_fallbacks", "count"},
		{"cluster.tier_syncs", "count"},
		{"cluster.redispatches", "count"},
		{"cluster.unavailable", "count"},
		{"cluster.fe_rss_mb", "MB"},
		{"cluster.be_rss_mb", "MB"},
		{"cluster.docstore_ns_per_req", "ns"},
		{"httpmsg.parse_ns_per_req", "ns"},
		{"httpmsg.parse_allocs_per_req", "count/req"},
		{"dispatch.assign_ns_per_req", "ns"},
		{"dispatch.conn_ns_per_conn", "ns"},
		{"dispatch.allocs_per_req", "count/req"},
		{"dispatch.lateral_frac", "ratio"},
		{"dstate.conn_ns_per_conn", "ns"},
		{"sim.ns_per_event", "ns"},
		{"sim.events_per_req", "count/req"},
		{"sim.allocs_per_event", "count/event"},
		{"sim.gc_cpu_frac", "ratio"},
	}
	for _, c := range sim.Combos() {
		ms = append(ms, metricDef{"sim.combo_s." + c.Name, "s"})
	}
	ms = append(ms,
		metricDef{"trace.gen_s", "s"},
		metricDef{"trace.flatten_s", "s"},
		metricDef{"tracing.overhead_req_per_s_frac", "ratio"},
		metricDef{"tracing.overhead_latency_p50_frac", "ratio"},
	)
	for _, s := range spanNames {
		ms = append(ms, metricDef{"self_ms." + s, "ms"})
	}
	return ms
}()

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every input so a run takes a second or two; the
	// benchmark's own tests use it.
	smoke bool
	// dir receives the run's handoff sockets and a traced run's span
	// file.
	dir string
}

// value is one measured figure: n is its sample count and base, when
// set, names what a ratio was taken over.
type value struct {
	v    float64
	n    int64
	base string
}

// report is what a workload run hands back.
type report struct {
	e2e       map[string]value
	layer     map[string]value
	attempted int64
	failed    int64
	problems  []string
	spans     []span
}

func newReport() *report {
	return &report{e2e: map[string]value{}, layer: map[string]value{}}
}

// fail counts n failed operations and keeps the first few reasons.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"phttp-hot":   func(o options) (*report, error) { return runProto(phttpHot, o) },
	"http10-tier": func(o options) (*report, error) { return runProto(http10Tier, o) },
	"sim-sweep":   runSim,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == serveArg {
		os.Exit(serve(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain parses the flags, runs the workload, prints the report and
// returns the exit code: 0 only when every output checked out.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every input (tests)")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory for handoff sockets and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = traceFlag == 1

	fmt.Fprintf(stdout, "# env nproc=%d gomaxprocs=%d go=%s network=loopback-only workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.workload, o.seed, o.seconds, traceFlag)
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		path, err := writeSpans(o, rep.spans)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %d written to %s\n", len(rep.spans), path)
	}
	return printReport(stdout, stderr, o, rep)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes one line per metric and then the JSON result. Every
// measured metric is printed; the JSON carries the end-to-end metrics on
// an untraced run and all per-layer metrics on a traced one, where a
// layer the workload does not exercise reads 0.
func printReport(stdout, stderr io.Writer, o options, rep *report) int {
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(stdout, "error_ratio = %.6g (%d failed of %d attempted)\n", ratio, rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "# check failed: %s\n", p)
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]resultValue{},
	}
	emit := func(kind string, defs []metricDef, vals map[string]value, toJSON, required bool) bool {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok && required {
				fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", o.workload, d.name)
				return false
			}
			if !ok && !toJSON {
				continue
			}
			if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
				fmt.Fprintf(stderr, "perfbench: %s: %s is not a number\n", o.workload, d.name)
				return false
			}
			line := fmt.Sprintf("%s %s = %.6g %s (n=%d", kind, d.name, v.v, d.unit, v.n)
			if v.base != "" {
				line += ", " + v.base
			}
			if !ok {
				line += ", layer not exercised by this workload"
			}
			fmt.Fprintln(stdout, line+")")
			if toJSON {
				res.Metrics[d.name] = resultValue{Value: v.v, Unit: d.unit}
			}
		}
		return true
	}
	if !emit("end_to_end", endToEnd, rep.e2e, !o.trace, true) {
		return 1
	}
	if !emit("per_layer", perLayer, rep.layer, o.trace, false) {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
