package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"testing"

	"phttp/internal/cluster"
	"phttp/internal/core"
)

// TestMain lets the test binary serve as the cluster's server processes,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == serveArg {
		os.Exit(serve(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests
// compare against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	b := readBenchmarkJSON(t)
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	sort.Strings(wls)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(wls, ",") {
		t.Errorf("workloads: command has %v, BENCHMARK.json %v", got, wls)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		if len(want) != len(defs) {
			t.Errorf("%s: command has %d metrics, BENCHMARK.json %d", kind, len(defs), len(want))
		}
		for _, d := range defs {
			if u, ok := want[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s [%s] not in BENCHMARK.json with that unit", kind, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// TestSmokeRuns runs every workload at smoke size, untraced and traced,
// and requires a clean verdict and exactly BENCHMARK.json's metric names,
// both in the printed lines and in the JSON result.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts clusters")
	}
	b := readBenchmarkJSON(t)
	for _, wl := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(wl+"/trace="+traced, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := benchMain([]string{"-workload", wl, "-seed", "7", "-seconds", "1",
					"-trace", traced, "-smoke", "-dir", t.TempDir()}, &out, &errb)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s\n%s", err, out.String(), errb.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s\n%s", code, res, out.String(), errb.String())
				}
				want := b.EndToEnd
				if traced == "1" {
					want = b.PerLayer
				}
				var names []string
				for _, m := range want {
					names = append(names, m.Name)
					if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("result lacks %s [%s]", m.Name, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json %d", len(res.Metrics), len(want))
				}
				// Every printed metric line names a BENCHMARK.json metric.
				listed := map[string]bool{}
				for _, m := range append(b.EndToEnd, b.PerLayer...) {
					listed[m.Name] = true
				}
				printed := 0
				for _, l := range lines {
					kind, rest, _ := strings.Cut(l, " ")
					if kind != "end_to_end" && kind != "per_layer" {
						continue
					}
					name, _, _ := strings.Cut(rest, " ")
					if !listed[name] {
						t.Errorf("printed metric %s is not in BENCHMARK.json", name)
					}
					printed++
				}
				if printed < len(names) {
					t.Errorf("printed %d metric lines, want at least %d", printed, len(names))
				}
			})
		}
	}
}

// fakeServer answers each request on a connection with the target's
// correct content passed through mangle, then closes the connection.
func fakeServer(t *testing.T, size int64, mangle func([]byte) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(c)
			line, _ := br.ReadString('\n')
			for h, _ := br.ReadString('\n'); strings.TrimSpace(h) != ""; h, _ = br.ReadString('\n') {
			}
			target := strings.Fields(line)[1]
			var body bytes.Buffer
			cluster.WriteContent(&body, core.Target(target), size)
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size)
			c.Write(mangle(body.Bytes()))
			c.Close()
		}
	}()
	return ln.Addr().String()
}

func TestClientCatchesBadBodies(t *testing.T) {
	const size = 5000
	conns := []core.Connection{{Batches: []core.Batch{{{Target: "/docs/page00042.html", Size: size}}}}}
	for _, tc := range []struct {
		name     string
		mangle   func([]byte) []byte
		wantFail bool
	}{
		{"intact", func(b []byte) []byte { return b }, false},
		{"one corrupt byte", func(b []byte) []byte { b[3210] ^= 0x20; return b }, true},
		{"last byte corrupt", func(b []byte) []byte { b[len(b)-1]++; return b }, true},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli := newClient([]string{fakeServer(t, size, tc.mangle)}, conns, false)
			st := cli.pass(1)
			if st.attempted != 1 {
				t.Fatalf("attempted %d, want 1", st.attempted)
			}
			want := [2]int64{0, 1} // failed, completed
			if tc.wantFail {
				want = [2]int64{1, 0}
			}
			if got := [2]int64{st.failed, st.completed}; got != want {
				t.Fatalf("failed, completed = %v, want %v (problems %v)", got, want, st.problems)
			}
		})
	}
}
