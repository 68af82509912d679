package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "phttp-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestHelpSmoke(t *testing.T) {
	if out, err := exec.Command(buildBinary(t), "-h").CombinedOutput(); err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
}

func TestListSmoke(t *testing.T) {
	out, err := exec.Command(buildBinary(t), "-list").Output()
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	if !strings.Contains(string(out), "BEforward-extLARD-PHTTP") {
		t.Errorf("-list missing the paper's headline combo:\n%s", out)
	}
	// The listing is canonical: the extension combos ComboByName accepts
	// must be listed too, not hidden (they used to be).
	for _, name := range []string{"relayFE-extLARD-PHTTP", "simple-LARDR", "simple-LARDR-PHTTP"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list missing extension combo %s:\n%s", name, out)
		}
	}
}

func TestUnknownComboErrorListsNames(t *testing.T) {
	out, err := exec.Command(buildBinary(t), "-combo", "WRR-TELNET").CombinedOutput()
	if err == nil {
		t.Fatal("unknown combo accepted")
	}
	for _, name := range []string{"BEforward-extLARD-PHTTP", "simple-LARDR"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("unknown-combo error does not list %s:\n%s", name, out)
		}
	}
}

func TestListScenariosSmoke(t *testing.T) {
	out, err := exec.Command(buildBinary(t), "-list-scenarios").Output()
	if err != nil {
		t.Fatalf("-list-scenarios: %v", err)
	}
	for _, name := range []string{"fig3", "fig7", "fig8", "p2c", "boundedch"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list-scenarios missing %s:\n%s", name, out)
		}
	}
}

// TestScenarioSmoke runs a builtin scenario end to end through the binary
// in -smoke mode (the CI scenarios-smoke loop runs all of them).
func TestScenarioSmoke(t *testing.T) {
	out, err := exec.Command(buildBinary(t), "-scenario", "p2c", "-smoke").Output()
	if err != nil {
		t.Fatalf("-scenario p2c -smoke: %v", err)
	}
	if !strings.Contains(string(out), "p2c-PHTTP") {
		t.Errorf("scenario output missing the policy series:\n%s", out)
	}
}

func TestScenarioUnknown(t *testing.T) {
	out, err := exec.Command(buildBinary(t), "-scenario", "fig99").CombinedOutput()
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if !strings.Contains(string(out), "fig7") {
		t.Errorf("unknown-scenario error does not list builtins:\n%s", out)
	}
}

// TestSingleRunWithTraceCache drives a tiny single simulation twice through
// the trace cache: the hit run must report the identical result.
func TestSingleRunWithTraceCache(t *testing.T) {
	bin := buildBinary(t)
	cache := t.TempDir()
	run := func() string {
		out, err := exec.Command(bin,
			"-connections", "300", "-fig", "0", "-nodes", "2",
			"-trace-cache", cache).Output()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return string(out)
	}
	if miss, hit := run(), run(); miss != hit {
		t.Errorf("cache-hit run diverged:\n%s\nvs\n%s", miss, hit)
	}
}

// checkGolden runs the binary and compares everything after its header
// line with testdata/<name>.golden, the figure table as the paper's
// experiments print it at 2000 connections.
func checkGolden(t *testing.T, bin, name string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	header, table, _ := strings.Cut(string(out), "\n")
	if !strings.HasPrefix(header, "# ") {
		t.Errorf("%v: first line %q is not a header", args, header)
	}
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if table != string(want) {
		t.Errorf("%v: table differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", args, name, table, want)
	}
}

// TestFigureGoldens pins the simulated figure tables (Figures 3, 7 and 8)
// through the -fig shorthand.
func TestFigureGoldens(t *testing.T) {
	bin := buildBinary(t)
	for _, fig := range []string{"3", "7", "8"} {
		checkGolden(t, bin, "fig"+fig, "-fig", fig, "-connections", "2000")
	}
}

// TestScenarioGoldens runs the same figures as builtin scenarios: the
// explicit -connections flag overrides the scenario's workload, and the
// tables match the -fig goldens.
func TestScenarioGoldens(t *testing.T) {
	bin := buildBinary(t)
	for _, fig := range []string{"3", "7", "8"} {
		checkGolden(t, bin, "fig"+fig, "-scenario", "fig"+fig, "-connections", "2000")
	}
}

// checkCombosScenario runs a sweep.combos scenario file through the
// binary and demands that each grid point prints the Result that sim.Run
// produces for its equivalent hand-built config on the same workload. It
// returns those direct results.
func checkCombosScenario(t *testing.T, spec string, cfgs []sim.Config) []sim.Result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "combos.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(buildBinary(t), "-scenario", path, "-v", "-workers", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("-scenario: %v\n%s", err, out)
	}
	synth := trace.DefaultSynthConfig()
	synth.Connections = 300
	tr := trace.NewSynth(synth).Generate()
	results := make([]sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		if results[i], err = sim.Run(cfg, tr); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(out), results[i].String()) {
			t.Errorf("scenario output lacks the direct run's result\nwant: %s\ngot:\n%s", results[i], out)
		}
	}
	return results
}

// TestCombosScenarioHonoursChurn: a combos sweep with a churn block runs
// the schedule at every point.
func TestCombosScenarioHonoursChurn(t *testing.T) {
	combo, err := sim.ComboByName("simple-LARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []sim.Config
	for _, n := range []int{2, 3} {
		cfg := sim.DefaultConfig(n, combo)
		cfg.Churn = []sim.ChurnEvent{{At: 200 * core.Millisecond, Kind: sim.ChurnCrash, Node: 1}}
		cfg.RetryBudget = 2
		cfgs = append(cfgs, cfg)
	}
	results := checkCombosScenario(t, `{"version": 1, "name": "combos-churn",
		"workload": {"synth": {"connections": 300}},
		"sweep": {"nodes": [2, 3], "combos": ["simple-LARD-PHTTP"]},
		"churn": {"events": [{"atMs": 200, "kind": "crash", "node": 1}]}}`, cfgs)
	for _, r := range results {
		if r.Redispatches == 0 {
			t.Errorf("crash never engaged at n=%d: the check proves nothing", r.Nodes)
		}
	}
}

// TestCombosScenarioHonoursFrontEndTier: a combos sweep over a replicated
// two-front-end tier runs the tier, not the single front-end.
func TestCombosScenarioHonoursFrontEndTier(t *testing.T) {
	combo, err := sim.ComboByName("BEforward-extLARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []sim.Config
	for _, n := range []int{2, 3} {
		cfg := sim.DefaultConfig(n, combo)
		cfg.Frontends, cfg.FEState, cfg.Staleness = 2, dstate.ModeReplicated, 50*core.Millisecond
		cfgs = append(cfgs, cfg)
	}
	checkCombosScenario(t, `{"version": 1, "name": "combos-tier",
		"workload": {"synth": {"connections": 300}},
		"cluster": {"frontends": 2, "state": "replicated", "stalenessMs": 50},
		"sweep": {"nodes": [2, 3], "combos": ["BEforward-extLARD-PHTTP"]}}`, cfgs)
}
