package sim

import (
	"path/filepath"
	"strings"
	"testing"

	"phttp/internal/core"
	"phttp/internal/trace"
)

// gateResults runs all combos at n=2 on the shared test trace — a small
// stand-in for the gate sweep, exercising the same check logic.
func gateResults(t *testing.T) []Result {
	t.Helper()
	_, results, err := ClusterSweepWorkload(core.Apache, []int{2}, Combos(), trace.NewWorkload(testTrace()), 1)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func gateCfg() BenchConfig {
	cfg := DefaultBenchConfig()
	cfg.Nodes = []int{2}
	cfg.Connections = 16000 // testTrace
	return cfg
}

// TestLatencyGateSelfConsistent: a baseline recorded from a run must pass
// the same run.
func TestLatencyGateSelfConsistent(t *testing.T) {
	results := gateResults(t)
	b := NewLatencyBaseline(gateCfg(), results, 5)
	if len(b.P99Ms) != len(Combos()) {
		t.Fatalf("baseline covers %d combos, want %d", len(b.P99Ms), len(Combos()))
	}
	if regs := b.CheckResults(results); len(regs) != 0 {
		t.Errorf("self-check regressions: %v", regs)
	}
}

// TestLatencyGateCatchesInjectedRegression is the deliberate-failure
// test: tightening one combo's recorded p99 below its measured value must
// fail the gate — proving the gate can fail, not just pass.
func TestLatencyGateCatchesInjectedRegression(t *testing.T) {
	results := gateResults(t)
	b := NewLatencyBaseline(gateCfg(), results, 5)
	victim := results[0].Combo
	b.P99Ms[victim] *= 0.7 // as if the current run's p99 grew ~43%
	regs := b.CheckResults(results)
	if len(regs) != 1 || !strings.Contains(regs[0], victim) {
		t.Errorf("injected regression on %s not caught: %v", victim, regs)
	}
}

// TestLatencyGateCatchesMissingCombo: a combo recorded in the baseline
// but absent from the run must be reported, not silently skipped.
func TestLatencyGateCatchesMissingCombo(t *testing.T) {
	results := gateResults(t)
	b := NewLatencyBaseline(gateCfg(), results, 5)
	regs := b.CheckResults(results[1:])
	if len(regs) != 1 || !strings.Contains(regs[0], results[0].Combo) {
		t.Errorf("missing combo %s not reported: %v", results[0].Combo, regs)
	}
	// The converse — a new combo with no recorded expectation — is not a
	// failure; it starts gating after the next -latency-record.
	if regs := b.CheckResults(append(results, Result{Combo: "new-combo"})); len(regs) != 0 {
		t.Errorf("unrecorded combo should not fail the gate: %v", regs)
	}
}

func TestLatencyGateConfigMismatch(t *testing.T) {
	b := NewLatencyBaseline(gateCfg(), gateResults(t), 5)
	bad := gateCfg()
	bad.Seed = 99
	if err := b.CheckConfig(bad); err == nil {
		t.Error("CheckConfig accepted a different seed")
	}
	if err := b.CheckConfig(gateCfg()); err != nil {
		t.Errorf("CheckConfig rejected the recorded config: %v", err)
	}
}

// TestLatencyGateSaveLoadRoundTrip pins the on-disk format.
func TestLatencyGateSaveLoadRoundTrip(t *testing.T) {
	b := NewLatencyBaseline(gateCfg(), gateResults(t), 5)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatencyBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != b.Nodes || got.Seed != b.Seed || got.TolerancePct != b.TolerancePct ||
		len(got.P99Ms) != len(b.P99Ms) {
		t.Errorf("round trip lost fields: %+v vs %+v", got, b)
	}
	for combo, v := range b.P99Ms {
		if got.P99Ms[combo] != v {
			t.Errorf("%s: %v != %v after round trip", combo, got.P99Ms[combo], v)
		}
	}
}

// TestRecordedLatencyBaselineValid: the checked-in CI baseline must parse
// and match the gate's reference configuration — a drifted file should
// fail here, not mysteriously in CI.
func TestRecordedLatencyBaselineValid(t *testing.T) {
	b, err := LoadLatencyBaseline("../../.github/latency-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckConfig(GateBenchConfig()); err != nil {
		t.Error(err)
	}
	if len(b.P99Ms) != len(Combos()) {
		t.Errorf("recorded baseline covers %d combos, want %d", len(b.P99Ms), len(Combos()))
	}
	for combo, v := range b.P99Ms {
		if v <= 0 {
			t.Errorf("recorded p99 for %s is %v", combo, v)
		}
	}
}
