package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCapture(t, "list")
	if code != 0 {
		t.Fatalf("list exit %d", code)
	}
	for _, want := range []string{"hotspot-8x8", "tornado-8x8", "bursty-8x8"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output misses %q", want)
		}
	}
}

func TestUsageAndUnknown(t *testing.T) {
	if code, _, _ := runCapture(t); code != 2 {
		t.Error("no-args should exit 2")
	}
	if code, _, errOut := runCapture(t, "frobnicate"); code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Error("unknown command should exit 2 with a message")
	}
	if code, out, _ := runCapture(t, "help"); code != 0 || !strings.Contains(out, "usage:") {
		t.Error("help should print usage")
	}
}

func TestDescribe(t *testing.T) {
	code, out, _ := runCapture(t, "describe", "hotspot-8x8")
	if code != 0 {
		t.Fatalf("describe exit %d", code)
	}
	for _, want := range []string{"lambda*", "bottleneck edge", `"kind": "hotspot"`} {
		if !strings.Contains(out, want) {
			t.Errorf("describe output misses %q:\n%s", want, out)
		}
	}
	if code, _, _ := runCapture(t, "describe", "nope"); code != 1 {
		t.Error("describe of unknown scenario should exit 1")
	}
}

func TestValidate(t *testing.T) {
	if code, out, _ := runCapture(t, "validate", "transpose-8x8"); code != 0 || !strings.Contains(out, "ok") {
		t.Errorf("validate failed: %d %q", code, out)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","topology":{"kind":"array","n":8},"pattern":{"kind":"tornado"},"loads":[0.5]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCapture(t, "validate", bad); code != 1 || !strings.Contains(errOut, "tornado") {
		t.Errorf("tornado-on-array spec accepted: %d %q", code, errOut)
	}
	if code, _, _ := runCapture(t, "validate", "missing-file.json"); code != 1 {
		t.Error("missing spec file should exit 1")
	}
}

func TestRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(t, "run", "hotspot-8x8", "-quick", "-replicas", "1")
	if code != 0 {
		t.Fatalf("run exit %d: %s", code, errOut)
	}
	for _, want := range []string{"lambda* = 0.125000", "rho_max", "T(sim)"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output misses %q:\n%s", want, out)
		}
	}
	// One row per registry load point plus the headers.
	if got := strings.Count(out, "\n"); got < 8 {
		t.Errorf("run produced %d lines, want >= 8:\n%s", got, out)
	}
}

func TestRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(t, "run", "neighbor-8x8", "-quick", "-replicas", "1", "-json")
	if code != 0 {
		t.Fatalf("run -json exit %d: %s", code, errOut)
	}
	var res struct {
		LambdaStar float64 `json:"lambdaStar"`
		MeanHops   float64 `json:"meanHops"`
		Points     []struct {
			Load      float64 `json:"load"`
			MeanDelay float64 `json:"meanDelay"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if res.LambdaStar <= 0 || math.Abs(res.MeanHops-1) > 1e-9 || len(res.Points) == 0 {
		t.Errorf("implausible JSON result: %+v", res)
	}
	for _, p := range res.Points {
		if p.MeanDelay < 1 {
			t.Errorf("load %v: delay %v below the 1-hop service floor", p.Load, p.MeanDelay)
		}
	}
}

func TestRunSpecFile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	spec := filepath.Join(t.TempDir(), "tiny.json")
	body := `{"name":"tiny","topology":{"kind":"array","n":4},"pattern":{"kind":"transpose"},
		"loads":[0.5],"horizon":200,"replicas":1}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCapture(t, "run", spec)
	if code != 0 {
		t.Fatalf("run spec file exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "tiny:") || !strings.Contains(out, "transpose") {
		t.Errorf("spec-file run output unexpected:\n%s", out)
	}
}

func TestRunSlottedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(t, "run", "uniform-8x8", "-quick", "-engine", "slotted", "-replicas", "2", "-json")
	if code != 0 {
		t.Fatalf("slotted run exit %d: %s", code, errOut)
	}
	var res runResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if res.Engine != "slotted" {
		t.Errorf("engine = %q, want slotted", res.Engine)
	}
	if len(res.Points) != 5 {
		t.Fatalf("want 5 load points, got %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Error != "" || pt.MeanDelay <= 0 {
			t.Errorf("load %.2f: error %q, delay %v", pt.Load, pt.Error, pt.MeanDelay)
		}
		// The slotted model's delay must sit within about one slot of the
		// continuous-time M/D/1 estimate at moderate load (§5.2).
		if pt.Load <= 0.6 && math.Abs(pt.MeanDelay-pt.MD1Delay) > 2 {
			t.Errorf("load %.2f: slotted delay %v far from estimate %v", pt.Load, pt.MeanDelay, pt.MD1Delay)
		}
		// The occupancy instrumentation rides along on slotted points.
		if pt.MeanActiveEdges <= 0 || pt.ArrivalSlotFraction <= 0 {
			t.Errorf("load %.2f: occupancy columns missing: act=%v frac=%v",
				pt.Load, pt.MeanActiveEdges, pt.ArrivalSlotFraction)
		}
	}
}

// TestRunDenseFlag pins the retired knobs: the slotted engine has a
// single execution body and sweeps have no control variates, so -dense,
// -md1 and -cv are refused as unknown flags (exit 2, naming the flag) on
// either engine.
// The slotted table still carries the occupancy columns.
func TestRunDenseFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-dense"}, {"-engine", "slotted", "-dense"}, {"-md1"}, {"-engine", "slotted", "-md1"},
		{"-cv"}, {"-engine", "slotted", "-cv"},
	} {
		code, _, errOut := runCapture(t, append([]string{"run", "uniform-8x8", "-quick"}, args...)...)
		if code != 2 || !strings.Contains(errOut, args[len(args)-1]) {
			t.Errorf("%v: exit %d %q, want 2 naming the retired flag", args, code, errOut)
		}
	}
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(t, "run", "uniform-8x8", "-quick", "-engine", "slotted", "-replicas", "1")
	if code != 0 {
		t.Fatalf("slotted run exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "act_edges") || !strings.Contains(out, "arr_frac") {
		t.Errorf("slotted table is missing the occupancy columns:\n%s", out)
	}
}

func TestRunSlottedRejectsBursty(t *testing.T) {
	code, _, errOut := runCapture(t, "run", "bursty-8x8", "-quick", "-engine", "slotted")
	if code != 1 || !strings.Contains(errOut, "slotted engine") {
		t.Errorf("bursty scenario on the slotted engine should fail with an explanation, got exit %d: %s", code, errOut)
	}
}

func TestRunShardsFlag(t *testing.T) {
	code, _, errOut := runCapture(t, "run", "uniform-8x8", "-quick", "-shards", "zebra")
	if code != 2 || !strings.Contains(errOut, "bad -shards") {
		t.Errorf("bad -shards should exit 2, got %d: %s", code, errOut)
	}
	code, _, errOut = runCapture(t, "run", "uniform-8x8", "-quick", "-engine", "des", "-shards", "2")
	if code != 2 || !strings.Contains(errOut, "slotted only") {
		t.Errorf("-shards on the event engine should exit 2, got %d: %s", code, errOut)
	}
}

// TestRunSpecShardsIgnoredOnDES pins the workload contract at the CLI: a
// scenario FILE carrying a shards field runs fine under the event engine
// (the field is slotted-only and documented as ignored there); only the
// explicit -shards flag conflicts with -engine des.
func TestRunSpecShardsIgnoredOnDES(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	spec := filepath.Join(t.TempDir(), "sharded.json")
	if err := os.WriteFile(spec, []byte(`{"name":"sharded-spec","topology":{"kind":"array","n":4},
		"pattern":{"kind":"uniform"},"loads":[0.4],"horizon":200,"replicas":1,"shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCapture(t, "run", spec)
	if code != 0 {
		t.Fatalf("des run of a spec with shards failed: exit %d: %s", code, errOut)
	}
	code, _, errOut = runCapture(t, "run", spec, "-engine", "slotted")
	if code != 0 {
		t.Fatalf("slotted run of the same spec failed: exit %d: %s", code, errOut)
	}
}

// TestRunSlottedSharded pins the end-to-end determinism contract at the
// CLI: the same scenario serial and pinned to 2 shards must print
// byte-identical tables.
func TestRunSlottedSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, serialOut, errOut := runCapture(t, "run", "uniform-8x8", "-quick", "-engine", "slotted", "-replicas", "2", "-shards", "1")
	if code != 0 {
		t.Fatalf("serial slotted run exit %d: %s", code, errOut)
	}
	code, shardedOut, errOut := runCapture(t, "run", "uniform-8x8", "-quick", "-engine", "slotted", "-replicas", "2", "-shards", "2")
	if code != 0 {
		t.Fatalf("sharded slotted run exit %d: %s", code, errOut)
	}
	if serialOut != shardedOut {
		t.Errorf("sharded table differs from serial:\n--- serial\n%s--- sharded\n%s", serialOut, shardedOut)
	}
}

func TestRunUnknownEngine(t *testing.T) {
	code, _, errOut := runCapture(t, "run", "uniform-8x8", "-quick", "-engine", "warp")
	if code != 2 || !strings.Contains(errOut, "unknown engine") {
		t.Errorf("unknown engine should exit 2, got %d: %s", code, errOut)
	}
}

// TestRunAdaptiveKnobs drives the variance-reduction flags end to end on
// both engines: replicas_used appears in the JSON, the adaptive bounds are
// respected, and incompatible combinations are rejected at validation.
func TestRunAdaptiveKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	for _, engine := range []string{"des", "slotted"} {
		code, out, errOut := runCapture(t, "run", "uniform-8x8", "-quick", "-engine", engine,
			"-json", "-target-ci", "0.5", "-min-reps", "3", "-max-reps", "8")
		if code != 0 {
			t.Fatalf("%s adaptive run exit %d: %s", engine, code, errOut)
		}
		var res struct {
			Points []struct {
				ReplicasUsed int     `json:"replicasUsed"`
				DelayCI      float64 `json:"delayCI"`
				Error        string  `json:"error"`
			} `json:"points"`
		}
		if err := json.Unmarshal([]byte(out), &res); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", engine, err, out)
		}
		for i, pt := range res.Points {
			if pt.Error != "" {
				t.Fatalf("%s point %d: %s", engine, i, pt.Error)
			}
			if pt.ReplicasUsed < 3 || pt.ReplicasUsed > 8 {
				t.Errorf("%s point %d: replicasUsed %d outside [3, 8]", engine, i, pt.ReplicasUsed)
			}
		}
	}
	// Warm starts on a non-Poisson scenario must fail loudly.
	if code, _, errOut := runCapture(t, "run", "bursty-8x8", "-quick", "-warm-start"); code != 1 ||
		!strings.Contains(errOut, "Poisson") {
		t.Errorf("bursty + -warm-start accepted: %s", errOut)
	}
}

// TestRunWarmStartTable smoke-tests the warm-start chain through the CLI
// table path (slotted engine) and checks the reps column renders.
func TestRunWarmStartTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(t, "run", "uniform-8x8", "-quick", "-engine", "slotted",
		"-warm-start", "-rewarm", "20", "-replicas", "2")
	if code != 0 {
		t.Fatalf("warm-start run exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "reps") {
		t.Errorf("table header missing the reps column:\n%s", out)
	}
}
