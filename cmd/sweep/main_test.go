package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func runCapture(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// splitCSV separates data lines from the self-describing `#` comments.
func splitCSV(out string) (rows, comments []string) {
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			comments = append(comments, line)
		} else if line != "" {
			rows = append(rows, line)
		}
	}
	return rows, comments
}

func TestFlagParsing(t *testing.T) {
	if code, _, _ := runCapture("-rhos", "1.5"); code != 2 {
		t.Error("load outside (0,1) accepted")
	}
	if code, _, _ := runCapture("-rhos", "0.5,zebra"); code != 2 {
		t.Error("non-numeric load accepted")
	}
	if code, _, errOut := runCapture("-topology", "klein-bottle", "-rhos", "0.5"); code != 2 ||
		!strings.Contains(errOut, "unknown topology") {
		t.Error("unknown topology accepted")
	}
	if code, _, _ := runCapture("-no-such-flag"); code != 2 {
		t.Error("unknown flag accepted")
	}
}

func TestTinySweepCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(
		"-topology", "array", "-n", "4", "-rhos", "0.3,0.6",
		"-horizon", "300", "-replicas", "1")
	if code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}
	lines, comments := splitCSV(out)
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "topology,rho,lambda") {
		t.Errorf("bad CSV header %q", lines[0])
	}
	for _, row := range lines[1:] {
		fields := strings.Split(row, ",")
		if len(fields) != 14 || fields[0] != "array" {
			t.Errorf("bad CSV row %q", row)
		}
		if fields[10] != "" || fields[11] != "" {
			t.Errorf("des row should leave the slotted occupancy columns empty: %q", row)
		}
		if fields[12] != "1" {
			t.Errorf("fixed 1-replica sweep should report replicas_used=1: %q", row)
		}
		if _, err := strconv.ParseFloat(fields[13], 64); err != nil {
			t.Errorf("ci_halfwidth column %q is not numeric", fields[13])
		}
	}
	// Self-describing comments: provenance up front, wall-clock at the end.
	if len(comments) != 2 {
		t.Fatalf("want sweep + wall comments, got %v", comments)
	}
	for _, want := range []string{"engine=des", "topology=array", "gomaxprocs=", "replicas=1", "shards=auto"} {
		if !strings.Contains(comments[0], want) {
			t.Errorf("header comment %q missing %q", comments[0], want)
		}
	}
	if !strings.Contains(comments[1], "# wall:") || !strings.Contains(comments[1], "rho=0.6000 t+") ||
		!strings.Contains(comments[1], "total") {
		t.Errorf("wall comment %q missing per-point timings", comments[1])
	}
}

func TestTorusSweepHasNoUpper(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(
		"-topology", "torus", "-n", "4", "-rhos", "0.4",
		"-horizon", "200", "-replicas", "1")
	if code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, ",none") {
		t.Errorf("torus row should report no upper bound:\n%s", out)
	}
}

func TestShardsFlag(t *testing.T) {
	if code, _, errOut := runCapture("-shards", "zebra", "-rhos", "0.5"); code != 2 ||
		!strings.Contains(errOut, "bad -shards") {
		t.Error("non-numeric -shards accepted")
	}
	if code, _, errOut := runCapture("-shards", "-2", "-rhos", "0.5"); code != 2 ||
		!strings.Contains(errOut, "bad -shards") {
		t.Error("negative -shards accepted")
	}
	if code, _, errOut := runCapture("-engine", "des", "-shards", "2", "-rhos", "0.5"); code != 2 ||
		!strings.Contains(errOut, "slotted only") {
		t.Error("-shards with the event engine accepted")
	}
}

func TestSlottedShardedSweepCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	// The same sweep serial and pinned to 2 shards must emit identical
	// data rows (bit-identical engine results formatted identically).
	code, serialOut, errOut := runCapture(
		"-topology", "array", "-n", "6", "-rhos", "0.4,0.7",
		"-engine", "slotted", "-horizon", "400", "-replicas", "1", "-shards", "1")
	if code != 0 {
		t.Fatalf("serial slotted sweep exit %d: %s", code, errOut)
	}
	code, shardedOut, errOut := runCapture(
		"-topology", "array", "-n", "6", "-rhos", "0.4,0.7",
		"-engine", "slotted", "-horizon", "400", "-replicas", "1", "-shards", "2")
	if code != 0 {
		t.Fatalf("sharded slotted sweep exit %d: %s", code, errOut)
	}
	serialRows, _ := splitCSV(serialOut)
	shardedRows, comments := splitCSV(shardedOut)
	if len(serialRows) != len(shardedRows) {
		t.Fatalf("row counts differ: %d vs %d", len(serialRows), len(shardedRows))
	}
	for i := range serialRows {
		if serialRows[i] != shardedRows[i] {
			t.Errorf("row %d differs across shard counts:\n%s\n%s", i, serialRows[i], shardedRows[i])
		}
	}
	if !strings.Contains(comments[0], "shards=2") {
		t.Errorf("header comment %q does not record the shard count", comments[0])
	}
}

func TestSlottedSweepCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(
		"-topology", "array", "-n", "4", "-rhos", "0.5",
		"-engine", "slotted", "-horizon", "400", "-replicas", "1")
	if code != 0 {
		t.Fatalf("slotted sweep exit %d: %s", code, errOut)
	}
	lines, _ := splitCSV(out)
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines:\n%s", len(lines), out)
	}
	fields := strings.Split(lines[1], ",")
	if len(fields) != 14 || fields[0] != "array" {
		t.Fatalf("bad CSV row %q", lines[1])
	}
	if fields[6] != "" {
		t.Errorf("slotted r_per_n column should be empty, got %q", fields[6])
	}
	// Occupancy instrumentation: both columns must carry positive values
	// on a simulated slotted point.
	for _, i := range []int{10, 11} {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || v <= 0 {
			t.Errorf("slotted occupancy column %d = %q, want a positive number", i, fields[i])
		}
	}
}

// TestSlottedDenseSweepCSV pins the retired knobs: the slotted engine has
// a single execution body and sweeps have no control variates, so -dense,
// -md1 and -cv are unknown flags (exit 2, naming the flag) on either
// engine.
func TestSlottedDenseSweepCSV(t *testing.T) {
	for _, args := range [][]string{
		{"-dense"}, {"-engine", "slotted", "-dense"}, {"-md1"}, {"-engine", "slotted", "-md1"},
		{"-cv"}, {"-engine", "slotted", "-cv"},
	} {
		code, _, errOut := runCapture(append([]string{"-rhos", "0.5"}, args...)...)
		if code != 2 || !strings.Contains(errOut, args[len(args)-1]) {
			t.Errorf("%v: exit %d %q, want 2 naming the retired flag", args, code, errOut)
		}
	}
}

func TestUnknownEngine(t *testing.T) {
	if code, _, errOut := runCapture("-engine", "quantum", "-rhos", "0.5"); code != 2 ||
		!strings.Contains(errOut, "unknown engine") {
		t.Error("unknown engine accepted")
	}
}

// TestAdaptiveSweepFlags covers the variance-reduction flag validation and
// header comment.
func TestAdaptiveSweepFlags(t *testing.T) {
	if code, _, errOut := runCapture("-min-reps", "10", "-max-reps", "4", "-rhos", "0.5"); code != 2 ||
		!strings.Contains(errOut, "min-reps") {
		t.Error("max-reps < min-reps accepted")
	}
	if code, _, errOut := runCapture("-min-reps", "0", "-rhos", "0.5"); code != 2 ||
		!strings.Contains(errOut, "min-reps") {
		t.Error("zero min-reps accepted")
	}
}

// TestAdaptiveSlottedSweepCSV drives -target-ci end to end on the slotted
// engine: replicas_used must respect the [min, max] bounds and the row's
// ci_halfwidth must match the T_ci column (the estimator of record).
func TestAdaptiveSlottedSweepCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	code, out, errOut := runCapture(
		"-topology", "array", "-n", "5", "-rhos", "0.3,0.6",
		"-engine", "slotted", "-horizon", "800",
		"-target-ci", "0.5", "-min-reps", "3", "-max-reps", "12")
	if code != 0 {
		t.Fatalf("adaptive sweep exit %d: %s", code, errOut)
	}
	lines, comments := splitCSV(out)
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasSuffix(lines[0], "replicas_used,ci_halfwidth") {
		t.Errorf("header %q missing the replication columns", lines[0])
	}
	for _, row := range lines[1:] {
		fields := strings.Split(row, ",")
		if len(fields) != 14 {
			t.Fatalf("bad adaptive row %q", row)
		}
		used, err := strconv.Atoi(fields[12])
		if err != nil || used < 3 || used > 12 {
			t.Errorf("replicas_used %q outside [3, 12]", fields[12])
		}
		if fields[13] != fields[4] {
			t.Errorf("ci_halfwidth %q != T_ci %q", fields[13], fields[4])
		}
	}
	for _, want := range []string{"target_ci=0.5", "min_reps=3", "max_reps=12", "warm_start=false"} {
		if !strings.Contains(comments[0], want) {
			t.Errorf("header comment %q missing %q", comments[0], want)
		}
	}
}

// TestWarmStartCVSweepCSV smoke-tests the -warm-start path on both engines
// over a short two-point ladder. (It once combined -warm-start with -cv;
// control variates are gone and -cv is now an unknown flag, pinned by
// TestSlottedDenseSweepCSV.)
func TestWarmStartCVSweepCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	for _, engine := range []string{"des", "slotted"} {
		code, out, errOut := runCapture(
			"-topology", "array", "-n", "5", "-rhos", "0.4,0.6",
			"-engine", engine, "-horizon", "800", "-replicas", "4",
			"-warm-start", "-rewarm", "100")
		if code != 0 {
			t.Fatalf("%s warm sweep exit %d: %s", engine, code, errOut)
		}
		lines, _ := splitCSV(out)
		if len(lines) != 3 {
			t.Fatalf("%s: want header + 2 rows, got %d lines:\n%s", engine, len(lines), out)
		}
		for _, row := range lines[1:] {
			fields := strings.Split(row, ",")
			if len(fields) != 14 || fields[12] != "4" {
				t.Errorf("%s: bad warm row %q", engine, row)
			}
		}
	}
}

// TestFaultSweepCSV: fault flags append the degraded columns on both
// engines, the fault header comment records the knobs, and the degraded
// run actually drops and detours.
func TestFaultSweepCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	for _, eng := range []string{"des", "slotted"} {
		code, out, errOut := runCapture(
			"-topology", "array", "-n", "8", "-rhos", "0.4",
			"-horizon", "2000", "-replicas", "1", "-engine", eng,
			"-link-mtbf", "200", "-link-mttr", "20", "-link-frac", "0.2",
			"-liars", "2", "-liar-mode", "drop", "-liar-prob", "0.5",
			"-fault-seed", "11")
		if code != 0 {
			t.Fatalf("%s: sweep exit %d: %s", eng, code, errOut)
		}
		lines, comments := splitCSV(out)
		if len(lines) != 2 {
			t.Fatalf("%s: want header + 1 row, got %d lines:\n%s", eng, len(lines), out)
		}
		if !strings.HasSuffix(lines[0], "dropped,detour_hops,link_down_frac") {
			t.Errorf("%s: header %q missing fault columns", eng, lines[0])
		}
		foundFaultComment := false
		for _, c := range comments {
			if strings.Contains(c, "link_mtbf=200") && strings.Contains(c, "liar_mode=drop") {
				foundFaultComment = true
			}
		}
		if !foundFaultComment {
			t.Errorf("%s: no fault header comment in %v", eng, comments)
		}
		fields := strings.Split(lines[1], ",")
		if len(fields) != 17 {
			t.Fatalf("%s: want 17 columns, got %d: %q", eng, len(fields), lines[1])
		}
		dropped, err1 := strconv.Atoi(fields[14])
		detours, err2 := strconv.Atoi(fields[15])
		downFrac, err3 := strconv.ParseFloat(fields[16], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s: non-numeric fault columns: %q", eng, lines[1])
		}
		if dropped == 0 || detours == 0 {
			t.Errorf("%s: degraded run shows no fault outcomes: dropped=%d detours=%d", eng, dropped, detours)
		}
		if downFrac <= 0 || downFrac > 0.1 {
			t.Errorf("%s: link_down_frac %v implausible", eng, downFrac)
		}
	}
}

// TestFaultSweepRejectsWarmStart: snapshots do not capture fault state, so
// the combination must be refused up front.
func TestFaultSweepRejectsWarmStart(t *testing.T) {
	code, _, errOut := runCapture(
		"-topology", "array", "-n", "4", "-rhos", "0.3",
		"-link-mtbf", "100", "-link-mttr", "10", "-warm-start")
	if code != 2 || !strings.Contains(errOut, "warm-start") {
		t.Errorf("warm-start + faults accepted: code=%d stderr=%q", code, errOut)
	}
}
