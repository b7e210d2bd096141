// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock budget, checks that every output is
// correct, and prints a report followed, as the last line of standard
// output, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the benchmark records spans around every call it makes into a layer,
// replays the engine work directly, and reports the per-layer metrics.
// The workloads, the metrics and which layer metric should move which
// end-to-end metric are described in METRICS.md next to this file.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload des-ladder --seed 7 --seconds 30 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports all of them; METRICS.md says how each reads on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"packets_per_s", "packets/s"},
	{"time_to_ci_s", "s"},
	{"peak_rss_mb", "MB"},
	{"submit_ms_p50", "ms"},
	{"submit_ms_p90", "ms"},
	{"done_ms_p50", "ms"},
	{"done_ms_p90", "ms"},
	{"hit_ms_p50", "ms"},
	{"hit_ms_p90", "ms"},
}

// perLayer lists the traced run's metrics. A layer a workload never calls
// reads 0 there: the workload spent no time in it.
var perLayer = []metricDef{
	{"workload.bind_s", "s"},
	{"stepsim.run_s.low", "s"},
	{"stepsim.run_s.high", "s"},
	{"stepsim.barrier_waits.low", "count"},
	{"stepsim.barrier_waits.high", "count"},
	{"stepsim.active_edges.low", "count"},
	{"stepsim.active_edges.high", "count"},
	{"stepsim.arrival_frac.low", "ratio"},
	{"sim.run_s", "s"},
	{"sweep.wall_s", "s"},
	{"sweep.overhead_frac", "ratio"},
	{"sweep.replicas_used", "count"},
	{"sweep.point_s", "s"},
	{"sweep.snapshot_bytes", "bytes"},
	{"sweep.snapshot_encode_s", "s"},
	{"serve.first_point_ms", "ms"},
	{"serve.point_gap_ms", "ms"},
	{"serve.done_gap_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.healthz_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// simGoroutines is the most simulation goroutines the workload runs at
	// once; the benchmark refuses to run on fewer CPUs.
	simGoroutines int
	run           func(ctx context.Context, b *bench) error
}

var workloads = []workloadDef{
	{"slotted-large", 2, runSlottedLarge},
	{"des-ladder", 2, runDESLadder},
	{"sweepd-durable", 2, runSweepdDurable},
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	start    time.Time
	// tr records spans in trace mode and is nil otherwise.
	tr     *tracer
	tally  tally
	values map[string]float64
	// samples records how many observations stand behind a metric.
	samples map[string]int
	digest  string
	notes   []string
	// setups are the setup_s samples.
	setups []float64
}

func (b *bench) traced() bool { return b.tr != nil }

// set records a metric. A metric without samples (a NaN median) is left
// unset, which fails the run for an end-to-end metric.
func (b *bench) set(name string, v float64, samples int) {
	if math.IsNaN(v) {
		b.note("%s has no samples", name)
		return
	}
	b.values[name] = v
	b.samples[name] = samples
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// timeLeft reports whether another operation expected to take `next` still
// fits in the budget.
func (b *bench) timeLeft(next time.Duration) bool {
	return time.Since(b.start)+next <= b.budget
}

// stamp is the environment every result is recorded with.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Source     string `json:"source_sha256"`
}

func environment() stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the VCS revision the go tool stamped into the binary, or
// "none" when it was built outside a git checkout.
func gitCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "none"
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and module file under root, in path
// order, so results from a checkout without git history still name the
// code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runTimeout bounds a whole invocation, set-up and replays included.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload: slotted-large | des-ladder | sweepd-durable")
		seed    = fl.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		secs    = fl.Float64("seconds", 30, "measurement budget in seconds")
		traceOn = fl.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *secs <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	w := workloads[i]
	env := environment()
	if w.simGoroutines > env.NProc {
		fmt.Fprintf(stderr, "perfbench: workload %s runs %d simulation goroutines but this machine has nproc=%d; refusing to run\n",
			w.name, w.simGoroutines, env.NProc)
		return 2
	}

	b := &bench{
		workload: w.name,
		seed:     *seed,
		budget:   time.Duration(*secs * float64(time.Second)),
		start:    time.Now(),
		values:   make(map[string]float64),
		samples:  make(map[string]int),
	}
	if *traceOn == 1 {
		b.tr = newTracer()
	}
	ctx, cancel := context.WithTimeoutCause(context.Background(), runTimeout, errors.New("perfbench: run timeout"))
	defer cancel()
	if err := w.run(ctx, b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b.set("setup_s", median(b.setups), len(b.setups))
	b.set("peak_rss_mb", peakRSSMB(), 1)

	defs := endToEnd
	if b.traced() {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok && !b.traced() {
			b.tally.check(false, "metric %s was not measured", d.name)
		}
		metrics[d.name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, d.unit}
	}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *secs, *traceOn)
	fmt.Fprintf(stdout, "# env nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source=%s\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPU, env.Commit, env.Source)
	fmt.Fprintf(stdout, "# digest %s\n", b.digest)
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			if v, ok := b.values[d.name]; ok {
				fmt.Fprintf(stdout, "# %-28s %14.6g %-10s n=%d\n", d.name, v, d.unit, b.samples[d.name])
			}
		}
	}
	fmt.Fprintf(stdout, "# error_frac %.6g (%d failed of %d attempted)\n", b.tally.errorFrac(), b.tally.failed, b.tally.attempted)
	for _, n := range b.notes {
		fmt.Fprintf(stdout, "# note: %s\n", n)
	}
	for _, f := range b.tally.failures {
		fmt.Fprintf(stdout, "# FAILED: %s\n", f)
	}
	if b.traced() {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		header := struct {
			Workload string             `json:"workload"`
			Seed     uint64             `json:"seed"`
			Env      stamp              `json:"env"`
			Digest   string             `json:"digest"`
			Values   map[string]float64 `json:"values"`
		}{w.name, *seed, env, b.digest, b.values}
		if err := b.tr.write(path, header); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %d written to %s\n", len(b.tr.spans), path)
	}

	correct := b.tally.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{correct, max(b.tally.attempted, 1), b.tally.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}
