package workload

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

func TestRegistryScenariosBind(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Registry() {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Description == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
		b, err := s.Bind()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(b.Configs) != len(s.Loads) || len(b.Points) != len(s.Loads) {
			t.Fatalf("%s: %d configs for %d loads", s.Name, len(b.Configs), len(s.Loads))
		}
		for i, pt := range b.Points {
			if want := s.Loads[i] * b.Analysis.LambdaStar; math.Abs(pt.NodeRate-want) > 1e-12 {
				t.Errorf("%s point %d: rate %v, want %v", s.Name, i, pt.NodeRate, want)
			}
			cfg := b.Configs[i]
			if cfg.Arrivals != nil {
				if cfg.NodeRate != 0 {
					t.Errorf("%s point %d: both NodeRate and Arrivals set", s.Name, i)
				}
				merged := pt.NodeRate * float64(len(topologySources(b)))
				if got := cfg.Arrivals().Rate(); math.Abs(got-merged)/merged > 1e-9 {
					t.Errorf("%s point %d: arrival rate %v, want %v", s.Name, i, got, merged)
				}
			} else if cfg.NodeRate != pt.NodeRate {
				t.Errorf("%s point %d: config rate %v != point rate %v", s.Name, i, cfg.NodeRate, pt.NodeRate)
			}
		}
	}
}

func topologySources(b *Bound) []int {
	nodes := make([]int, b.Net.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func TestScenarioValidation(t *testing.T) {
	base := func() Scenario {
		s, err := ByName("hotspot-8x8")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := base()
	s.Loads = []float64{1.2}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "lambda*") {
		t.Errorf("overload load accepted: %v", err)
	}
	s = base()
	s.Name = ""
	if err := s.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	s = base()
	s.Pattern.Kind = "tornado" // needs a torus
	if err := s.Validate(); err == nil {
		t.Error("tornado on the array accepted")
	}
	s = base()
	s.Arrivals = ArrivalSpec{Kind: "warp"}
	if err := s.Validate(); err == nil {
		t.Error("unknown arrival kind accepted")
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Error("unknown scenario name accepted")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	s, err := ByName("bursty-8x8")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || back.Pattern.Kind != s.Pattern.Kind || back.Arrivals.Kind != s.Arrivals.Kind {
		t.Errorf("round trip mutated the scenario: %+v vs %+v", back, s)
	}
	if _, err := ParseScenario([]byte(`{"name":"x"`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ParseScenario([]byte(`{"name":"x","topology":{"kind":"array","n":4},"pattern":{"kind":"uniform"},"loads":[]}`)); err == nil {
		t.Error("empty load list accepted")
	}
}

// TestQuickScenarioRuns end-to-end: a shrunk registry scenario must
// simulate cleanly and produce finite delays at every load point.
func TestQuickScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	for _, name := range []string{"hotspot-8x8", "bursty-8x8"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Quick().Bind()
		if err != nil {
			t.Fatal(err)
		}
		sets, err := sweep.Collect(len(b.Configs), func(emit func(int, sim.ReplicaSet, error)) {
			sim.StreamSweep(context.Background(), b.Configs, b.Scenario.Replicas, 0, emit)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, rs := range sets {
			if rs.MeanDelay < b.Analysis.MeanHops*0.5 || math.IsInf(rs.MeanDelay, 0) || math.IsNaN(rs.MeanDelay) {
				t.Errorf("%s load %v: implausible delay %v", name, b.Points[i].Load, rs.MeanDelay)
			}
		}
	}
}

// TestArrivalProcessRates checks each process's long-run empirical rate
// against its declared Rate().
func TestArrivalProcessRates(t *testing.T) {
	procs := []struct {
		name string
		make func() sim.ArrivalProcess
	}{
		{"poisson", Poisson{TotalRate: 2}.New},
		{"periodic", Periodic{Interval: 0.5}.New},
		{"mmpp", MMPP2{Rate0: 0.5, Rate1: 6, Sojourn0: 20, Sojourn1: 5}.New},
	}
	for _, p := range procs {
		proc := p.make()
		rng := xrand.New(5)
		// MMPP counts are heavily over-dispersed (index of dispersion ~25
		// for these parameters), so the horizon is long enough to make 2%
		// a multi-sigma bound.
		const horizon = 1e6
		count := 0
		for t0 := proc.Next(0, rng); t0 < horizon; t0 = proc.Next(t0, rng) {
			count++
		}
		got := float64(count) / horizon
		want := proc.Rate()
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s: empirical rate %v vs declared %v", p.name, got, want)
		}
	}
}

func TestOnOffParameters(t *testing.T) {
	m, err := OnOff(2, 4, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate0 != 0 {
		t.Errorf("maximal burst factor should silence the off phase, got rate0 %v", m.Rate0)
	}
	if math.Abs(m.Rate()-2) > 1e-12 {
		t.Errorf("on-off mean rate %v, want 2", m.Rate())
	}
	if _, err := OnOff(2, 5, 10, 30); err == nil {
		t.Error("burst factor above (on+off)/on accepted")
	}
	if _, err := OnOff(2, 1, 10, 30); err == nil {
		t.Error("burst factor 1 accepted")
	}
	if err := (MMPP2{Rate0: 0, Rate1: 0, Sojourn0: 1, Sojourn1: 1}).Validate(); err == nil {
		t.Error("silent MMPP accepted")
	}
	// New must refuse parameters that would hang the event loop rather
	// than hand the engine a process that never produces an arrival.
	mustPanic(t, "MMPP2.New", func() { MMPP2{Sojourn0: 1, Sojourn1: 1}.New() })
	mustPanic(t, "Periodic.New", func() { Periodic{}.New() })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic on invalid parameters", name)
		}
	}()
	fn()
}

// TestBurstyRunsDeterministic pins the custom-arrivals path to seeded
// reproducibility: two runs of the same bursty config must agree bitwise.
func TestBurstyRunsDeterministic(t *testing.T) {
	s, err := ByName("bursty-8x8")
	if err != nil {
		t.Fatal(err)
	}
	s = s.Quick()
	s.Loads = s.Loads[:1]
	b, err := s.Bind()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.Run(b.Configs[0])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(b.Configs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeanDelay != r2.MeanDelay || r1.Generated != r2.Generated || r1.MeanN != r2.MeanN {
		t.Errorf("bursty runs diverge: %+v vs %+v", r1, r2)
	}
}

func TestSlottedConfigs(t *testing.T) {
	s, err := ByName("uniform-8x8")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Bind()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := b.SlottedConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != len(b.Configs) {
		t.Fatalf("got %d slotted configs, want %d", len(cfgs), len(b.Configs))
	}
	for i, cfg := range cfgs {
		if cfg.NodeRate != b.Points[i].NodeRate {
			t.Errorf("point %d: NodeRate %v != %v", i, cfg.NodeRate, b.Points[i].NodeRate)
		}
		if cfg.Slots != int(b.Scenario.Horizon+0.5) || cfg.WarmupSlots != int(b.Scenario.Warmup+0.5) {
			t.Errorf("point %d: slots %d/%d do not round from horizon %v/%v",
				i, cfg.Slots, cfg.WarmupSlots, b.Scenario.Horizon, b.Scenario.Warmup)
		}
		if cfg.Net != b.Net || cfg.Dest == nil {
			t.Errorf("point %d: topology or demand not threaded through", i)
		}
	}
	// One quick run end to end: the demand sampler and router must be
	// directly usable by the slotted engine.
	cfgs[0].WarmupSlots, cfgs[0].Slots = 50, 400
	res, err := stepsim.Run(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.MeanDelay <= 0 {
		t.Error("slotted run from a bound scenario produced no traffic")
	}
}

func TestSlottedConfigsPlumbShards(t *testing.T) {
	s, err := ByName("uniform-8x8")
	if err != nil {
		t.Fatal(err)
	}
	s.Shards = 3
	b, err := s.Bind()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := b.SlottedConfigs()
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if cfg.Shards != 3 {
			t.Errorf("point %d: Shards %d, want 3", i, cfg.Shards)
		}
	}
	s.Shards = -1
	if err := s.Validate(); err == nil {
		t.Error("negative shards validated")
	}
}

func TestSlottedConfigsRejectsNonPoisson(t *testing.T) {
	s, err := ByName("bursty-8x8")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.SlottedConfigs(); err == nil {
		t.Error("bursty scenario lowered onto the slotted engine without error")
	}
}

// TestParseScenarioRejectsUnknownFields pins strict decoding: a retired
// knob, a misspelled one, a typo inside the nested fault spec and trailing
// data are all refused with an error naming the problem, while the same
// scenario without them parses. (encoding/json matches keys
// case-insensitively, so a case-only variant such as "targetCi" still
// sets TargetCI rather than being dropped.)
func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	const head = `{"name":"d","topology":{"kind":"array","n":4},"pattern":{"kind":"uniform"},"loads":[0.5]`
	if _, err := ParseScenario([]byte(head + `}`)); err != nil {
		t.Fatalf("clean scenario rejected: %v", err)
	}
	for _, tc := range []struct {
		name, json, want string
	}{
		{"retired dense", head + `,"dense":true}`, `"dense"`},
		{"retired md1Control", head + `,"md1Control":true}`, `"md1Control"`},
		{"retired controlVariates", head + `,"controlVariates":true}`, `"controlVariates"`},
		{"misspelled targetCI", head + `,"targetCl":0.1}`, `"targetCl"`},
		{"nested fault typo", head + `,"faults":{"link_mtbf":100,"link_mtr":5}}`, `"link_mtr"`},
		{"trailing garbage", head + `} {"name":"x"}`, "trailing data"},
	} {
		_, err := ParseScenario([]byte(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %s", tc.name, err, tc.want)
		}
	}
}

// TestScenarioVarianceReductionKnobs covers the opt-in adaptive fields:
// JSON round-trip, lowering to the engines' shared sweep.Opts, and rejection of
// inconsistent or model-incompatible combinations.
func TestScenarioVarianceReductionKnobs(t *testing.T) {
	src := `{
		"name": "vr", "topology": {"kind": "array", "n": 6},
		"pattern": {"kind": "uniform"}, "loads": [0.5, 0.7],
		"targetCI": 0.05, "minReplicas": 3, "maxReplicas": 20,
		"warmStart": true, "rewarmSlots": 250
	}`
	s, err := ParseScenario([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	so := s.SweepOpts(4)
	if so.TargetCI != 0.05 || so.MinReps != 3 || so.MaxReps != 20 ||
		!so.WarmStart || so.Rewarm != 250 || so.Workers != 4 {
		t.Errorf("opts lowered wrong: %+v", so)
	}
	// The knobs are omitempty: a default scenario round-trips without them.
	plain := s
	plain.TargetCI, plain.MinReplicas, plain.MaxReplicas = 0, 0, 0
	plain.WarmStart, plain.RewarmSlots = false, 0
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"targetCI", "minReplicas", "maxReplicas", "warmStart", "rewarmSlots"} {
		if strings.Contains(string(data), field) {
			t.Errorf("zero-valued %s serialized: %s", field, data)
		}
	}

	bad := s
	bad.TargetCI = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative targetCI accepted")
	}
	bad = s
	bad.MinReplicas, bad.MaxReplicas = 10, 4
	if err := bad.Validate(); err == nil {
		t.Error("maxReplicas < minReplicas accepted")
	}
	bad = s
	bad.Arrivals.Kind = "bursty"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "Poisson") {
		t.Errorf("warm start with bursty arrivals accepted: %v", err)
	}
}

// TestScenarioAdaptiveSweepEndToEnd drives a bound scenario through both
// engines' adaptive sweeps — the path cmd/scenario uses.
func TestScenarioAdaptiveSweepEndToEnd(t *testing.T) {
	s, err := ParseScenario([]byte(`{
		"name": "vr-e2e", "topology": {"kind": "array", "n": 5},
		"pattern": {"kind": "uniform"}, "loads": [0.4, 0.6],
		"horizon": 1200, "warmup": 300, "seed": 9,
		"targetCI": 0.2, "minReplicas": 3, "maxReplicas": 12}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Bind()
	if err != nil {
		t.Fatal(err)
	}
	sets, err := sweep.Collect(len(b.Configs), func(emit func(int, sim.ReplicaSet, error)) {
		sim.StreamSweepAdaptive(context.Background(), b.Configs, s.SweepOpts(4), emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range sets {
		if rs.ReplicasUsed < 3 || rs.ReplicasUsed > 12 {
			t.Errorf("event point %d: %d replicas outside [3, 12]", i, rs.ReplicasUsed)
		}
		if rs.ReplicasUsed < 12 && rs.DelayCI > 0.2 {
			t.Errorf("event point %d: stopped early with half-width %v", i, rs.DelayCI)
		}
	}
	scfgs, err := b.SlottedConfigs()
	if err != nil {
		t.Fatal(err)
	}
	ssets, err := sweep.Collect(len(scfgs), func(emit func(int, stepsim.ReplicaSet, error)) {
		stepsim.StreamSweepAdaptive(context.Background(), scfgs, b.SlottedSweepOpts(4), emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range ssets {
		if rs.ReplicasUsed < 3 || rs.ReplicasUsed > 12 {
			t.Errorf("slotted point %d: %d replicas outside [3, 12]", i, rs.ReplicasUsed)
		}
	}
}
