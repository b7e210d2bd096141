package serve

import (
	"testing"

	"repro/internal/workload"
)

// The determinism battery for cache keys. Two halves, matching the two
// failure modes of a content-addressed cache: a key that varies on
// semantically inert presentation (costs hits), and a key that fails to
// vary on a semantic knob (serves wrong results — the dangerous half).

const testVersion = "test-v1"

func baseScenario() workload.Scenario {
	return workload.Scenario{
		Name:     "battery",
		Topology: workload.TopologySpec{Kind: "array", N: 8},
		Pattern:  workload.PatternSpec{Kind: "uniform"},
		Loads:    []float64{0.5, 0.7},
		Horizon:  2000,
		Warmup:   500,
		Replicas: 3,
		Seed:     11,
	}
}

func mustKey(t *testing.T, sc workload.Scenario, engine string) string {
	t.Helper()
	k, err := Key(sc, engine, testVersion)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return k
}

// parse round-trips a scenario document through JSON so field order and
// whitespace exercise the decoder exactly as HTTP submissions do.
func parse(t *testing.T, doc string) workload.Scenario {
	t.Helper()
	sc, err := workload.ParseScenario([]byte(doc))
	if err != nil {
		t.Fatalf("ParseScenario(%s): %v", doc, err)
	}
	return sc
}

func TestKeyInvariantToPresentation(t *testing.T) {
	// The same campaign spelled four ways: canonical field order, shuffled
	// field order, extra whitespace, and defaults spelled out explicitly.
	docs := map[string]string{
		"ordered":  `{"name":"p","topology":{"kind":"array","n":6},"pattern":{"kind":"uniform"},"loads":[0.5],"horizon":2000,"seed":7}`,
		"shuffled": `{"seed":7,"loads":[0.5],"horizon":2000,"pattern":{"kind":"uniform"},"topology":{"n":6,"kind":"array"},"name":"p"}`,
		"spaced": `{
			"name": "p",
			"topology": { "kind": "array", "n": 6 },
			"pattern": { "kind": "uniform" },
			"loads": [ 0.5 ],
			"horizon": 2000,
			"seed": 7
		}`,
		// warmup=horizon/4, replicas=4, poisson arrivals and the uniform
		// pattern are all defaults; spelling them changes nothing.
		"defaults": `{"name":"p","topology":{"kind":"array","n":6},"pattern":{"kind":"uniform"},
			"arrivals":{"kind":"poisson"},"loads":[0.5],"horizon":2000,"warmup":500,"replicas":4,"seed":7}`,
	}
	want := ""
	for label, doc := range docs {
		k := mustKey(t, parse(t, doc), EngineEvent)
		if want == "" {
			want = k
			continue
		}
		if k != want {
			t.Errorf("%s: key %s differs from ordered form %s", label, k, want)
		}
	}
}

func TestKeyInvariantToInertKnobs(t *testing.T) {
	base := mustKey(t, baseScenario(), EngineSlotted)
	mutate := map[string]func(*workload.Scenario){
		// Shards only changes wall-clock: the sharded slotted engine is
		// bit-identical at every tile count.
		"shards": func(s *workload.Scenario) { s.Shards = 4 },
		// Lookahead batches barriers but keeps results bit-identical.
		"lookahead": func(s *workload.Scenario) { s.Lookahead = 8 },
		// Description documents a scenario but does not define it.
		"description": func(s *workload.Scenario) { s.Description = "notes" },
		// The adaptive bounds are inert while targetCI is zero.
		"adaptive bounds without targetCI": func(s *workload.Scenario) { s.MinReplicas, s.MaxReplicas = 4, 64 },
		// The re-warm budget is inert without warm starts.
		"rewarmSlots without warmStart": func(s *workload.Scenario) { s.RewarmSlots = 250 },
		// Hotspot parameters are inert on a uniform pattern.
		"foreign pattern params": func(s *workload.Scenario) { s.Pattern.K = 3; s.Pattern.Weight = 0.5 },
		// Burst parameters are inert on poisson arrivals.
		"foreign arrival params": func(s *workload.Scenario) { s.Arrivals.BurstFactor = 8; s.Arrivals.MeanOn = 5 },
	}
	for label, mut := range mutate {
		sc := baseScenario()
		mut(&sc)
		if k := mustKey(t, sc, EngineSlotted); k != base {
			t.Errorf("%s: inert knob changed the key", label)
		}
	}
}

func TestKeyChangesOnSemanticKnobs(t *testing.T) {
	base := mustKey(t, baseScenario(), EngineSlotted)
	keys := map[string]string{"base": base}
	mutate := map[string]func(*workload.Scenario){
		"seed":     func(s *workload.Scenario) { s.Seed = 12 },
		"horizon":  func(s *workload.Scenario) { s.Horizon = 4000 },
		"warmup":   func(s *workload.Scenario) { s.Warmup = 600 },
		"replicas": func(s *workload.Scenario) { s.Replicas = 5 },
		"loads":    func(s *workload.Scenario) { s.Loads = []float64{0.5, 0.8} },
		"topology": func(s *workload.Scenario) { s.Topology.N = 16 },
		"pattern":  func(s *workload.Scenario) { s.Pattern = workload.PatternSpec{Kind: "hotspot"} },
		"router":   func(s *workload.Scenario) { s.Router = "greedy-yx" },
		// Adaptive stopping changes the replica spend.
		"targetCI":    func(s *workload.Scenario) { s.TargetCI = 0.05 },
		"warmStart":   func(s *workload.Scenario) { s.WarmStart = true },
		"rewarmSlots": func(s *workload.Scenario) { s.WarmStart = true; s.RewarmSlots = 100 },
		"name":        func(s *workload.Scenario) { s.Name = "other" },
	}
	for label, mut := range mutate {
		sc := baseScenario()
		mut(&sc)
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: mutated scenario invalid: %v", label, err)
		}
		k := mustKey(t, sc, EngineSlotted)
		for prev, pk := range keys {
			if k == pk {
				t.Errorf("%s: semantic knob collided with %s", label, prev)
			}
		}
		keys[label] = k
	}
}

func TestKeyChangesOnEngineAndVersion(t *testing.T) {
	sc := baseScenario()
	event := mustKey(t, sc, EngineEvent)
	slotted := mustKey(t, sc, EngineSlotted)
	if event == slotted {
		t.Error("engine does not affect the key")
	}
	v2, err := Key(sc, EngineEvent, "test-v2")
	if err != nil {
		t.Fatal(err)
	}
	if v2 == event {
		t.Error("code version does not affect the key")
	}
}

func TestKeyRejectsUnknownEngine(t *testing.T) {
	if _, err := Key(baseScenario(), "quantum", testVersion); err == nil {
		t.Error("unknown engine accepted")
	}
}
