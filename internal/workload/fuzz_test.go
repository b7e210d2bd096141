package workload

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzScenarioBind drives hostile scenario JSON through the full lowering
// path: ParseScenario, Bind, the traffic analysis's conservation
// invariants (total flow and per-node flow balance, checkConservation),
// its agreement with the pair-walk oracle (checkPairWalk, run by
// checkConservation), and idempotence of the canonical form the sweep service
// hashes into cache keys. Specs too large to bind quickly (side > 12,
// cube dimension > 6, kd dimension count > 3) are skipped before anything
// is built, since ParseScenario itself binds. Run with:
//
//	go test -run '^$' -fuzz FuzzScenarioBind -fuzztime 10s ./internal/workload
func FuzzScenarioBind(f *testing.F) {
	seeds := Registry()
	seeds = append(seeds,
		Scenario{Name: "linear", Topology: TopologySpec{Kind: "linear", N: 6}, Loads: []float64{0.5}},
		Scenario{Name: "kd", Topology: TopologySpec{Kind: "kd", N: 3, K: 3}, Pattern: PatternSpec{Kind: "zipf"}, Loads: []float64{0.5}},
		Scenario{Name: "cube", Topology: TopologySpec{Kind: "cube", D: 4}, Pattern: PatternSpec{Kind: "bitcomp"}, Loads: []float64{0.5}},
		Scenario{Name: "rand", Topology: TopologySpec{Kind: "array", N: 5}, Router: "rand-greedy", Pattern: PatternSpec{Kind: "hotspot", Hot: []int{3, 7}}, Loads: []float64{0.5}},
	)
	for _, s := range seeds {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe Scenario
		if json.Unmarshal(data, &probe) != nil {
			return
		}
		if topo := probe.Topology; topo.N > 12 || topo.D > 6 || topo.K > 3 {
			return
		}
		s, err := ParseScenario(data)
		if err != nil {
			return
		}
		b, err := s.Bind()
		if err != nil {
			t.Fatalf("parsed scenario fails to bind: %v", err)
		}
		checkConservation(t, b.Net, b.Router, b.Demand, b.Analysis)
		c := s.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(c, cc) {
			t.Fatalf("Canonical is not idempotent:\n once  %+v\n twice %+v", c, cc)
		}
	})
}
