package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// TopologySpec names a network declaratively.
type TopologySpec struct {
	// Kind is one of array | torus | linear | kd | cube.
	Kind string `json:"kind"`
	// N is the side length (array, torus, linear, kd).
	N int `json:"n,omitempty"`
	// K is the dimension count (kd).
	K int `json:"k,omitempty"`
	// D is the dimension (cube).
	D int `json:"d,omitempty"`
}

// Build constructs the network.
func (t TopologySpec) Build() (topology.Network, error) {
	switch t.Kind {
	case "array":
		if t.N < 2 {
			return nil, fmt.Errorf("workload: array needs n >= 2, got %d", t.N)
		}
		return topology.NewArray2D(t.N), nil
	case "torus":
		if t.N < 3 {
			return nil, fmt.Errorf("workload: torus needs n >= 3, got %d", t.N)
		}
		return topology.NewTorus2D(t.N), nil
	case "linear":
		if t.N < 2 {
			return nil, fmt.Errorf("workload: linear needs n >= 2, got %d", t.N)
		}
		return topology.NewLinear(t.N), nil
	case "kd":
		if t.N < 2 || t.K < 1 {
			return nil, fmt.Errorf("workload: kd needs n >= 2 and k >= 1, got n=%d k=%d", t.N, t.K)
		}
		sizes := make([]int, t.K)
		for i := range sizes {
			sizes[i] = t.N
		}
		return topology.NewArrayKD(sizes...), nil
	case "cube":
		if t.D < 1 {
			return nil, fmt.Errorf("workload: cube needs d >= 1, got %d", t.D)
		}
		return topology.NewHypercube(t.D), nil
	default:
		return nil, fmt.Errorf("workload: unknown topology kind %q", t.Kind)
	}
}

// buildRouter resolves a router name against a network; "" picks the
// canonical greedy router of the topology.
func buildRouter(name string, net topology.Network) (routing.Router, error) {
	switch t := net.(type) {
	case *topology.Array2D:
		switch name {
		case "", "greedy-xy":
			return routing.GreedyXY{A: t}, nil
		case "greedy-yx":
			return routing.GreedyYX{A: t}, nil
		case "rand-greedy":
			return routing.RandGreedy{A: t}, nil
		}
	case *topology.Torus2D:
		switch name {
		case "", "torus-greedy":
			return routing.TorusGreedy{T: t}, nil
		}
	case *topology.Linear:
		switch name {
		case "", "linear":
			return routing.LinearRoute{L: t}, nil
		}
	case *topology.ArrayKD:
		switch name {
		case "", "greedy-kd":
			return routing.GreedyKD{A: t}, nil
		}
	case *topology.Hypercube:
		switch name {
		case "", "cube-greedy":
			return routing.CubeGreedy{H: t}, nil
		}
	}
	return nil, fmt.Errorf("workload: router %q unavailable on %s", name, net.Name())
}

// PatternSpec names a traffic pattern declaratively.
type PatternSpec struct {
	// Kind is one of uniform | hotspot | transpose | bitrev | bitcomp |
	// tornado | neighbor | zipf.
	Kind string `json:"kind"`
	// K is the hot-set size (hotspot; default 1).
	K int `json:"k,omitempty"`
	// Weight is the hot traffic fraction (hotspot; default 0.2).
	Weight float64 `json:"weight,omitempty"`
	// Hot explicitly lists hot destinations (hotspot).
	Hot []int `json:"hot,omitempty"`
	// S is the decay exponent (zipf; default 2).
	S float64 `json:"s,omitempty"`
}

// Pattern resolves the spec to a Pattern value.
func (p PatternSpec) Pattern() (Pattern, error) {
	switch p.Kind {
	case "", "uniform":
		return Uniform{}, nil
	case "hotspot":
		h := HotSpot{Hot: p.Hot, K: p.K, Weight: p.Weight}
		if h.Weight == 0 {
			h.Weight = 0.2
		}
		return h, nil
	case "transpose":
		return Transpose{}, nil
	case "bitrev":
		return BitReversal{}, nil
	case "bitcomp":
		return BitComplement{}, nil
	case "tornado":
		return Tornado{}, nil
	case "neighbor":
		return NearestNeighbor{}, nil
	case "zipf":
		z := ZipfDistance{S: p.S}
		if z.S == 0 {
			z.S = 2
		}
		return z, nil
	default:
		return nil, fmt.Errorf("workload: unknown pattern kind %q", p.Kind)
	}
}

// String renders the spec compactly for tables and descriptions.
func (p PatternSpec) String() string {
	switch p.Kind {
	case "", "uniform":
		return "uniform"
	case "hotspot":
		k, w := p.K, p.Weight
		if len(p.Hot) > 0 {
			k = len(p.Hot)
		} else if k == 0 {
			k = 1
		}
		if w == 0 {
			w = 0.2
		}
		return fmt.Sprintf("hotspot(k=%d,w=%.2f)", k, w)
	case "zipf":
		s := p.S
		if s == 0 {
			s = 2
		}
		return fmt.Sprintf("zipf(s=%.1f)", s)
	default:
		return p.Kind
	}
}

// ArrivalSpec names an arrival process declaratively. The process is
// parameterized by its mean rate at Bind time, so one spec serves every
// load point.
type ArrivalSpec struct {
	// Kind is one of poisson (default) | bursty | periodic.
	Kind string `json:"kind,omitempty"`
	// BurstFactor is the on-phase rate multiplier (bursty; default 4).
	BurstFactor float64 `json:"burstFactor,omitempty"`
	// MeanOn and MeanOff are the mean burst and gap durations (bursty;
	// defaults 10 and 30).
	MeanOn  float64 `json:"meanOn,omitempty"`
	MeanOff float64 `json:"meanOff,omitempty"`
}

func (a ArrivalSpec) withDefaults() ArrivalSpec {
	if a.Kind == "" {
		a.Kind = "poisson"
	}
	if a.BurstFactor == 0 {
		a.BurstFactor = 4
	}
	if a.MeanOn == 0 {
		a.MeanOn = 10
	}
	if a.MeanOff == 0 {
		a.MeanOff = 30
	}
	return a
}

// factory returns the sim.Config.Arrivals factory for the given mean
// merged rate. Poisson returns nil: the engine's built-in merged clock is
// the same process on its allocation-free fast path.
func (a ArrivalSpec) factory(meanRate float64) (func() sim.ArrivalProcess, error) {
	a = a.withDefaults()
	switch a.Kind {
	case "poisson":
		return nil, nil
	case "bursty":
		m, err := OnOff(meanRate, a.BurstFactor, a.MeanOn, a.MeanOff)
		if err != nil {
			return nil, err
		}
		return m.New, nil
	case "periodic":
		p := Periodic{Interval: 1 / meanRate}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p.New, nil
	default:
		return nil, fmt.Errorf("workload: unknown arrival kind %q", a.Kind)
	}
}

// String renders the spec compactly.
func (a ArrivalSpec) String() string {
	a = a.withDefaults()
	switch a.Kind {
	case "bursty":
		return fmt.Sprintf("bursty(x%.1f,on=%g,off=%g)", a.BurstFactor, a.MeanOn, a.MeanOff)
	default:
		return a.Kind
	}
}

// Scenario is a declarative, JSON-serializable simulation campaign:
// topology, router, traffic pattern, arrival process, load points and
// replication. Load points are fractions of the pattern's analytic
// saturation rate λ*, so the same scenario shape transfers across
// topologies and patterns.
type Scenario struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Topology    TopologySpec `json:"topology"`
	// Router names the routing policy; "" picks the topology's canonical
	// greedy router.
	Router   string      `json:"router,omitempty"`
	Pattern  PatternSpec `json:"pattern"`
	Arrivals ArrivalSpec `json:"arrivals,omitempty"`
	// Loads are fractions of λ* in (0, 1), one simulated point each.
	Loads []float64 `json:"loads"`
	// Horizon is the measured time per run (default 4000); Warmup
	// defaults to Horizon/4.
	Horizon float64 `json:"horizon,omitempty"`
	Warmup  float64 `json:"warmup,omitempty"`
	// Replicas per load point (default 4) and the base Seed (default 1).
	Replicas int    `json:"replicas,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// Shards is the intra-run tile parallelism of the slotted engine
	// (stepsim.Config.Shards): 0 lets the sweep pool spend spare cores
	// inside runs automatically, 1 forces serial runs, N > 1 forces N
	// tiles. The slotted engine's results are bit-identical at every
	// value, so the knob only changes wall-clock. The event-driven engine
	// has no intra-run parallelism and ignores it.
	Shards int `json:"shards,omitempty"`
	// Lookahead is the slotted engine's batched-barrier depth
	// (stepsim.Config.Lookahead): tiles run up to k consecutive slots
	// between global barriers, clamped to what the tile plan supports.
	// Results are bit-identical at every depth — like Shards this is a
	// wall-clock knob, never a semantic one — and the event-driven
	// engine ignores it.
	Lookahead int `json:"lookahead,omitempty"`
	// TargetCI, when positive, switches the scenario's sweeps to adaptive
	// replica stopping: each load point runs between MinReplicas and
	// MaxReplicas replicas (defaults 4 and 64) and stops as soon as the
	// 95% half-width of its delay estimate is ≤ TargetCI. Replicas is
	// then ignored. Zero keeps the fixed-replica default path.
	TargetCI    float64 `json:"targetCI,omitempty"`
	MinReplicas int     `json:"minReplicas,omitempty"`
	MaxReplicas int     `json:"maxReplicas,omitempty"`
	// WarmStart chains engine snapshots along the load ladder: each
	// point's replicas resume from the previous point's captured steady
	// state with RewarmSlots of re-warm (slots for the slotted engine,
	// the same number as time units for the event engine's τ = 1
	// convention) instead of the full Warmup. Poisson arrivals only.
	WarmStart   bool `json:"warmStart,omitempty"`
	RewarmSlots int  `json:"rewarmSlots,omitempty"`
	// Faults declares the degraded-array layer (internal/fault): link and
	// node up–down failure processes, scheduled regional outages, and
	// misbehaving routers that delay, misroute or drop the packets they
	// forward. Nil or all-zero leaves both engines on their fault-free
	// paths bit-identically; an enabled spec switches routing to
	// greedy-with-recovery and surfaces drop/detour/downtime counters in
	// the sweep results. Incompatible with warmStart: fault processes are
	// not snapshottable.
	Faults *fault.Spec `json:"faults,omitempty"`
}

// ParseScenario decodes and validates a JSON scenario. Unknown fields are
// errors, not silently dropped: a misspelled or retired knob would
// otherwise run (and be cached) as if it had never been asked for.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("workload: bad scenario JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("workload: bad scenario JSON: trailing data after the scenario object")
	}
	return s, s.Validate()
}

func (s Scenario) withDefaults() Scenario {
	if s.Horizon == 0 {
		s.Horizon = 4000
	}
	if s.Warmup == 0 {
		s.Warmup = s.Horizon / 4
	}
	if s.Replicas == 0 {
		s.Replicas = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Quick returns a copy shrunk for smoke runs: 5% of the horizon and two
// replicas, mirroring experiments.Options.Quick.
func (s Scenario) Quick() Scenario {
	s = s.withDefaults()
	s.Horizon *= 0.05
	s.Warmup *= 0.05
	s.Replicas = 2
	return s
}

// Validate checks the scenario is well-formed, including that the
// pattern, router and arrival process all bind to the topology. It is
// exactly Bind with the result discarded, so validation and lowering can
// never disagree.
func (s Scenario) Validate() error {
	_, err := s.Bind()
	return err
}

// checkFields rejects malformed scalar fields before anything is built.
func (s Scenario) checkFields() error {
	if s.Name == "" {
		return fmt.Errorf("workload: scenario needs a name")
	}
	if len(s.Loads) == 0 {
		return fmt.Errorf("workload: scenario %q has no load points", s.Name)
	}
	for _, l := range s.Loads {
		if !(l > 0 && l < 1) {
			return fmt.Errorf("workload: scenario %q load %v outside (0, 1); loads are fractions of lambda*", s.Name, l)
		}
	}
	if s.Horizon < 0 || s.Warmup < 0 {
		return fmt.Errorf("workload: scenario %q has negative horizon or warmup", s.Name)
	}
	if s.Replicas < 0 {
		return fmt.Errorf("workload: scenario %q has negative replicas", s.Name)
	}
	if s.Shards < 0 {
		return fmt.Errorf("workload: scenario %q has negative shards", s.Name)
	}
	if s.Lookahead < 0 {
		return fmt.Errorf("workload: scenario %q has negative lookahead", s.Name)
	}
	if s.TargetCI < 0 || s.MinReplicas < 0 || s.MaxReplicas < 0 || s.RewarmSlots < 0 {
		return fmt.Errorf("workload: scenario %q has a negative variance-reduction knob", s.Name)
	}
	if s.MinReplicas > 0 && s.MaxReplicas > 0 && s.MaxReplicas < s.MinReplicas {
		return fmt.Errorf("workload: scenario %q has maxReplicas %d < minReplicas %d", s.Name, s.MaxReplicas, s.MinReplicas)
	}
	if kind := s.Arrivals.withDefaults().Kind; kind != "poisson" && s.WarmStart {
		return fmt.Errorf("workload: scenario %q uses %s arrivals; warm starts need Poisson arrivals (snapshottable engines)", s.Name, kind)
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("workload: scenario %q: %w", s.Name, err)
	}
	if s.Faults.Enabled() && s.WarmStart {
		return fmt.Errorf("workload: scenario %q combines faults with warmStart; fault processes are not snapshottable", s.Name)
	}
	return nil
}

// Point is one lowered load point.
type Point struct {
	// Load is the fraction of λ* and NodeRate the resulting per-node
	// generation rate.
	Load     float64
	NodeRate float64
}

// Bound is a scenario lowered onto a concrete network: the bound demand,
// its exact analysis, and one sim.Config per load point, ready for
// sim.StreamSweep.
type Bound struct {
	Scenario Scenario
	Net      topology.Network
	Router   routing.Router
	Demand   *Demand
	Analysis *Analysis
	// Faults is the scenario's fault spec lowered against Net (nil when
	// the scenario declares none); every config below shares it.
	Faults  *fault.Plan
	Points  []Point
	Configs []sim.Config
}

// Bind validates and lowers the scenario. Every config shares the base
// seed (common random numbers across load points; replicas split their
// streams inside the sweep pool).
func (s Scenario) Bind() (*Bound, error) {
	if err := s.checkFields(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	net, err := s.Topology.Build()
	if err != nil {
		return nil, err
	}
	router, err := buildRouter(s.Router, net)
	if err != nil {
		return nil, err
	}
	pat, err := s.Pattern.Pattern()
	if err != nil {
		return nil, err
	}
	demand, err := pat.Bind(net)
	if err != nil {
		return nil, err
	}
	analysis, err := Analyze(net, router, demand, nil)
	if err != nil {
		return nil, err
	}
	if math.IsInf(analysis.LambdaStar, 1) {
		return nil, fmt.Errorf("workload: scenario %q generates no edge traffic; nothing to simulate", s.Name)
	}
	numSources := len(topology.Sources(net))
	b := &Bound{
		Scenario: s,
		Net:      net,
		Router:   router,
		Demand:   demand,
		Analysis: analysis,
	}
	if s.Faults.Enabled() {
		// One plan for every load point and both engines: the degradation
		// is a property of the network, not of the traffic level.
		b.Faults, err = s.Faults.Bind(net)
		if err != nil {
			return nil, err
		}
	}
	for _, load := range s.Loads {
		perNode := load * analysis.LambdaStar
		cfg := sim.Config{
			Net:     net,
			Router:  router,
			Dest:    demand,
			Warmup:  s.Warmup,
			Horizon: s.Horizon,
			Seed:    s.Seed,
			// The analysis above already proved every edge utilization is
			// load < 1 via the same demand and steppers, so the engine's
			// per-run route re-enumeration would be pure redundancy across
			// replicas; callers who raise rates on a bound config after
			// the fact forfeit the check.
			AllowUnstable: true,
			Faults:        b.Faults,
		}
		factory, err := s.Arrivals.factory(perNode * float64(numSources))
		if err != nil {
			return nil, err
		}
		if factory != nil {
			cfg.Arrivals = factory
		} else {
			cfg.NodeRate = perNode
		}
		b.Points = append(b.Points, Point{Load: load, NodeRate: perNode})
		b.Configs = append(b.Configs, cfg)
	}
	return b, nil
}

// SlottedConfigs lowers the bound scenario onto the synchronous slotted
// engine (internal/stepsim): one stepsim.Config per load point, with the
// per-node rate reinterpreted as the per-slot Poisson batch mean (τ = 1, so
// a load point means the same offered traffic as the event engine's
// SlotTau = 1 mode) and the horizon/warmup rounded to whole slots. Only
// Poisson arrivals have a slotted counterpart: bursty and periodic
// scenarios are rejected, as are routers without an incremental stepper
// form (none of the built-ins are).
func (b *Bound) SlottedConfigs() ([]stepsim.Config, error) {
	s := b.Scenario.withDefaults()
	if kind := s.Arrivals.withDefaults().Kind; kind != "poisson" {
		return nil, fmt.Errorf("workload: scenario %q uses %s arrivals; the slotted engine models only per-slot Poisson batches", s.Name, kind)
	}
	if _, _, ok := routing.Steppers(b.Router); !ok {
		return nil, fmt.Errorf("workload: scenario %q router %T has no incremental stepper form required by the slotted engine", s.Name, b.Router)
	}
	slots := int(s.Horizon + 0.5)
	warmup := int(s.Warmup + 0.5)
	if slots <= 0 {
		return nil, fmt.Errorf("workload: scenario %q horizon %v rounds to zero slots", s.Name, s.Horizon)
	}
	cfgs := make([]stepsim.Config, 0, len(b.Points))
	for _, pt := range b.Points {
		cfgs = append(cfgs, stepsim.Config{
			Net:         b.Net,
			Router:      b.Router,
			Dest:        b.Demand,
			NodeRate:    pt.NodeRate,
			WarmupSlots: warmup,
			Slots:       slots,
			Seed:        s.Seed,
			// Shards = 0 stays 0 here: the sweep pool resolves it to the
			// spare-core factor at run time (stepsim.StreamSweep).
			Shards:    s.Shards,
			Lookahead: s.Lookahead,
			Faults:    b.Faults,
		})
	}
	return cfgs, nil
}

// SweepOpts lowers the scenario's replication policy for either engine's
// sweep driver (sim.StreamSweepAdaptive, stepsim.StreamSweepAdaptive).
// workers bounds the pool's goroutines (0 means GOMAXPROCS); RewarmSlots
// carries over as the same number of time units for the event engine.
func (s Scenario) SweepOpts(workers int) sweep.Opts {
	s = s.withDefaults()
	return sweep.Opts{
		Replicas:  s.Replicas,
		Workers:   workers,
		TargetCI:  s.TargetCI,
		MinReps:   s.MinReplicas,
		MaxReps:   s.MaxReplicas,
		WarmStart: s.WarmStart,
		Rewarm:    float64(s.RewarmSlots),
	}
}

// SweepOpts is Scenario.SweepOpts for the bound scenario.
func (b *Bound) SweepOpts(workers int) sweep.Opts {
	return b.Scenario.SweepOpts(workers)
}

// SlottedSweepOpts is SweepOpts for the slotted engine; both engines take
// the same options.
func (b *Bound) SlottedSweepOpts(workers int) sweep.Opts {
	return b.Scenario.SweepOpts(workers)
}
