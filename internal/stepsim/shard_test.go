package stepsim

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bounds"
	"repro/internal/routing"
	"repro/internal/topology"
)

// requireSameBits asserts two Results are math.Float64bits-identical in
// every measured quantity, including the per-packet Welford moments.
func requireSameBits(t *testing.T, label string, got, want Result) {
	t.Helper()
	if math.Float64bits(got.MeanDelay) != math.Float64bits(want.MeanDelay) {
		t.Errorf("%s: MeanDelay %v != %v", label, got.MeanDelay, want.MeanDelay)
	}
	if math.Float64bits(got.MeanN) != math.Float64bits(want.MeanN) {
		t.Errorf("%s: MeanN %v != %v", label, got.MeanN, want.MeanN)
	}
	if got.Delivered != want.Delivered {
		t.Errorf("%s: Delivered %d != %d", label, got.Delivered, want.Delivered)
	}
	if got.Generated != want.Generated {
		t.Errorf("%s: Generated %d != %d", label, got.Generated, want.Generated)
	}
	if math.Float64bits(got.MeanActiveEdges) != math.Float64bits(want.MeanActiveEdges) {
		t.Errorf("%s: MeanActiveEdges %v != %v", label, got.MeanActiveEdges, want.MeanActiveEdges)
	}
	if math.Float64bits(got.ArrivalSlotFraction) != math.Float64bits(want.ArrivalSlotFraction) {
		t.Errorf("%s: ArrivalSlotFraction %v != %v", label, got.ArrivalSlotFraction, want.ArrivalSlotFraction)
	}
	if got.Delay.Count() != want.Delay.Count() ||
		math.Float64bits(got.Delay.Mean()) != math.Float64bits(want.Delay.Mean()) ||
		math.Float64bits(got.Delay.Variance()) != math.Float64bits(want.Delay.Variance()) ||
		got.Delay.Min() != want.Delay.Min() || got.Delay.Max() != want.Delay.Max() {
		t.Errorf("%s: per-packet Welford statistics diverge", label)
	}
}

// TestShardInvariance is the determinism contract of the tentpole: one
// hostile set of configurations — a randomized router near saturation, odd
// array sizes that do not tile evenly, a torus with wraparound boundary
// crossings, a hypercube whose single hops jump across every tile — must
// produce Float64bits-identical Results at shards ∈ {1, 2, 3, 8} and on
// a fresh serial run.
func TestShardInvariance(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{}
	{
		// Odd-sized array, randomized router, load close to λ*: the
		// boundary handoff order and the per-packet coins both matter.
		a := topology.NewArray2D(13)
		cases = append(cases, struct {
			name string
			cfg  Config
		}{"array13-randgreedy-hot", Config{
			Net: a, Router: routing.RandGreedy{A: a},
			Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
			NodeRate:    bounds.LambdaTable(13, 0.92),
			WarmupSlots: 400, Slots: 3000, Seed: 101,
		}})
	}
	{
		// 7×13 k-d array: 91 nodes split into index ranges that align with
		// nothing; 8 shards force sub-row tiles.
		a := topology.NewArrayKD(7, 13)
		cases = append(cases, struct {
			name string
			cfg  Config
		}{"kd7x13-greedy", Config{
			Net: a, Router: routing.GreedyKD{A: a},
			Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
			NodeRate:    0.12,
			WarmupSlots: 300, Slots: 2500, Seed: 103,
		}})
	}
	{
		// Torus: band 0 and the last band are neighbors through wraparound.
		tor := topology.NewTorus2D(5)
		cases = append(cases, struct {
			name string
			cfg  Config
		}{"torus5-greedy", Config{
			Net: tor, Router: routing.TorusGreedy{T: tor},
			Dest:        routing.UniformDest{NumNodes: tor.NumNodes()},
			NodeRate:    0.15,
			WarmupSlots: 300, Slots: 2500, Seed: 107,
		}})
	}
	{
		// Hypercube: one hop can cross from any tile to any other, so all
		// handoff pairs are live.
		h := topology.NewHypercube(5)
		cases = append(cases, struct {
			name string
			cfg  Config
		}{"cube5-bernoulli", Config{
			Net: h, Router: routing.CubeGreedy{H: h},
			Dest:        routing.BernoulliCubeDest{H: h, P: 0.4},
			NodeRate:    0.1,
			WarmupSlots: 300, Slots: 2500, Seed: 109,
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if testing.Short() {
				// Keep the invariance coverage under -race -short; the
				// full-length versions run in the GOMAXPROCS=4 CI job.
				cfg.WarmupSlots /= 10
				cfg.Slots /= 10
			}
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sh Engine // shared across shard counts: reuse must not leak
			for _, shards := range []int{1, 2, 3, 8} {
				scfg := cfg
				scfg.Shards = shards
				got, err := sh.Run(scfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, tc.name, got, ref)
			}
		})
	}
}

// TestShardInvarianceMoreShardsThanRows pins the degenerate plans: shard
// counts past the row count leave trailing tiles empty, which must idle at
// the barrier without perturbing results.
func TestShardInvarianceMoreShardsThanRows(t *testing.T) {
	a := topology.NewArray2D(5)
	cfg := Config{
		Net: a, Router: routing.GreedyXY{A: a},
		Dest:        routing.UniformDest{NumNodes: a.NumNodes()},
		NodeRate:    bounds.LambdaTable(5, 0.7),
		WarmupSlots: 200, Slots: 1500, Seed: 5,
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8 // 3 empty tiles
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "shards=8 over 5 rows", got, ref)
}

// TestShardInvarianceRestrictedSources exercises the SourceSet split: only
// two nodes generate, and one tile may end up with no sources at all.
func TestShardInvarianceRestrictedSources(t *testing.T) {
	lin := topology.NewLinear(9)
	cfg := Config{
		Net:         topology.Restrict{Network: lin, Nodes: []int{1, 7}},
		Router:      routing.LinearRoute{L: lin},
		Dest:        routing.UniformDest{NumNodes: lin.NumNodes()},
		NodeRate:    0.3,
		WarmupSlots: 100, Slots: 2000, Seed: 11,
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		c := cfg
		c.Shards = shards
		got, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "restricted sources", got, ref)
	}
}

// TestShardedEngineReuseSteadyStateAllocs extends the serial reuse
// contract to sharded runs: after a warm first run, a 2-shard run costs
// only its per-run goroutine and bookkeeping setup — a handful of
// allocations, not per-packet or per-slot ones.
func TestShardedEngineReuseSteadyStateAllocs(t *testing.T) {
	cfg := arrayCfg(6, 0.8, 5)
	cfg.WarmupSlots, cfg.Slots = 200, 2000
	cfg.Shards = 2
	var sh Engine
	if _, err := sh.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		cfg.Seed++
		if _, err := sh.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Two worker goroutines plus late ring doublings on unlucky seeds.
	if allocs > 16 {
		t.Errorf("reused engine allocates %.0f times per run, want a handful", allocs)
	}
}

// TestStreamSweepAutoShardsDeterministic pins the pool's spare-core
// trade: a sweep with fewer tasks than workers auto-shards its runs
// (sim.SpareFactor), and because sharded results are bit-identical the
// sweep output must not depend on the worker count that triggered it —
// nor differ from an explicitly sharded or explicitly serial sweep.
func TestStreamSweepAutoShardsDeterministic(t *testing.T) {
	cfg := arrayCfg(6, 0.8, 77)
	cfg.WarmupSlots, cfg.Slots = 200, 1500
	serial, err := runSweep([]Config{cfg}, SweepOpts{Replicas: 1, Workers: 1}) // 1 task, 1 worker: spare=1
	if err != nil {
		t.Fatal(err)
	}
	auto, err := runSweep([]Config{cfg}, SweepOpts{Replicas: 1, Workers: 6}) // 1 task, 6 workers: spare=6
	if err != nil {
		t.Fatal(err)
	}
	explicit := cfg
	explicit.Shards = 3
	pinned, err := runSweep([]Config{explicit}, SweepOpts{Replicas: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range [][]ReplicaSet{auto, pinned} {
		if math.Float64bits(rs[0].MeanDelay) != math.Float64bits(serial[0].MeanDelay) ||
			rs[0].Delivered != serial[0].Delivered {
			t.Fatalf("sweep results depend on sharding: %v vs %v", rs[0].MeanDelay, serial[0].MeanDelay)
		}
	}
}

// TestStreamSweepAutoShardsClamped pins the runnability contract of
// auto-sharding: a worker count past the engine's tile limit (or a
// >1024-core machine) must clamp, not error every run.
func TestStreamSweepAutoShardsClamped(t *testing.T) {
	cfg := arrayCfg(4, 0.5, 9)
	cfg.WarmupSlots, cfg.Slots = 50, 300
	ref, err := runSweep([]Config{cfg}, SweepOpts{Replicas: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	huge, err := runSweep([]Config{cfg}, SweepOpts{Replicas: 1, Workers: 5000}) // spare factor 5000 > maxShards
	if err != nil {
		t.Fatalf("auto-sharding made the sweep unrunnable: %v", err)
	}
	if math.Float64bits(huge[0].MeanDelay) != math.Float64bits(ref[0].MeanDelay) {
		t.Error("clamped auto-sharded sweep diverged from serial")
	}
}

// TestBarrierLockstep hammers the sense-reversing barrier: n goroutines
// each perform many phased increments of a shared counter, and after every
// barrier the counter must be an exact multiple of n — any missed or
// double release shows up as a torn phase (run under -race in CI, which
// also verifies the barrier's happens-before edges).
func TestBarrierLockstep(t *testing.T) {
	const n, rounds = 4, 5000
	var b barrier
	b.init(n)
	var counter atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	fail := make(chan int64, n*4)
	for g := 0; g < n; g++ {
		go func() {
			defer wg.Done()
			var sense int32
			for r := 0; r < rounds; r++ {
				counter.Add(1)
				b.wait(&sense)
				if v := counter.Load(); v != int64(n*(r+1)) {
					select {
					case fail <- v:
					default:
					}
				}
				b.wait(&sense)
			}
		}()
	}
	wg.Wait()
	close(fail)
	for v := range fail {
		t.Fatalf("barrier released a phase early: counter %d not a full multiple", v)
	}
}

// TestShardedHandoffUnderRace drives a config where every slot crosses
// tile boundaries both ways, sized for the race detector (CI runs this
// package with -race): torus wraparound plus hot load keeps all handoff
// pairs and the barrier busy.
func TestShardedHandoffUnderRace(t *testing.T) {
	tor := topology.NewTorus2D(6)
	cfg := Config{
		Net: tor, Router: routing.TorusGreedy{T: tor},
		Dest:        routing.UniformDest{NumNodes: tor.NumNodes()},
		NodeRate:    0.2,
		WarmupSlots: 50, Slots: 400, Seed: 21,
		Shards: 3,
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "race rep", got, ref)
	}
}
