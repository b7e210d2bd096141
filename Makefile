# Development targets. CI runs the same sequence (.github/workflows/ci.yml).

BENCH ?= BenchmarkSimulatorEvents
COUNT ?= 5

.PHONY: test race examples scenario-smoke sparse-smoke lookahead-smoke warmstart-smoke sweepd-smoke crashsafe-smoke fault-smoke bench bench-slotted bench-sparse bench-sharded bench-lookahead bench-json bench-compare profile vet

test:
	go vet ./...
	go build ./...
	go test ./...

# race runs the full suite under the race detector (the sweep pool and
# StreamSweep collector are the concurrency surface).
race:
	go test -race ./...

# examples compiles every runnable program under examples/.
examples:
	go build ./examples/...

# scenario-smoke exercises the workload subsystem end to end: registry
# listing, spec validation, and one quick simulated ladder per arrival
# model. CI runs it on every push.
scenario-smoke:
	go run ./cmd/scenario list
	go run ./cmd/scenario validate tornado-8x8
	go run ./cmd/scenario run hotspot-8x8 -quick -replicas 2
	go run ./cmd/scenario run uniform-8x8 -quick -replicas 2 -engine slotted
	go run ./cmd/scenario run uniform-8x8 -quick -replicas 2 -engine slotted -shards 2
	go run ./cmd/scenario run uniform-8x8 -quick -replicas 2 -engine slotted -shards 2 -lookahead 4
	go run ./cmd/scenario run bursty-8x8 -quick -replicas 2 -json >/dev/null

# sweepd-smoke boots the sweep service (cmd/sweepd) on an ephemeral port
# and drives the whole contract from outside the process: submit a
# scenario, stream every ladder point over SSE, resubmit the identical
# spec and require the byte-identical cached result with "cached": true,
# and scrape the hit counter off /metrics.
sweepd-smoke:
	./scripts/sweepd_smoke.sh

# crashsafe-smoke proves the durable multi-process story end to end,
# under the race detector: a front-end and a separate worker process
# share a journal directory, the worker is kill -9'd mid-ladder-point-2,
# a fresh worker steals the stale lease, requeues with retry=1, and
# resumes from the checkpoint — and the final result document must be
# byte-identical to an uninterrupted run of the same spec. Also asserts
# the client's SSE stream survives the crash (every point exactly once)
# and that a SIGTERM'd worker drains gracefully with exit 0.
crashsafe-smoke:
	./scripts/crashsafe_smoke.sh

# sparse-smoke is the low-load large-array regression tripwire CI runs:
# a 256×256 rho=0.1 run on the sparse slotted engine must finish inside a
# generous wall-clock budget (an O(N·T) cost regression blows the
# timeout loudly) and match its pinned golden bits.
sparse-smoke:
	go test -count=1 -timeout 180s -run 'TestSparseLowLoadGolden' ./internal/stepsim/

# lookahead-smoke is the batched-barrier tripwire CI runs under the race
# detector with real parallelism: the full-length 256×256 low-load run on
# 3 tiles with 8-slot barrier batches must reproduce the serial engine's
# pinned Float64bits goldens exactly and report precisely
# shards·ceil(slots/8) barrier waits — a regression that silently falls
# back to per-slot barriers fails here, not as quiet wall-clock drift.
lookahead-smoke:
	GOMAXPROCS=4 go test -race -count=1 -timeout 300s -run 'TestLookaheadSmokeGolden' ./internal/stepsim/

# fault-smoke is the degraded-array exercise CI runs under the race
# detector: a 64×64 hotspot run at rho=0.5 with 1% of links failing
# (MTBF 2000 / MTTR 40 slots) and three delay-liar routers, asserting
# recovery detours and sane downtime accounting, then the internal/verify
# detection experiment, which must flag exactly the three seeded liars
# with zero false positives.
fault-smoke:
	go test -race -count=1 -timeout 300s -run 'TestFaultSmoke' ./internal/verify/

# warmstart-smoke is the snapshot/warm-start tripwire CI runs under the
# race detector, full-length: both engines' snapshot batteries (bit-exact
# continuation goldens, wire round-trips, reject paths), the adaptive
# sequential-stopping pool of the shared sweep driver (a concurrency
# surface: workers inject batch tasks mid-flight), warm-start ladder
# chains, and the CRN paired-difference design.
warmstart-smoke:
	go test -race -count=1 -timeout 300s -run 'Snapshot|WarmStart|Adaptive|CRN' ./internal/sim/ ./internal/stepsim/ ./internal/sweep/

# bench runs the hot-path benchmarks with allocation reporting.
bench:
	go test -run='^$$' -bench='$(BENCH)' -benchmem -benchtime=2s -count=$(COUNT) .

# bench-sparse measures the slotted engine across the load ladder (the
# sparse rows of BENCH.md's "Sparse engine" tables; the dense baseline
# they were compared against has been removed).
bench-sparse:
	go test -run='^$$' -bench='BenchmarkStepSlotsLoad' -benchmem -benchtime=2s -count=$(COUNT) .

# bench-json records the benchmark trajectory machine-readably: the full
# suite at BENCHTIME, parsed by cmd/benchjson into BENCH_<UTC-date>.json
# (benchmark name -> ns/op, B/op, allocs/op, custom metrics, plus
# goos/goarch/cpu/GOMAXPROCS metadata). CI runs this on every push and
# uploads the file as an artifact, turning BENCH.md's prose history into
# a diffable series. Raise BENCHTIME (e.g. BENCHTIME=2s) for numbers
# worth comparing across machines.
BENCHTIME ?= 1x
bench-json:
	# Capture to a file, no pipe: a benchmark that panics or fails to
	# compile must fail this target (and CI), not vanish behind
	# benchjson's exit status (POSIX sh has no pipefail).
	go test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... > bench-json.tmp || \
		{ cat bench-json.tmp; rm -f bench-json.tmp; exit 1; }
	@cat bench-json.tmp
	go run ./cmd/benchjson -out BENCH_$$(date -u +%Y-%m-%d).json < bench-json.tmp
	@rm -f bench-json.tmp
	@echo "wrote BENCH_$$(date -u +%Y-%m-%d).json"

# bench-slotted measures the synchronous slotted engine and the Poisson
# sampler, plus the pre-rewrite pointer engine (the test oracle) for a
# before/after table — see the slotted section of BENCH.md.
bench-slotted:
	go test -run='^$$' -bench='BenchmarkStepSlots$$|BenchmarkPoissonDraw' -benchmem -benchtime=2s -count=$(COUNT) .
	go test -run='^$$' -bench='BenchmarkStepSlotsOracle' -benchmem -benchtime=2s -count=$(COUNT) ./internal/stepsim/

# bench-sharded measures the tile-sharded slotted engine at 1/2/4 tiles
# (serial-vs-sharded wall-clock; results are bit-identical by contract).
# Run with GOMAXPROCS >= 4 on a multi-core box for meaningful ratios.
bench-sharded:
	go test -run='^$$' -bench='BenchmarkStepSlotsSharded' -benchmem -benchtime=2s -count=$(COUNT) .

# bench-lookahead is the batched-barrier A/B (the BENCH.md "Batched
# barriers" tables): the same low-load sharded run at barrier depth 1 and
# 8, with barriers/op recording the amortization exactly even where
# wall-clock is noisy.
bench-lookahead:
	go test -run='^$$' -bench='BenchmarkStepSlotsLookahead' -benchmem -benchtime=2s -count=$(COUNT) .

# profile records CPU and heap profiles for the two hot engines into
# ./prof/ so perf work starts from a flame graph instead of guesses. The
# test binary is kept next to the profiles for symbolization.
profile:
	mkdir -p prof
	go test -run='^$$' -bench='BenchmarkStepSlots$$' -benchtime=2s \
		-cpuprofile=prof/stepslots.cpu.pb.gz -memprofile=prof/stepslots.mem.pb.gz \
		-o prof/stepslots.test .
	go test -run='^$$' -bench='BenchmarkSimulatorEvents$$' -benchtime=2s \
		-cpuprofile=prof/simevents.cpu.pb.gz -memprofile=prof/simevents.mem.pb.gz \
		-o prof/simevents.test .
	@echo ""
	@echo "profiles recorded; explore with:"
	@echo "  go tool pprof -top prof/stepslots.test prof/stepslots.cpu.pb.gz"
	@echo "  go tool pprof -top -sample_index=alloc_space prof/stepslots.test prof/stepslots.mem.pb.gz"
	@echo "  go tool pprof -top prof/simevents.test prof/simevents.cpu.pb.gz"
	@echo "  go tool pprof -http=:8080 prof/stepslots.test prof/stepslots.cpu.pb.gz   # flame graph"

# bench-compare records $(COUNT) runs into bench-{old,new}.txt across two
# checkouts and diffs them with benchstat:
#
#   git stash && make bench-compare-old && git stash pop && make bench-compare-new
#   benchstat bench-old.txt bench-new.txt
.PHONY: bench-compare-old bench-compare-new bench-compare
bench-compare-old:
	go test -run='^$$' -bench='$(BENCH)' -benchmem -benchtime=2s -count=$(COUNT) . | tee bench-old.txt
bench-compare-new:
	go test -run='^$$' -bench='$(BENCH)' -benchmem -benchtime=2s -count=$(COUNT) . | tee bench-new.txt
bench-compare: bench-compare-new
	@test -f bench-old.txt || { echo "run 'make bench-compare-old' on the baseline checkout first"; exit 1; }
	@command -v benchstat >/dev/null && benchstat bench-old.txt bench-new.txt || \
		echo "benchstat not installed; compare bench-old.txt and bench-new.txt manually"

vet:
	go vet ./...
