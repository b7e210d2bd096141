package sweep

import (
	"context"
	"runtime"
	"sync"
)

// poolErr reports the cancellation error tasks should fast-fail with, or
// nil while ctx (which may be nil, meaning "never canceled") is live.
func poolErr(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// StreamCellsAdaptive is the deterministic worker pool under every sweep:
// every cell starts with minReps tasks and, whenever a cell's launched
// batch completes, stop(cell, prefix) is asked — on the cell's complete
// replica prefix — whether the estimate has converged. A cell that has not
// converged launches another batch (half again the current count, at least
// one, capped at maxReps); a converged, errored or capped cell is finalized
// and emitted once all earlier cells have been. emit receives exactly the
// replicas that ran. A fixed-count sweep is the one-rung ladder
// minReps = maxReps, on which stop is never asked.
//
// newRun is invoked once per worker goroutine (0 workers means GOMAXPROCS)
// and returns that worker's task function — per-worker state (a reused
// engine) lives in its closure. err is the first-observed per-replica error
// of the cell (rs is nil when err is non-nil).
//
// Determinism: batch boundaries form a fixed ladder (minReps, then ×1.5
// rounded down until maxReps), stop is evaluated only at those boundaries
// on complete prefixes, and callers derive replica r's stream from r alone
// (Split(seed, r), as Stream does) — so the number of replicas a cell
// uses is a pure function of the cell's results, independent of worker
// count and scheduling. stop must be a pure function of its arguments; it
// may be invoked on any worker goroutine. emit runs on the calling
// goroutine, in input order.
//
// Cancellation: once ctx is canceled, workers stop starting tasks and
// fast-fail the remainder with the context's cause; cells whose tasks were
// skipped finalize with that error, so emit still fires exactly once per
// cell, in order, and every goroutine exits before StreamCellsAdaptive
// returns. Uncanceled runs are unaffected: the poll is pure control flow
// and never touches a variate stream.
func StreamCellsAdaptive[R any](ctx context.Context, cells, minReps, maxReps, workers int,
	newRun func() func(cell, rep int) (R, error),
	stop func(cell int, prefix []R) bool,
	emit func(cell int, rs []R, err error)) {
	if cells <= 0 {
		return
	}
	if minReps < 1 {
		minReps = 1
	}
	if maxReps < minReps {
		maxReps = minReps
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cells*maxReps {
		workers = cells * maxReps
	}

	type task struct {
		cell, rep int
	}
	type cellState struct {
		results     []R
		launched    int // replicas handed to the pool so far
		outstanding int // launched but not yet finished
		err         error
	}
	type finalCell struct {
		cell int
		rs   []R
		err  error
	}

	// The pool is a mutex-guarded pending queue rather than a feeder
	// channel because workers inject new tasks mid-flight: a batch
	// boundary reached inside one worker must wake the others.
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		states    = make([]cellState, cells)
		pending   = make([]task, 0, cells*minReps)
		remaining = cells
		done      bool
		finalized = make(chan finalCell, cells) // one send per cell: never blocks
	)
	for c := 0; c < cells; c++ {
		states[c].results = make([]R, minReps)
		states[c].launched = minReps
		states[c].outstanding = minReps
		for r := 0; r < minReps; r++ {
			pending = append(pending, task{cell: c, rep: r})
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newRun()
			mu.Lock()
			for {
				for len(pending) == 0 && !done {
					cond.Wait()
				}
				if len(pending) == 0 {
					mu.Unlock()
					return
				}
				tk := pending[0]
				pending = pending[1:]
				mu.Unlock()
				var res R
				err := poolErr(ctx)
				if err == nil {
					res, err = run(tk.cell, tk.rep)
				}
				mu.Lock()
				st := &states[tk.cell]
				st.results[tk.rep] = res
				if err != nil && st.err == nil {
					st.err = err
				}
				if st.outstanding--; st.outstanding > 0 {
					continue
				}
				// Batch boundary: results[:launched] is a complete prefix.
				if st.err == nil && st.launched < maxReps && !stop(tk.cell, st.results[:st.launched]) {
					next := st.launched + max(1, st.launched/2)
					if next > maxReps {
						next = maxReps
					}
					var zero R
					for r := st.launched; r < next; r++ {
						st.results = append(st.results, zero)
						pending = append(pending, task{cell: tk.cell, rep: r})
					}
					st.outstanding = next - st.launched
					st.launched = next
					cond.Broadcast()
					continue
				}
				fc := finalCell{cell: tk.cell, rs: st.results[:st.launched], err: st.err}
				st.results = nil
				if remaining--; remaining == 0 {
					done = true
					cond.Broadcast()
				}
				finalized <- fc
			}
		}()
	}

	// Reorder-buffer collector: cells finalize in any order but emit in
	// input order on the calling goroutine.
	resBuf := make([][]R, cells)
	errBuf := make([]error, cells)
	ready := make([]bool, cells)
	next := 0
	for i := 0; i < cells; i++ {
		fc := <-finalized
		resBuf[fc.cell], errBuf[fc.cell], ready[fc.cell] = fc.rs, fc.err, true
		for next < cells && ready[next] {
			if errBuf[next] != nil {
				emit(next, nil, errBuf[next])
			} else {
				emit(next, resBuf[next], nil)
			}
			resBuf[next] = nil
			next++
		}
	}
	wg.Wait()
}

// SpareFactor returns how many intra-run worker goroutines each task of a
// cells×replicas sweep can use without oversubscribing `workers` (0 means
// GOMAXPROCS): the pool parallelizes across tasks first, and only when
// there are fewer tasks than cores is there spare capacity to spend inside
// a run. The slotted engine spends it on intra-run shards at the tail of a
// sweep — a 2-point × 1-replica sweep on an 8-core box gets 4-way sharded
// runs instead of 6 idle cores. The event-driven engine has no intra-run
// parallelism and ignores it.
//
// Shard counts chosen this way are machine-dependent, which is safe only
// because the sharded slotted engine's results are bit-identical for
// every shard count; determinism across machines and worker counts is
// preserved.
func SpareFactor(cells, replicas, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if replicas < 1 {
		replicas = 1
	}
	total := cells * replicas
	if total <= 0 || workers <= total {
		return 1
	}
	return workers / total
}
