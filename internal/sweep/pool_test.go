package sweep

import (
	"context"
	"fmt"
	"testing"
)

// TestStreamCellsAdaptiveLadder exercises the sequential-stopping pool on
// synthetic tasks: the replica count a cell uses must be the first rung of
// the deterministic ladder whose prefix satisfies stop, independent of the
// worker count, and cells must emit in input order.
func TestStreamCellsAdaptiveLadder(t *testing.T) {
	// Ladder from minReps 2: 2, 3, 4, 6, 9, 13, 19, 28, 42, 63, 64.
	targets := []int{1, 3, 5, 9, 20, 100} // per-cell "converged at" prefix length
	wantUsed := []int{2, 3, 6, 9, 28, 64} // first rung ≥ target (capped at 64)
	for _, workers := range []int{1, 3, 16} {
		used := make([]int, len(targets))
		order := make([]int, 0, len(targets))
		StreamCellsAdaptive(context.Background(), len(targets), 2, 64, workers,
			func() func(cell, rep int) (int, error) {
				return func(cell, rep int) (int, error) { return cell*1000 + rep, nil }
			},
			func(cell int, prefix []int) bool { return len(prefix) >= targets[cell] },
			func(cell int, rs []int, err error) {
				if err != nil {
					t.Fatalf("cell %d: unexpected error %v", cell, err)
				}
				for r, v := range rs {
					if v != cell*1000+r {
						t.Fatalf("cell %d replica %d: got %d", cell, r, v)
					}
				}
				used[cell] = len(rs)
				order = append(order, cell)
			})
		for c := range targets {
			if used[c] != wantUsed[c] {
				t.Errorf("workers=%d cell %d: used %d replicas, want %d", workers, c, used[c], wantUsed[c])
			}
			if order[c] != c {
				t.Errorf("workers=%d: emission order %v not input order", workers, order)
			}
		}
	}
}

// TestStreamCellsAdaptiveError pins error semantics: an errored cell stops
// launching, reports its first error, and does not disturb other cells.
func TestStreamCellsAdaptiveError(t *testing.T) {
	errs := make([]error, 3)
	used := make([]int, 3)
	StreamCellsAdaptive(context.Background(), 3, 2, 16, 4,
		func() func(cell, rep int) (int, error) {
			return func(cell, rep int) (int, error) {
				if cell == 1 && rep == 1 {
					return 0, fmt.Errorf("boom")
				}
				return rep, nil
			}
		},
		func(cell int, prefix []int) bool { return len(prefix) >= 4 },
		func(cell int, rs []int, err error) {
			errs[cell] = err
			used[cell] = len(rs)
		})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy cells errored: %v %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("errored cell reported no error")
	}
	if used[0] != 4 || used[2] != 4 {
		t.Fatalf("healthy cells used %d/%d replicas, want 4", used[0], used[2])
	}
}

func TestSpareFactor(t *testing.T) {
	cases := []struct {
		cells, replicas, workers, want int
	}{
		{4, 4, 8, 1}, // more tasks than workers: nothing spare
		{4, 2, 8, 1}, // exactly saturated
		{2, 1, 8, 4}, // 2 tasks on 8 workers: 4-way intra-run
		{1, 1, 6, 6}, // single run gets the whole machine
		{3, 1, 8, 2}, // rounds down: 8/3 = 2, never oversubscribes
		{1, 0, 5, 5}, // replicas clamp to 1
		{0, 1, 4, 1}, // empty sweep: factor is inert
		{1, 1, 1, 1}, // single worker: serial
	}
	for _, tc := range cases {
		if got := SpareFactor(tc.cells, tc.replicas, tc.workers); got != tc.want {
			t.Errorf("SpareFactor(%d,%d,%d) = %d, want %d", tc.cells, tc.replicas, tc.workers, got, tc.want)
		}
	}
}
