package activetime

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestGfeasBuildAllocs gates counted construction: building each Gfeas
// network — the checker and the separator, and CheckFeasible's checker
// plus its one solve — makes as many allocations at T = 2048 as at
// T = 256, because every adjacency list and every edge-reference list is
// carved out of one exactly sized array. A builder that grows its lists one
// arc at a time, or whose counts fall short of the arcs it adds, allocates
// more at the larger horizon. The collector is off while counting: a cycle
// started by the builds' own garbage allocates too, and would count against
// them.
func TestGfeasBuildAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	builds := []struct {
		name  string
		build func(in *core.Instance, open []core.Time)
	}{
		{"newFeasChecker", func(in *core.Instance, open []core.Time) { newFeasChecker(in, open) }},
		{"newSeparator", func(in *core.Instance, _ []core.Time) { newSeparator(in) }},
		{"CheckFeasible", func(in *core.Instance, open []core.Time) { CheckFeasible(in, open) }},
	}
	for _, b := range builds {
		var allocs []float64
		for _, T := range []int{256, 2048} {
			in := gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: 1})
			open := AllSlots(in)
			allocs = append(allocs, testing.AllocsPerRun(5, func() { b.build(in, open) }))
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations at T = 256, %v at T = 2048; want equal", b.name, allocs[0], allocs[1])
		} else {
			t.Logf("%s: %v allocations at either horizon", b.name, allocs[0])
		}
	}
}

// TestCutForAllocs gates the cut build: the cut of one job set costs two
// allocations, cols and vals at their exact length, at T = 256 as at
// T = 2048, because coverage is counted in the separator's per-atom
// scratch over the span of the set's windows, not in a fresh array. The
// scratch must come back all zero, or the next cut would count on top of
// it.
func TestCutForAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs []float64
	for _, T := range []int{256, 2048} {
		in := gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: 1})
		sep := newSeparator(in)
		A := make([]bool, len(in.Jobs))
		for i := range A {
			A[i] = i%3 != 1
		}
		var cols []int
		allocs = append(allocs, testing.AllocsPerRun(5, func() { cols, _, _ = sep.cutFor(A) }))
		if len(cols) != cap(cols) {
			t.Errorf("T = %d: cut has %d columns in a slice of capacity %d", T, len(cols), cap(cols))
		}
		for k, c := range sep.cov {
			if c != 0 {
				t.Fatalf("T = %d: coverage scratch of interval %d = %d after cutFor, want 0", T, k, c)
			}
		}
	}
	if allocs[0] != 2 || allocs[1] != 2 {
		t.Errorf("cutFor: %v allocations at T = 256, %v at T = 2048; want 2 at both", allocs[0], allocs[1])
	}
}
