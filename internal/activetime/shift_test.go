package activetime

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestShiftInvarianceActive checks that the active-time algorithms depend
// only on relative time: shifting all windows by a constant leaves the
// minimal-feasible cost, the LP optimum, and the rounded cost unchanged.
func TestShiftInvarianceActive(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const delta = core.Time(19)
	for trial := 0; trial < 25; trial++ {
		in := randInstance(rng, 6, 9, 3)
		if !CheckFeasible(in, AllSlots(in)) {
			continue
		}
		shifted := in.Clone().Shift(delta)
		ma, err := MinimalFeasible(in, MinimalOptions{Strategy: CloseRightToLeft})
		if err != nil {
			t.Fatal(err)
		}
		mb, err := MinimalFeasible(shifted, MinimalOptions{Strategy: CloseRightToLeft})
		if err != nil {
			t.Fatal(err)
		}
		if ma.Cost() != mb.Cost() {
			t.Errorf("trial %d: minimal feasible not shift-invariant: %d vs %d",
				trial, ma.Cost(), mb.Cost())
		}
		la, err := SolveLP(in)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := SolveLP(shifted)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(la.Objective-lb.Objective) > 1e-6 {
			t.Errorf("trial %d: LP not shift-invariant: %v vs %v",
				trial, la.Objective, lb.Objective)
		}
		ra, err := roundWithLP(newSeparator(in), la)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := roundWithLP(newSeparator(shifted), lb)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Opened != rb.Opened {
			t.Errorf("trial %d: rounding not shift-invariant: %d vs %d",
				trial, ra.Opened, rb.Opened)
		}
	}
}
