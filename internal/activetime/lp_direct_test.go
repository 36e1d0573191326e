package activetime

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lp"
)

// buildFullLP1 instantiates the paper's LP1 verbatim, with all T·n
// assignment variables x_{t,j} alongside the slot variables y_t:
//
//	min Σ y_t  s.t.  x_{t,j} <= y_t,  Σ_j x_{t,j} <= g·y_t,
//	                 Σ_t x_{t,j} >= p_j,  0 <= y <= 1, x >= 0,
//	                 x_{t,j} = 0 outside windows.
//
// It exists only to cross-validate the Benders decomposition in SolveLP,
// which never materializes the x variables. Its <= rows with −1
// coefficients make it a general LP, so only the exact engine solves it.
func buildFullLP1(in *core.Instance) *lp.Problem {
	T := int(in.Horizon())
	n := len(in.Jobs)
	// Variable layout: y_t at t-1 (T vars), x_{t,j} at T + (t-1)*n + j.
	p := lp.NewProblem(T + T*n)
	xv := func(t, j int) int { return T + (t-1)*n + j }
	for t := 1; t <= T; t++ {
		p.SetObjective(t-1, 1)
		if err := p.AddSparse([]int{t - 1}, []float64{1}, lp.LE, 1); err != nil {
			panic(err)
		}
	}
	for jIdx, j := range in.Jobs {
		var cols []int
		var vals []float64
		for t := j.FirstSlot(); t <= j.LastSlot(); t++ {
			// x_{t,j} - y_t <= 0
			if err := p.AddSparse(
				[]int{xv(int(t), jIdx), int(t) - 1},
				[]float64{1, -1}, lp.LE, 0); err != nil {
				panic(err)
			}
			cols = append(cols, xv(int(t), jIdx))
			vals = append(vals, 1)
		}
		// Σ_t x_{t,j} >= p_j
		if err := p.AddSparse(cols, vals, lp.GE, float64(j.Length)); err != nil {
			panic(err)
		}
	}
	for t := 1; t <= T; t++ {
		var cols []int
		var vals []float64
		for jIdx, j := range in.Jobs {
			if t >= int(j.FirstSlot()) && t <= int(j.LastSlot()) {
				cols = append(cols, xv(t, jIdx))
				vals = append(vals, 1)
			}
		}
		if len(cols) == 0 {
			continue
		}
		// Σ_j x_{t,j} - g·y_t <= 0
		cols = append(cols, t-1)
		vals = append(vals, -float64(in.G))
		if err := p.AddSparse(cols, vals, lp.LE, 0); err != nil {
			panic(err)
		}
	}
	return p
}

// TestSolveLPMatchesDirectFormulation is the strongest check of the Benders
// construction: for random instances the projected cut-generation optimum
// must equal the full LP1 optimum solved by the exact simplex.
func TestSolveLPMatchesDirectFormulation(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		in := randInstance(rng, 5, 7, 3)
		if !CheckFeasible(in, AllSlots(in)) {
			continue
		}
		benders, err := SolveLP(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		direct, err := lp.SolveExact(buildFullLP1(in))
		if err != nil {
			t.Fatalf("trial %d: direct LP: %v", trial, err)
		}
		if direct.Status != lp.Optimal {
			t.Fatalf("trial %d: direct LP status %v", trial, direct.Status)
		}
		if obj, _ := direct.Objective.Float64(); math.Abs(obj-benders.Objective) > 1e-5 {
			t.Errorf("trial %d: Benders %v != direct LP1 %v (instance %+v)",
				trial, benders.Objective, obj, in)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// TestSolveLPGapGadgetDirectExact solves the full LP1 of the integrality-
// gap gadget with the exact rational simplex: the optimum must be exactly
// g+1, certifying both LP engines and the Benders projection at once.
func TestSolveLPGapGadgetDirectExact(t *testing.T) {
	for _, g := range []int{2, 3} {
		in := gen.IntegralityGap(g)
		prob := buildFullLP1(in)
		exact, err := lp.SolveExact(prob)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Status != lp.Optimal {
			t.Fatalf("g=%d: exact status %v", g, exact.Status)
		}
		want := int64(g + 1)
		if exact.Objective.Cmp(new(big.Rat).SetInt64(want)) != 0 {
			t.Errorf("g=%d: exact LP1 optimum %s, want %d", g, exact.Objective.RatString(), want)
		}
		benders, err := SolveLP(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(benders.Objective-float64(want)) > 1e-6 {
			t.Errorf("g=%d: Benders %v, want exactly %d", g, benders.Objective, want)
		}
	}
}
