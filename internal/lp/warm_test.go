package lp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randCoverProblem builds a random bounded covering LP of the shape the
// active-time Benders master takes: n variables with unit-ish costs and
// upper bounds, no initial rows beyond a few seed covers.
func randCoverProblem(rng *rand.Rand, n int) *Problem {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, float64(1+rng.Intn(4)))
		p.SetUpper(j, float64(1+rng.Intn(3)))
	}
	return p
}

// randCut returns a feasible covering cut: nonnegative integer
// coefficients with a right-hand side below the maximum attainable value,
// quantized to quarters so the exact engine sees dyadic data.
func randCut(rng *rand.Rand, p *Problem) (cols []int, vals []float64, rhs float64) {
	n := p.NumVars()
	attainable := 0.0
	for j := 0; j < n; j++ {
		v := float64(rng.Intn(4))
		if v == 0 {
			continue
		}
		cols = append(cols, j)
		vals = append(vals, v)
		attainable += v * p.Upper(j)
	}
	if len(cols) == 0 {
		cols = append(cols, rng.Intn(n))
		vals = append(vals, 1)
		attainable = p.Upper(cols[0])
	}
	rhs = math.Floor(rng.Float64()*attainable*4) / 4
	if rhs > attainable {
		rhs = attainable
	}
	return cols, vals, rhs
}

// TestWarmResolveMatchesExactOnCutSequences is the property suite required
// by the warm-start contract: over randomized cut sequences, after every
// AddSparse the warm-started float engine (ResolveFrom with the previous
// basis) must agree with a from-scratch exact rational solve to 1e-6. It
// exercises >= 100 seeded instances.
func TestWarmResolveMatchesExactOnCutSequences(t *testing.T) {
	instances := 120
	for seed := 0; seed < instances; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		n := 2 + rng.Intn(5)
		p := randCoverProblem(rng, n)
		var basis *Basis
		cuts := 3 + rng.Intn(6)
		for c := 0; c < cuts; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatalf("seed %d: AddSparse: %v", seed, err)
			}
			warm, nextBasis, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d cut %d: ResolveFrom: %v", seed, c, err)
			}
			basis = nextBasis
			exact, err := SolveExact(p)
			if err != nil {
				t.Fatalf("seed %d cut %d: SolveExact: %v", seed, c, err)
			}
			if warm.Status != exact.Status {
				t.Fatalf("seed %d cut %d: warm status %v, exact %v",
					seed, c, warm.Status, exact.Status)
			}
			if warm.Status != Optimal {
				// Infeasible cut set: both engines agree; nothing to warm-start
				// from next round.
				basis = nil
				continue
			}
			want, _ := exact.Objective.Float64()
			if math.Abs(warm.Objective-want) > 1e-6 {
				t.Fatalf("seed %d cut %d: warm objective %v, exact %v",
					seed, c, warm.Objective, want)
			}
		}
	}
}

// TestWarmResolveMatchesColdSolve checks that the warm path lands on the
// same optimum as a cold Solve of the identical problem.
func TestWarmResolveMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		p := randCoverProblem(rng, n)
		var basis *Basis
		for c := 0; c < 5; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
			warm, nextBasis, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatal(err)
			}
			basis = nextBasis
			cold, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d cut %d: warm %v cold %v", trial, c, warm.Status, cold.Status)
			}
			if warm.Status != Optimal {
				basis = nil
				continue
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("trial %d cut %d: warm obj %v cold %v",
					trial, c, warm.Objective, cold.Objective)
			}
		}
	}
}

// TestWarmResolveInfeasibleCut checks that a cut no point satisfies turns
// the master infeasible through the dual simplex rather than wedging it.
func TestWarmResolveInfeasibleCut(t *testing.T) {
	p := NewProblem(2)
	for j := 0; j < 2; j++ {
		p.SetObjective(j, 1)
		p.SetUpper(j, 1)
	}
	if err := p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	sol, basis, err := p.ResolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v %v", err, sol.Status)
	}
	if err := p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 3); err != nil { // max attainable is 2
		t.Fatal(err)
	}
	sol, next, err := p.ResolveFrom(basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	if next != nil {
		t.Fatal("non-optimal solve returned a reusable basis")
	}
}

// TestSetUpperBoundsEnforced checks that native bounds bind: the covering
// row alone would put all of its weight on the cheaper x0.
func TestSetUpperBoundsEnforced(t *testing.T) {
	// min x0 + 3 x1 s.t. x0 + x1 >= 4, x0 <= 2.5. Opt at (2.5, 1.5): 7.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 3)
	p.SetUpper(0, 2.5)
	check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 4))
	sol, err := Solve(p)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", err, sol.Status)
	}
	if math.Abs(sol.X[0]-2.5) > 1e-9 || math.Abs(sol.X[1]-1.5) > 1e-9 || math.Abs(sol.Objective-7) > 1e-9 {
		t.Fatalf("x = %v obj %v, want (2.5, 1.5) obj 7", sol.X, sol.Objective)
	}
	// Negative upper bound: infeasible.
	q := NewProblem(1)
	q.SetObjective(0, 1)
	q.SetUpper(0, -1)
	sol, err = Solve(q)
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("negative bound: %v %v, want infeasible", err, sol.Status)
	}
}

// TestIterationsCountsPivotsOnly guards the Iterations contract: a solve
// that prices once and finds the origin optimal reports zero pivots, and
// warm re-solves report only their own incremental pivots.
func TestIterationsCountsPivotsOnly(t *testing.T) {
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		p.SetObjective(j, 1)
		p.SetUpper(j, 1)
	}
	sol, basis, err := p.ResolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", err, sol.Status)
	}
	if sol.Iterations != 0 {
		t.Fatalf("origin-optimal solve reports %d pivots, want 0", sol.Iterations)
	}
	if err := p.AddSparse([]int{0, 1, 2}, []float64{1, 1, 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	sol2, _, err := p.ResolveFrom(basis)
	if err != nil || sol2.Status != Optimal {
		t.Fatalf("%v %v", err, sol2.Status)
	}
	if sol2.Iterations <= 0 || sol2.Iterations > 3 {
		t.Fatalf("warm resolve reports %d pivots, want a small positive count", sol2.Iterations)
	}
}

// TestWarmResolveAllocBound locks in the zero-allocation pricing loop: a
// warm re-solve allocates only the appended row, the grown columns, and the
// Solution — never per pivot. The bound is deliberately loose against
// runtime noise but far below any per-pivot regime.
func TestWarmResolveAllocBound(t *testing.T) {
	const T = 90
	p := NewProblem(T)
	for j := 0; j < T; j++ {
		p.SetObjective(j, 1)
		p.SetUpper(j, 1)
	}
	var cols []int
	var vals []float64
	for j := 0; j < T; j += 2 {
		cols = append(cols, j)
		vals = append(vals, float64(1+j%3))
	}
	if err := p.AddSparse(cols, vals, GE, 20); err != nil {
		t.Fatal(err)
	}
	_, basis, err := p.ResolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := 0
	allocs := testing.AllocsPerRun(20, func() {
		var cs []int
		var vs []float64
		for j := r % 3; j < T; j += 3 {
			cs = append(cs, j)
			vs = append(vs, float64(1+j%2))
		}
		r++
		if err := p.AddSparse(cs, vs, GE, float64(10+r%5)); err != nil {
			t.Fatal(err)
		}
		sol, nb, err := p.ResolveFrom(basis)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%v %v", err, sol.Status)
		}
		basis = nb
	})
	// Each run: cut slices (~12 from append growth + AddSparse row), one
	// appended tableau row, occasional growCols reallocation, Solution + X.
	// Dozens of dual pivots happen per run; a per-pivot allocation would
	// blow far past this bound.
	if allocs > 40 {
		t.Errorf("warm re-solve allocates %.0f objects per cut round; pricing loop is supposed to be allocation-free", allocs)
	}
}

// TestWarmResolveRejectsBoundChange: changing the bound or the objective
// of a column the basis has seen is outside the warm-start contract and
// must fail loudly, not return a solution against the stale value. Both
// changes fail the same way, and a cold solve picks up the new value.
func TestWarmResolveRejectsBoundChange(t *testing.T) {
	for _, change := range []struct {
		name  string
		apply func(p *Problem)
		obj   float64 // cold optimum after the change
	}{
		{"bound", func(p *Problem) { p.SetUpper(0, 3) }, 1},
		{"objective", func(p *Problem) { p.SetObjective(1, 4) }, 3},
	} {
		p := NewProblem(2)
		for j := 0; j < 2; j++ {
			p.SetObjective(j, 1)
			p.SetUpper(j, 1)
		}
		if err := p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.AddSparse([]int{0, 1}, []float64{1, 2}, GE, 2); err != nil {
			t.Fatal(err)
		}
		sol, basis, err := p.ResolveFrom(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: cold: %v %v", change.name, err, sol.Status)
		}
		change.apply(p)
		_, _, err = p.ResolveFrom(basis)
		if err == nil || !strings.Contains(err.Error(), "changed since the basis was captured") {
			t.Fatalf("%s change: warm re-solve returned %v, want a changed-since-captured error", change.name, err)
		}
		sol, _, err = p.ResolveFrom(nil)
		if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-change.obj) > 1e-9 {
			t.Fatalf("cold after %s change: %v %v obj %v, want %v", change.name, err, sol.Status, sol.Objective, change.obj)
		}
	}
}
