package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func mustSolveExact(t *testing.T, p *Problem) *RatSolution {
	t.Helper()
	sol, err := SolveExact(p)
	if err != nil {
		t.Fatalf("SolveExact: %v", err)
	}
	return sol
}

func ratFloat(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

func TestSolveBasic(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, x <= 2, y <= 3, x,y >= 0. Opt at (1,3): -7.
	p := NewProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -2)
	check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, LE, 4))
	check(t, p.AddSparse([]int{0}, []float64{1}, LE, 2))
	check(t, p.AddSparse([]int{1}, []float64{1}, LE, 3))
	sol := mustSolveExact(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Objective.Cmp(big.NewRat(-7, 1)) != 0 {
		t.Errorf("objective = %v, want -7", sol.Objective)
	}
	if x := sol.Float64s(); x[0] != 1 || x[1] != 3 {
		t.Errorf("x = %v, want (1,3)", x)
	}
}

func TestSolveGEAndEQ(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x - y == 2. Opt at (6,4): 24.
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 3)
	check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 10))
	check(t, p.AddSparse([]int{0, 1}, []float64{1, -1}, EQ, 2))
	sol := mustSolveExact(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Objective.Cmp(big.NewRat(24, 1)) != 0 {
		t.Errorf("objective = %v, want 24", sol.Objective)
	}
}

// TestSolveInfeasible: a covering row no point within the bounds
// satisfies is infeasible for both engines; the exact one finds it in
// phase 1.
func TestSolveInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.SetUpper(0, 3)
	check(t, p.AddSparse([]int{0}, []float64{1}, GE, 5))
	if sol := mustSolve(t, p); sol.Status != Infeasible {
		t.Fatalf("float status = %v, want infeasible", sol.Status)
	}
	if sol := mustSolveExact(t, p); sol.Status != Infeasible {
		t.Fatalf("exact status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, -1)
	check(t, p.AddSparse([]int{1}, []float64{1}, LE, 1))
	sol := mustSolveExact(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3).
	p := NewProblem(1)
	p.SetObjective(0, 1)
	check(t, p.AddSparse([]int{0}, []float64{-1}, LE, -3))
	sol := mustSolveExact(t, p)
	if sol.Status != Optimal || sol.Objective.Cmp(big.NewRat(3, 1)) != 0 {
		t.Fatalf("got %v obj=%v, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classic degenerate LP; must terminate and find the optimum.
	p := NewProblem(4)
	for j, c := range []float64{-0.75, 150, -0.02, 6} {
		p.SetObjective(j, c)
	}
	all := []int{0, 1, 2, 3}
	check(t, p.AddSparse(all, []float64{0.25, -60, -0.04, 9}, LE, 0))
	check(t, p.AddSparse(all, []float64{0.5, -90, -0.02, 3}, LE, 0))
	check(t, p.AddSparse([]int{2}, []float64{1}, LE, 1))
	sol := mustSolveExact(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(ratFloat(sol.Objective)-(-0.05)) > 1e-9 {
		t.Errorf("objective = %v, want -0.05 (Beale's example)", sol.Objective)
	}
}

func TestExactMatchesFloatBasic(t *testing.T) {
	// min x + 2y s.t. x + y >= 4, x <= 2, y <= 3. Opt at (2,2): 6.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 2)
	p.SetUpper(0, 2)
	p.SetUpper(1, 3)
	check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 4))
	fs := mustSolve(t, p)
	es := mustSolveExact(t, p)
	if es.Status != Optimal || fs.Status != Optimal {
		t.Fatalf("status exact %v, float %v", es.Status, fs.Status)
	}
	if obj := ratFloat(es.Objective); obj != 6 || math.Abs(obj-fs.Objective) > 1e-7 {
		t.Errorf("exact obj %v, float obj %v, want 6", obj, fs.Objective)
	}
}

// TestExactMatchesFloatRandom cross-validates the two engines on random
// feasible covering LPs (the shape the active-time Benders master takes).
func TestExactMatchesFloatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, float64(1+rng.Intn(5)))
			p.SetUpper(j, 1)
		}
		rows := 1 + rng.Intn(4)
		for r := 0; r < rows; r++ {
			var cols []int
			var vals []float64
			tot := 0.0
			for j := 0; j < n; j++ {
				if v := float64(rng.Intn(4)); v != 0 {
					cols = append(cols, j)
					vals = append(vals, v)
					tot += v
				}
			}
			if tot == 0 {
				cols, vals, tot = []int{0}, []float64{1}, 1
			}
			rhs := 1 + rng.Float64()*(tot-1)*0.9
			if rhs > tot {
				rhs = tot
			}
			check(t, p.AddSparse(cols, vals, GE, math.Floor(rhs*4)/4))
		}
		fs := mustSolve(t, p)
		es := mustSolveExact(t, p)
		if fs.Status != es.Status {
			t.Fatalf("trial %d: status float=%v exact=%v", trial, fs.Status, es.Status)
		}
		if fs.Status != Optimal {
			continue
		}
		if obj := ratFloat(es.Objective); math.Abs(obj-fs.Objective) > 1e-6 {
			t.Errorf("trial %d: exact obj %v != float obj %v", trial, obj, fs.Objective)
		}
	}
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddSparseValidation(t *testing.T) {
	p := NewProblem(2)
	if err := p.AddSparse([]int{5}, []float64{1}, LE, 1); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := p.AddSparse([]int{0}, []float64{1, 2}, LE, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := p.AddSparse([]int{0, 0}, []float64{1, 2}, LE, 5); err != nil {
		t.Errorf("duplicate columns rejected: %v", err)
	}
	// Duplicates must sum: min x0 s.t. 3*x0 >= 6 -> 2.
	p2 := NewProblem(1)
	p2.SetObjective(0, 1)
	check(t, p2.AddSparse([]int{0, 0}, []float64{1, 2}, GE, 6))
	sol := mustSolve(t, p2)
	if math.Abs(sol.Objective-2) > 1e-9 {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
}

// TestAddSparseNormalizesRow pins the one stored form of a row: a row given
// unsorted, with duplicate columns and zeros, is stored with its columns
// ascending, each duplicate summed, zeros (given or cancelled) dropped, and
// cap == len; both engines solve it to the same optimum.
func TestAddSparseNormalizesRow(t *testing.T) {
	p := NewProblem(5)
	for j := 0; j < 5; j++ {
		p.SetObjective(j, float64(1+j%3))
		p.SetUpper(j, 4)
	}
	// Column 3 sums to 3; column 1's 2 and −2 cancel; column 4 is a given
	// zero.
	check(t, p.AddSparse([]int{3, 1, 0, 4, 3, 2, 1, 0}, []float64{1, 2, 0.5, 0, 2, 1, -2, 1}, GE, 6))
	check(t, p.AddSparse([]int{4, 2}, []float64{1, 1}, GE, 2))
	wantCols, wantVals := []int32{0, 2, 3}, []float64{1.5, 1, 3}
	cols, vals := p.rowCols[0], p.rowVals[0]
	if len(cols) != len(wantCols) || len(vals) != len(wantVals) {
		t.Fatalf("row 0 stored as %v / %v, want %v / %v", cols, vals, wantCols, wantVals)
	}
	for k := range wantCols {
		if cols[k] != wantCols[k] || vals[k] != wantVals[k] {
			t.Fatalf("row 0 stored as %v / %v, want %v / %v", cols, vals, wantCols, wantVals)
		}
	}
	if cap(cols) != len(cols) || cap(vals) != len(vals) {
		t.Errorf("row 0 has cap %d/%d for %d entries", cap(cols), cap(vals), len(cols))
	}
	sol := mustSolve(t, p)
	exact := mustSolveExact(t, p)
	if exact.Status != Optimal || math.Abs(sol.Objective-ratFloat(exact.Objective)) > 1e-9 {
		t.Errorf("float objective %v, exact %v (%v)", sol.Objective, exact.Objective, exact.Status)
	}
}

func TestSolveTrivialAtOrigin(t *testing.T) {
	// All-positive costs and only <= constraints: optimum is x = 0.
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		p.SetObjective(j, float64(j+1))
	}
	check(t, p.AddSparse([]int{0, 1, 2}, []float64{1, 1, 1}, LE, 10))
	sol := mustSolveExact(t, p)
	if sol.Status != Optimal || sol.Objective.Sign() != 0 {
		t.Errorf("got %v obj=%v, want optimal 0", sol.Status, sol.Objective)
	}
}

func TestSolveEqualityOnlySystem(t *testing.T) {
	// x + y == 4, x - y == 2 has the unique solution (3,1).
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, EQ, 4))
	check(t, p.AddSparse([]int{0, 1}, []float64{1, -1}, EQ, 2))
	sol := mustSolveExact(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if x := sol.Float64s(); x[0] != 3 || x[1] != 1 {
		t.Errorf("x = %v, want (3,1)", x)
	}
}

func TestSolveRedundantRows(t *testing.T) {
	// The same equality twice: phase 1 must discard the redundant row
	// rather than declare infeasibility.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, EQ, 3))
	check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, EQ, 3))
	check(t, p.AddSparse([]int{0, 1}, []float64{2, 2}, EQ, 6))
	sol := mustSolveExact(t, p)
	if sol.Status != Optimal || sol.Objective.Sign() != 0 {
		t.Errorf("got %v obj=%v, want optimal 0 (x=(0,3))", sol.Status, sol.Objective)
	}
}

func TestExactRejectsNonFinite(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, math.Inf(1))
	check(t, p.AddSparse([]int{0}, []float64{1}, GE, 1))
	if _, err := SolveExact(p); err == nil {
		t.Error("infinite coefficient accepted by exact engine")
	}
}

// TestExactInputShapes feeds SolveExact the inputs at the edges of its
// tableau build: a GE row with a negative right-hand side, which it flips
// to LE; finite bounds beside infinite ones, of which only the finite
// become rows; and the inputs it must refuse, a NaN coefficient, an
// infinite right-hand side and a problem with no variables.
func TestExactInputShapes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Problem
		want  *big.Rat // nil: SolveExact must return an error
	}{
		{"GE row with b < 0", func() *Problem {
			// min -x s.t. -x >= -3, so x <= 3: the optimum is -3.
			p := NewProblem(1)
			p.SetObjective(0, -1)
			check(t, p.AddSparse([]int{0}, []float64{-1}, GE, -3))
			return p
		}, big.NewRat(-3, 1)},
		{"finite and infinite bounds", func() *Problem {
			// min x + 2y s.t. x + y >= 3, x <= 2, y unbounded: (2, 1).
			p := NewProblem(2)
			p.SetObjective(0, 1)
			p.SetObjective(1, 2)
			p.SetUpper(0, 2)
			check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 3))
			return p
		}, big.NewRat(4, 1)},
		{"NaN coefficient", func() *Problem {
			p := NewProblem(1)
			p.SetObjective(0, 1)
			check(t, p.AddSparse([]int{0}, []float64{math.NaN()}, GE, 1))
			return p
		}, nil},
		{"infinite rhs", func() *Problem {
			p := NewProblem(1)
			p.SetObjective(0, 1)
			check(t, p.AddSparse([]int{0}, []float64{1}, GE, math.Inf(1)))
			return p
		}, nil},
		{"no variables", func() *Problem { return NewProblem(0) }, nil},
	} {
		sol, err := SolveExact(tc.build())
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: accepted with status %v", tc.name, sol.Status)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if sol.Status != Optimal || sol.Objective.Cmp(tc.want) != 0 {
			t.Errorf("%s: %v with objective %v, want optimal %v", tc.name, sol.Status, sol.Objective, tc.want)
		}
	}
}

func TestRelationAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("Relation strings wrong")
	}
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration limit",
	} {
		if s.String() != want {
			t.Errorf("Status %d = %q, want %q", s, s.String(), want)
		}
	}
}
