package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The four states a split column can be in at a live optimum.
const (
	splitAtZero     = iota // nonbasic at zero
	splitAtUpper           // nonbasic at its upper bound
	splitBasicBelow        // basic, below the bound it keeps
	splitBasicAbove        // basic, above the bound it keeps
)

var splitStates = [...]string{"nonbasic at 0", "nonbasic at its upper bound", "basic below keep", "basic above keep"}

// splitProblem builds random covering LP number seed, the same one on every
// call, and solves it cold. It reports false when the LP is infeasible.
func splitProblem(t *testing.T, seed int64) (*Problem, *Solution, *Basis, bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := randCoverProblem(rng, 4+rng.Intn(5))
	for c := 3 + rng.Intn(5); c > 0; c-- {
		cols, vals, rhs := randCut(rng, p)
		check(t, p.AddSparse(cols, vals, GE, rhs))
	}
	sol, basis, err := p.ResolveFrom(nil)
	if err != nil {
		t.Fatalf("seed %d: cold solve: %v", seed, err)
	}
	return p, sol, basis, sol.Status == Optimal
}

// splitChoice picks the first column of the optimum that is in the given
// state, with the bound it keeps: half its bound when nonbasic, halfway
// between its value and its bound when basic below keep, half its value
// when basic above keep.
func splitChoice(st *revised, x []float64, state int) (j int, keep float64, ok bool) {
	for j := 0; j < st.n; j++ {
		u := st.upper[j]
		basic := st.inBasis[j]
		switch {
		case state == splitAtZero && !basic && !st.atUpper[j]:
			return j, u / 2, true
		case state == splitAtUpper && !basic && st.atUpper[j]:
			return j, u / 2, true
		case state == splitBasicBelow && basic && x[j] < u-1e-6:
			return j, (x[j] + u) / 2, true
		case state == splitBasicAbove && basic && x[j] > 1e-6:
			return j, x[j] / 2, true
		}
	}
	return 0, 0, false
}

// TestSplitColumnWarmMatchesCold splits one column of a solved random
// covering LP in each of the four states a column can be in at a live
// optimum, and re-solves warm from the optimum's basis. A split does not
// change the optimum, so a cold solve of the split problem must reach the
// original objective, and the warm re-solve the cold one, both within
// 1e-9, with no cold fallback. Next to a nonbasic column the split keeps
// the point optimal, so those re-solves spend no pivots. One more covering
// cut over the two halves, re-solved warm again, must still match a cold
// solve: its repair prices and pivots on the spliced column.
func TestSplitColumnWarmMatchesCold(t *testing.T) {
	var seen [len(splitStates)]int
	for seed := int64(0); seed < 300; seed++ {
		for state := range splitStates {
			p, sol, basis, ok := splitProblem(t, seed)
			if !ok {
				break
			}
			j, keep, ok := splitChoice(basis.t, sol.X, state)
			if !ok {
				continue
			}
			seen[state]++
			where := func(stage string) string {
				return fmt.Sprintf("%s, seed %d, %s", splitStates[state], seed, stage)
			}
			k, err := p.SplitColumn(j, keep)
			if err != nil {
				t.Fatal(err)
			}
			warm, next, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatalf("%s: warm re-solve: %v", where("after the split"), err)
			}
			cold := mustSolve(t, p)
			if warm.Status != Optimal || warm.ColdFallbacks != 0 {
				t.Fatalf("%s: warm status %v with %d cold fallbacks (%s)", where("after the split"), warm.Status, warm.ColdFallbacks, warm.FallbackVerdict)
			}
			if math.Abs(cold.Objective-sol.Objective) > 1e-9 {
				t.Fatalf("%s: the split problem's optimum is %.12f, the original's %.12f", where("after the split"), cold.Objective, sol.Objective)
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("%s: warm objective %.12f, cold %.12f", where("after the split"), warm.Objective, cold.Objective)
			}
			if (state == splitAtZero || state == splitAtUpper) && warm.Iterations != 0 {
				t.Errorf("%s: the warm re-solve spent %d pivots, want 0", where("after the split"), warm.Iterations)
			}
			rng := rand.New(rand.NewSource(seed))
			rhs := (p.Upper(j) + p.Upper(k)) * (0.25 + 0.5*rng.Float64())
			check(t, p.AddSparse([]int{j, k}, []float64{1, 1}, GE, rhs))
			warm, _, err = p.ResolveFrom(next)
			if err != nil {
				t.Fatalf("%s: warm re-solve: %v", where("after a cut over both halves"), err)
			}
			cold = mustSolve(t, p)
			if warm.Status != Optimal || warm.ColdFallbacks != 0 {
				t.Fatalf("%s: warm status %v with %d cold fallbacks (%s)", where("after a cut over both halves"), warm.Status, warm.ColdFallbacks, warm.FallbackVerdict)
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("%s: warm objective %.12f, cold %.12f", where("after a cut over both halves"), warm.Objective, cold.Objective)
			}
		}
	}
	for state, n := range seen {
		if n < 20 {
			t.Errorf("only %d splits of a column %s; want at least 20", n, splitStates[state])
		}
	}
	t.Logf("splits per state: %v", seen)
}

// TestSplitColumnExactSolvesCold pins the exact engine's side of the
// contract: a split rewrites rows its dictionary already holds, so a warm
// ResolveExactFrom after a split solves cold. Its pivots and optimum are
// then a cold SolveExact's, to the last rational digit, and the optimum is
// the unsplit problem's.
func TestSplitColumnExactSolvesCold(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 40; seed++ {
		p, _, _, ok := splitProblem(t, seed)
		if !ok {
			continue
		}
		before, basis, err := p.ResolveExactFrom(nil)
		if err != nil || before.Status != Optimal {
			t.Fatalf("seed %d: exact solve: %v %v", seed, err, before.Status)
		}
		if _, err := p.SplitColumn(int(seed)%p.NumVars(), p.Upper(int(seed)%p.NumVars())/2); err != nil {
			t.Fatal(err)
		}
		warm, _, err := p.ResolveExactFrom(basis)
		if err != nil {
			t.Fatalf("seed %d: exact re-solve after a split: %v", seed, err)
		}
		cold := mustSolveExact(t, p)
		if warm.Iterations != cold.Iterations || warm.Objective.Cmp(cold.Objective) != 0 {
			t.Fatalf("seed %d: exact re-solve after a split took %d pivots to %v; a cold solve takes %d to %v",
				seed, warm.Iterations, warm.Objective, cold.Iterations, cold.Objective)
		}
		if warm.Objective.Cmp(before.Objective) != 0 {
			t.Fatalf("seed %d: the split moved the exact optimum from %v to %v", seed, before.Objective, warm.Objective)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d feasible problems checked", checked)
	}
}

// TestSplitColumnRows pins the Problem side of a split: column k is the
// highest index, it enters exactly the rows where j has a coefficient, with
// j's coefficient, at the row's end, and the bounds share j's old bound.
// A column or a kept bound out of range is an error.
func TestSplitColumnRows(t *testing.T) {
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		p.SetObjective(j, float64(1+j))
		p.SetUpper(j, 4)
	}
	check(t, p.AddSparse([]int{0, 1, 2}, []float64{1, 2, 3}, GE, 2))
	check(t, p.AddSparse([]int{0, 2}, []float64{1, 1}, GE, 1))
	check(t, p.AddSparse([]int{1}, []float64{5}, GE, 1))
	k, err := p.SplitColumn(1, 3)
	if err != nil || k != 3 || p.NumVars() != 4 {
		t.Fatalf("SplitColumn(1, 3) = %d, %v with %d columns; want 3, nil with 4", k, err, p.NumVars())
	}
	if p.Upper(1) != 3 || p.Upper(3) != 1 || p.c[3] != p.c[1] {
		t.Errorf("bounds %v and %v, cost %v; want 3, 1 and %v", p.Upper(1), p.Upper(3), p.c[3], p.c[1])
	}
	want := [][]int32{{0, 1, 2, 3}, {0, 2}, {1, 3}}
	wantVals := [][]float64{{1, 2, 3, 2}, {1, 1}, {5, 5}}
	for i := range want {
		if !slices.Equal(p.rowCols[i], want[i]) || !slices.Equal(p.rowVals[i], wantVals[i]) {
			t.Errorf("row %d is %v %v, want %v %v", i, p.rowCols[i], p.rowVals[i], want[i], wantVals[i])
		}
		if cap(p.rowCols[i]) != len(p.rowCols[i]) || cap(p.rowVals[i]) != len(p.rowVals[i]) {
			t.Errorf("row %d has cap %d/%d for %d entries", i, cap(p.rowCols[i]), cap(p.rowVals[i]), len(p.rowCols[i]))
		}
	}
	for _, bad := range []struct {
		j    int
		keep float64
	}{{-1, 0}, {4, 0}, {0, -1}, {0, 5}, {0, math.NaN()}} {
		if _, err := p.SplitColumn(bad.j, bad.keep); err == nil {
			t.Errorf("SplitColumn(%d, %v) accepted", bad.j, bad.keep)
		}
	}
}
