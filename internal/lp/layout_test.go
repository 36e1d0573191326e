package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// layoutCut is one recorded covering cut of a layout program.
type layoutCut struct {
	cols []int
	vals []float64
	rhs  float64
}

// layoutSolve is what one solve of a layout program must reproduce: its
// iterations, its pivots as (basis position, column identity) pairs, and
// the bits of x on the program's own columns.
type layoutSolve struct {
	iters  int
	pivots [][2]int
	x      []uint64
}

// solveLayout solves base's columns under cuts in two calls: a cold solve
// over the first half of the cuts, then a warm re-solve after the second
// half is added. first never-referenced structural columns are appended
// before the cold solve and between more before the warm one; each pivot's
// column is recorded by identity, a structural by its index and a surplus
// as 1<<31 | its offset past the structurals.
func solveLayout(t *testing.T, base *Problem, cuts []layoutCut, first, between int) [2]layoutSolve {
	t.Helper()
	n := base.NumVars()
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, base.c[j])
		p.SetUpper(j, base.Upper(j))
	}
	p.AddColumns(first)
	var out [2]layoutSolve
	cur := &out[0]
	p.SetPivotHook(func(row, col int) {
		id := col
		if nv := p.NumVars(); col >= nv {
			id = 1<<31 | (col - nv)
		}
		cur.pivots = append(cur.pivots, [2]int{row, id})
	})
	half := len(cuts) / 2
	var basis *Basis
	for call, batch := range [2][]layoutCut{cuts[:half], cuts[half:]} {
		cur = &out[call]
		if call == 1 {
			p.AddColumns(between)
		}
		for _, c := range batch {
			check(t, p.AddSparse(c.cols, c.vals, GE, c.rhs))
		}
		sol, next, err := p.ResolveFrom(basis)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve %d: %v, status %v", call, err, sol.Status)
		}
		basis = next
		cur.iters = sol.Iterations
		for _, v := range sol.X[:n] {
			cur.x = append(cur.x, math.Float64bits(v))
		}
	}
	return out
}

// layoutDiff names the first way got departs from want, or returns "".
func layoutDiff(want, got [2]layoutSolve) string {
	for s := range want {
		w, g := want[s], got[s]
		switch {
		case w.iters != g.iters:
			return fmt.Sprintf("solve %d took %d iterations, want %d", s, g.iters, w.iters)
		case !slices.Equal(w.pivots, g.pivots):
			return fmt.Sprintf("solve %d pivoted differently", s)
		case !slices.Equal(w.x, g.x):
			return fmt.Sprintf("solve %d returned different bits of x", s)
		}
	}
	return ""
}

// TestPivotsIndependentOfColumnLayout pins the identity-keyed tie-break of
// the dual ratio test. Appending structural columns that no row references
// moves every surplus column's position but changes neither the program nor
// its optimum, so it must move no pivot. Over 200 random covering programs
// (n 40–99, 20–39 cuts) the extra columns come either before the cold
// solve or between it and the warm re-solve that adds the second half of
// the cuts; every solve must spend the same iterations, make the same
// pivots by column identity and return the same bits of x on the original
// columns as the program without them.
func TestPivotsIndependentOfColumnLayout(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(9000 + seed)))
		base := randCoverProblem(rng, 40+rng.Intn(60))
		cuts := make([]layoutCut, 20+rng.Intn(20))
		for i := range cuts {
			cuts[i].cols, cuts[i].vals, cuts[i].rhs = randCut(rng, base)
		}
		k := 1 + rng.Intn(16)
		want := solveLayout(t, base, cuts, 0, 0)
		if d := layoutDiff(want, solveLayout(t, base, cuts, k, 0)); d != "" {
			t.Errorf("seed %d, %d columns appended before the cold solve: %s", seed, k, d)
		}
		if d := layoutDiff(want, solveLayout(t, base, cuts, 0, k)); d != "" {
			t.Errorf("seed %d, %d columns appended before the warm re-solve: %s", seed, k, d)
		}
	}
}

// checkSurplusLayout requires row i's surplus to be column n+i of st: basic
// at the row's slack a·x − b, or nonbasic at zero with the row tight.
func checkSurplusLayout(t *testing.T, p *Problem, st *revised, stage string) {
	t.Helper()
	if len(st.cost) != st.n+st.m {
		t.Fatalf("%s: %d columns for %d structurals and %d rows", stage, len(st.cost), st.n, st.m)
	}
	x := st.structuralX()
	for i := 0; i < st.m; i++ {
		slack, s := p.RowSlack(i, x), st.n+i
		if st.inBasis[s] {
			if v := st.xB[st.whereBasic[s]]; math.Abs(v-slack) > 1e-6 {
				t.Fatalf("%s: column n+%d is basic at %v, row %d's slack is %v", stage, i, v, i, slack)
			}
		} else if math.Abs(slack) > 1e-6 {
			t.Fatalf("%s: column n+%d is nonbasic, row %d's slack is %v", stage, i, i, slack)
		}
	}
}

// TestSurplusAtColumnNPlusRow pins the engine's one logical column per
// row: row i's surplus is column n+i after a cold build, after appended
// rows, appended and split columns and a warm re-solve, and after
// RemoveRows drops the slack rows.
func TestSurplusAtColumnNPlusRow(t *testing.T) {
	for seed := 0; seed < 50; seed++ {
		rng := rand.New(rand.NewSource(int64(9500 + seed)))
		p := randCoverProblem(rng, 5+rng.Intn(10))
		addCuts := func(k int) {
			for ; k > 0; k-- {
				cols, vals, rhs := randCut(rng, p)
				check(t, p.AddSparse(cols, vals, GE, rhs))
			}
		}
		addCuts(6)
		sol, basis, err := p.ResolveFrom(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("seed %d: cold solve: %v, status %v", seed, err, sol.Status)
		}
		checkSurplusLayout(t, p, basis.t, fmt.Sprintf("seed %d cold", seed))
		for step := 0; step < 3; step++ {
			j0 := p.AddColumns(2)
			for j := j0; j < j0+2; j++ {
				p.SetObjective(j, float64(1+rng.Intn(4)))
				p.SetUpper(j, float64(1+rng.Intn(3)))
			}
			j := rng.Intn(j0)
			if _, err := p.SplitColumn(j, p.Upper(j)/2); err != nil {
				t.Fatal(err)
			}
			addCuts(3)
			if sol, basis, err = p.ResolveFrom(basis); err != nil || sol.Status != Optimal {
				t.Fatalf("seed %d step %d: warm solve: %v, status %v", seed, step, err, sol.Status)
			}
			checkSurplusLayout(t, p, basis.t, fmt.Sprintf("seed %d step %d warm", seed, step))
			var slack []int
			for i := 0; i < p.NumConstraints(); i++ {
				if p.RowSlack(i, sol.X) > 1e-6 {
					slack = append(slack, i)
				}
			}
			check(t, p.RemoveRows(slack, basis))
			checkSurplusLayout(t, p, basis.t, fmt.Sprintf("seed %d step %d removed %d rows", seed, step, len(slack)))
		}
	}
}
