package lp

import (
	"reflect"
	"slices"
	"testing"
)

// engineState copies the parts of a float engine state that a warm
// re-solve changes: its dimensions, basis, basic values, reduced costs,
// bound states and counters.
type engineState struct {
	n, m, cols, pivots, refactors int
	basis                         []int
	xB, red                       []float64
	atUpper                       []bool
}

func engineStateOf(t *revised) engineState {
	return engineState{t.n, t.m, len(t.cost), t.pivots, t.refactors,
		slices.Clone(t.basis), slices.Clone(t.xB), slices.Clone(t.red), slices.Clone(t.atUpper)}
}

// TestResolveFromRejectsNonCovering pins the float engine's covering
// contract: an LE row, an EQ row, a negative coefficient, a negative
// right-hand side and a negative cost are each an error, both in a cold
// solve and when they arrive after a warm basis was captured. A rejected
// warm call changes neither the problem nor the basis.
func TestResolveFromRejectsNonCovering(t *testing.T) {
	base := func() *Problem {
		p := NewProblem(2)
		for j := 0; j < 2; j++ {
			p.SetObjective(j, 1)
			p.SetUpper(j, 1)
		}
		check(t, p.AddSparse([]int{0, 1}, []float64{1, 2}, GE, 1))
		return p
	}
	for _, in := range []struct {
		name string
		add  func(p *Problem) // appends the non-covering input
	}{
		{"LE row", func(p *Problem) { check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, LE, 1)) }},
		{"EQ row", func(p *Problem) { check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, EQ, 1)) }},
		{"negative coefficient", func(p *Problem) { check(t, p.AddSparse([]int{0, 1}, []float64{1, -1}, GE, 1)) }},
		{"negative right-hand side", func(p *Problem) { check(t, p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, -1)) }},
		{"negative cost", func(p *Problem) {
			j := p.AddColumns(1)
			p.SetObjective(j, -1)
			p.SetUpper(j, 1)
			check(t, p.AddSparse([]int{0, j}, []float64{1, 1}, GE, 1))
		}},
	} {
		cold := base()
		in.add(cold)
		if _, _, err := cold.ResolveFrom(nil); err == nil {
			t.Errorf("%s: cold solve accepted a non-covering program", in.name)
		}

		warm := base()
		sol, basis, err := warm.ResolveFrom(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: cold solve of the covering base: %v %v", in.name, err, sol.Status)
		}
		in.add(warm)
		rows, vars := warm.NumConstraints(), warm.NumVars()
		before := engineStateOf(basis.t)
		if _, _, err := warm.ResolveFrom(basis); err == nil {
			t.Errorf("%s: warm re-solve accepted a non-covering program", in.name)
		}
		if warm.NumConstraints() != rows || warm.NumVars() != vars {
			t.Errorf("%s: rejected re-solve changed the problem", in.name)
		}
		if !reflect.DeepEqual(engineStateOf(basis.t), before) {
			t.Errorf("%s: rejected re-solve changed the basis", in.name)
		}
	}
}
