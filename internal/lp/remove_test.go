package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestRemoveRowsPreservesOptimum drives randomized cut sequences with
// interleaved removals of slack rows and checks every warm re-solve against
// a from-scratch exact rational solve of the reduced problem.
func TestRemoveRowsPreservesOptimum(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		rng := rand.New(rand.NewSource(int64(9000 + seed)))
		n := 2 + rng.Intn(5)
		p := randCoverProblem(rng, n)
		var basis *Basis
		var lastX []float64
		for c := 0; c < 8; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
			warm, nextBasis, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d cut %d: ResolveFrom: %v", seed, c, err)
			}
			basis = nextBasis
			if warm.Status != Optimal {
				basis = nil
				lastX = nil
				continue
			}
			lastX = warm.X
			// Drop every strictly slack row with probability 1/2.
			if c >= 2 && rng.Intn(2) == 0 && basis != nil {
				var drop []int
				for i := 0; i < p.NumConstraints(); i++ {
					if p.RowSlack(i, lastX) > 1e-7 && rng.Intn(2) == 0 {
						drop = append(drop, i)
					}
				}
				if len(drop) > 0 {
					if err := p.RemoveRows(drop, basis); err != nil {
						t.Fatalf("seed %d cut %d: RemoveRows(%v): %v", seed, c, drop, err)
					}
				}
			}
			// The reduced problem re-solves warm to the exact optimum.
			warm2, nb2, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d cut %d: post-remove ResolveFrom: %v", seed, c, err)
			}
			basis = nb2
			exact, err := SolveExact(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm2.Status != exact.Status {
				t.Fatalf("seed %d cut %d: warm status %v, exact %v", seed, c, warm2.Status, exact.Status)
			}
			if warm2.Status != Optimal {
				basis = nil
				continue
			}
			want, _ := exact.Objective.Float64()
			if math.Abs(warm2.Objective-want) > 1e-6 {
				t.Fatalf("seed %d cut %d: warm objective %v after removal, exact %v",
					seed, c, warm2.Objective, want)
			}
		}
	}
}

// TestRemoveRowsNilBasisInvalidates pins the epoch guard: removing rows
// with a nil basis then appending the same number of rows leaves the row
// COUNT unchanged, so only the removal epoch can tell the old basis is
// stale — a warm re-solve must reject it loudly instead of solving against
// the wrong row set.
func TestRemoveRowsNilBasisInvalidates(t *testing.T) {
	p := NewProblem(2)
	for j := 0; j < 2; j++ {
		p.SetObjective(j, 1)
		p.SetUpper(j, 2)
	}
	if err := p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSparse([]int{0, 1}, []float64{2, 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	sol, basis, err := p.ResolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v %v", err, sol.Status)
	}
	if err := p.RemoveRows([]int{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSparse([]int{0, 1}, []float64{1, 2}, GE, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.ResolveFrom(basis); err == nil {
		t.Fatal("stale basis accepted after nil-basis removal (row counts match)")
	}
}

// TestResolveFromRejectsForeignBasis pins that a Basis is tied to the
// Problem that produced it. q has p's shape (row count, removal epoch,
// bounds and costs), so p's basis passes every other warm-start check, but
// its engine reads p's rows in place: q.ResolveFrom and q.RemoveRows must
// both refuse it, and mutate nothing while refusing.
func TestResolveFromRejectsForeignBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, rows = 12, 6
	p := coveringProblem(rng, n, rows)
	q := coveringProblem(rng, n, rows)
	pSol, pBasis, err := p.ResolveFrom(nil)
	if err != nil || pSol.Status != Optimal {
		t.Fatalf("p cold: %v %v", err, pSol)
	}
	qSol := mustSolve(t, q)
	// A row strictly slack at p's optimum: p itself may remove it through
	// pBasis, so only the basis's owner stands in q's way.
	drop := -1
	for i := 0; i < rows; i++ {
		if p.RowSlack(i, pSol.X) > 1e-6 {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatal("no strictly slack row at p's optimum; pick another seed")
	}
	if _, _, err := q.ResolveFrom(pBasis); err == nil {
		t.Error("q.ResolveFrom accepted p's basis")
	}
	if err := q.RemoveRows([]int{drop}, pBasis); err == nil {
		t.Error("q.RemoveRows accepted p's basis")
	}
	if got := q.NumConstraints(); got != rows {
		t.Fatalf("q has %d rows after the refused removal, want %d", got, rows)
	}
	same := func(who string, got, want *Solution) {
		t.Helper()
		if got.Status != Optimal || got.Objective != want.Objective {
			t.Errorf("%s: %v objective %v, want optimal %v", who, got.Status, got.Objective, want.Objective)
			return
		}
		for j := range want.X {
			if got.X[j] != want.X[j] {
				t.Errorf("%s: x[%d] = %v, want %v", who, j, got.X[j], want.X[j])
			}
		}
	}
	pWarm, _, err := p.ResolveFrom(pBasis)
	if err != nil {
		t.Fatalf("p warm after the refusals: %v", err)
	}
	same("p warm", pWarm, pSol)
	if pWarm.Iterations != 0 {
		t.Errorf("p warm re-solve of an unchanged problem took %d pivots", pWarm.Iterations)
	}
	same("q cold", mustSolve(t, q), qSol)
}

// TestRemoveRowsRejectsTightRow pins the contract: removing a binding row
// through the basis fails loudly and mutates nothing.
func TestRemoveRowsRejectsTightRow(t *testing.T) {
	p := NewProblem(2)
	for j := 0; j < 2; j++ {
		p.SetObjective(j, 1)
		p.SetUpper(j, 1)
	}
	if err := p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 1); err != nil { // will be tight
		t.Fatal(err)
	}
	if err := p.AddSparse([]int{0, 1}, []float64{2, 1}, GE, 1); err != nil { // slack at opt
		t.Fatal(err)
	}
	sol, basis, err := p.ResolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", err, sol.Status)
	}
	if err := p.RemoveRows([]int{0}, basis); err == nil {
		t.Fatal("tight row removed without error")
	}
	if p.NumConstraints() != 2 {
		t.Fatalf("failed removal mutated the problem: %d rows", p.NumConstraints())
	}
	// The refused removal left the state solvable.
	sol2, _, err := p.ResolveFrom(basis)
	if err != nil || sol2.Status != Optimal || math.Abs(sol2.Objective-sol.Objective) > 1e-9 {
		t.Fatalf("state damaged by refused removal: %v %v obj %v", err, sol2.Status, sol2.Objective)
	}
}

// TestRemoveRowsThenAppend exercises the registry's real cycle: remove slack
// cuts, append new ones, re-solve warm, repeatedly.
func TestRemoveRowsThenAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(4)
		p := randCoverProblem(rng, n)
		var basis *Basis
		live := 0
		for c := 0; c < 10; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
			live++
			sol, nb, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatal(err)
			}
			basis = nb
			if sol.Status != Optimal {
				basis = nil
				continue
			}
			var drop []int
			for i := 0; i < p.NumConstraints(); i++ {
				if p.RowSlack(i, sol.X) > 1e-6 {
					drop = append(drop, i)
					break // one per round, like a conservative purge
				}
			}
			if len(drop) > 0 {
				if err := p.RemoveRows(drop, basis); err != nil {
					t.Fatalf("trial %d cut %d: %v", trial, c, err)
				}
				live--
			}
			cold, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			warm, nb2, err := p.ResolveFrom(basis)
			if err != nil {
				t.Fatal(err)
			}
			basis = nb2
			if warm.Status != cold.Status {
				t.Fatalf("trial %d cut %d: warm %v cold %v", trial, c, warm.Status, cold.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("trial %d cut %d: warm obj %v cold %v", trial, c, warm.Objective, cold.Objective)
			}
			if warm.Status != Optimal {
				basis = nil
			}
		}
		if live != p.NumConstraints() {
			t.Fatalf("trial %d: row bookkeeping drifted: %d live vs %d rows", trial, live, p.NumConstraints())
		}
	}
}
