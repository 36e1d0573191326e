package lp

import (
	"math/rand"
	"testing"
)

// TestResolveExactFromMatchesCold drives random cut sequences through the
// warm rational engine and checks every re-solve against a from-scratch
// exact solve: identical status and bit-identical rational objective.
func TestResolveExactFromMatchesCold(t *testing.T) {
	for seed := 0; seed < 80; seed++ {
		rng := rand.New(rand.NewSource(int64(5000 + seed)))
		n := 2 + rng.Intn(5)
		p := randCoverProblem(rng, n)
		var basis *RatBasis
		for c := 0; c < 6; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
			warm, nextBasis, err := p.ResolveExactFrom(basis)
			if err != nil {
				t.Fatalf("seed %d cut %d: ResolveExactFrom: %v", seed, c, err)
			}
			basis = nextBasis
			cold, err := SolveExact(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("seed %d cut %d: warm %v, cold %v", seed, c, warm.Status, cold.Status)
			}
			if warm.Status != Optimal {
				basis = nil
				continue
			}
			if warm.Objective.Cmp(cold.Objective) != 0 {
				t.Fatalf("seed %d cut %d: warm objective %v, cold %v",
					seed, c, warm.Objective, cold.Objective)
			}
		}
	}
}

// TestResolveExactFromSavesPivots locks the point of the warm start: across
// a cut sequence the warm engine must spend strictly fewer total pivots
// than cold re-solves of the same masters.
func TestResolveExactFromSavesPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	warmTotal, coldTotal := 0, 0
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		p := randCoverProblem(rng, n)
		var basis *RatBasis
		for c := 0; c < 6; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
			warm, nb, err := p.ResolveExactFrom(basis)
			if err != nil {
				t.Fatal(err)
			}
			basis = nb
			warmTotal += warm.Iterations
			cold, err := SolveExact(p)
			if err != nil {
				t.Fatal(err)
			}
			coldTotal += cold.Iterations
			if warm.Status != Optimal {
				basis = nil
			}
		}
	}
	if warmTotal >= coldTotal {
		t.Fatalf("warm exact re-solves spent %d pivots, cold %d; warm start saves nothing", warmTotal, coldTotal)
	}
	t.Logf("exact pivots: warm %d vs cold %d (%.1fx)", warmTotal, coldTotal, float64(coldTotal)/float64(warmTotal))
}

// TestResolveExactFromRejectsBoundChange mirrors the float contract: bound
// changes invalidate the rational basis loudly.
func TestResolveExactFromRejectsBoundChange(t *testing.T) {
	p := NewProblem(2)
	for j := 0; j < 2; j++ {
		p.SetObjective(j, 1)
		p.SetUpper(j, 1)
	}
	if err := p.AddSparse([]int{0, 1}, []float64{1, 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	sol, basis, err := p.ResolveExactFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold: %v %v", err, sol.Status)
	}
	p.SetUpper(0, 3)
	if _, _, err := p.ResolveExactFrom(basis); err == nil {
		t.Fatal("bound change accepted by warm exact re-solve")
	}
}
