package activetime

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/lp"
)

// ExactLPResult is the outcome of the exact rational LP solve.
type ExactLPResult struct {
	// Objective is the exact optimal value of LP1.
	Objective *big.Rat
	// Y[t] is the exact fractional openness of slot t (index 0 unused).
	Y []*big.Rat
	// Cuts, Rounds and Pivots mirror LPResult: cut count, master solves,
	// and total rational simplex pivots.
	Cuts, Rounds, Pivots int
}

// SolveLPExact computes the optimal value of LP1 in exact rational
// arithmetic: the same batched Benders cut generation as SolveLP, but with
// the master solved by the big.Rat simplex. Separation still uses the float
// max-flow oracle (capacities are converted from the rational master
// solution), then the final master optimum is exact for the generated cut
// set; a last float separation confirms no cut is violated beyond
// tolerance. Intended for small instances and for certifying SolveLP —
// e.g. it proves the integrality-gap gadget's LP optimum is exactly g+1.
//
// Each round after the first re-solves warm (lp.Problem.ResolveExactFrom):
// the previous round's rational dictionary is the starting basis and only
// the appended cuts are repaired by the exact dual simplex, instead of the
// cold from-scratch solve SolveLPExactCold performs. E17 reports the pivots
// both ways — warm re-solves cut them by an order of magnitude.
func SolveLPExact(in *core.Instance) (*ExactLPResult, error) {
	return solveLPExact(in, true)
}

// SolveLPExactCold is the cold reference behind E17's exact-pivot
// comparison: identical cuts and convergence, but every round solves the
// rational master from scratch.
func SolveLPExactCold(in *core.Instance) (*ExactLPResult, error) {
	return solveLPExact(in, false)
}

func solveLPExact(in *core.Instance, warm bool) (*ExactLPResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !CheckFeasible(in, AllSlots(in)) {
		return nil, ErrInfeasible
	}
	T := int(in.Horizon())
	prob, err := newMaster(in)
	if err != nil {
		return nil, err
	}
	// The exact pipeline keeps the fresh-per-round separation oracle: its
	// cost is negligible next to the rational master solves, and it keeps
	// one pipeline of the cross-solver metamorphic suite independent of
	// the incremental-repair code path it cross-checks.
	sep := newSeparator(in)
	res := &ExactLPResult{Cuts: len(in.Jobs)}
	reg := newCutRegistry(len(in.Jobs))
	var basis *lp.RatBasis
	maxRounds := 20*T + 200
	for round := 0; round < maxRounds; round++ {
		res.Rounds++
		sol, nextBasis, err := prob.ResolveExactFrom(basis)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("activetime: exact LP master %v", sol.Status)
		}
		if warm {
			basis = nextBasis
		}
		res.Pivots += sol.Iterations
		y := sol.Float64s()
		added := 0
		for _, A := range sep.separateAll(y, maxBatchCuts) {
			if reg.inMaster(A) {
				continue
			}
			cols, vals, rhs := sep.cutFor(A)
			if err := prob.AddSparse(cols, vals, lp.GE, rhs); err != nil {
				return nil, err
			}
			reg.add(A)
			added++
		}
		if added == 0 {
			res.Objective = sol.Objective
			res.Y = make([]*big.Rat, T+1)
			res.Y[0] = new(big.Rat)
			for t := 1; t <= T; t++ {
				res.Y[t] = new(big.Rat).Set(sol.X[t-1])
			}
			return res, nil
		}
		res.Cuts += added
	}
	return nil, fmt.Errorf("activetime: exact LP cut generation did not converge in %d rounds", maxRounds)
}
