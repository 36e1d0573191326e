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
	// Y[t] is the exact fractional openness of slot t (index 0 unused):
	// the master's Y_I spread over each atom's slots right-filled, as in
	// LPResult.Y.
	Y []*big.Rat
	// Cuts, Rounds and Pivots mirror LPResult: cut count, master solves,
	// and total rational simplex pivots.
	Cuts, Rounds, Pivots int
}

// SolveLPExact computes the optimal value of LP1 in exact rational
// arithmetic: batched Benders cut generation like SolveLP's, but with the
// master solved by the big.Rat simplex and every round separated at the
// master optimum alone, without SolveLP's in-out probe, so the oracle's
// cuts do not depend on the probe it cross-checks. It builds SolveLP's
// master, one column per elementary interval, and never splits it; an
// all-open load of that master's separator checks feasibility first.
// Separation uses the float max-flow oracle (capacities are converted from
// the rational master solution), then the final master optimum is exact
// for the generated cut set; a last float separation confirms no cut is
// violated beyond tolerance. Intended for small instances and for
// certifying SolveLP — e.g. it proves the integrality-gap gadget's LP
// optimum is exactly g+1.
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
	master := newSeparator(in)
	if !master.feasibleAllOpen() {
		return nil, ErrInfeasible
	}
	T := int(in.Horizon())
	prob, err := newMaster(master)
	if err != nil {
		return nil, err
	}
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
		// Each round separates on a newly built interval network (the one
		// SolveLP's separator uses), so its max flow starts from zero: the
		// cost is negligible next to the rational master solves, and it
		// keeps one pipeline of the cross-solver metamorphic suite
		// independent of the carried-flow repairs it cross-checks.
		sep := newSeparator(in)
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
			for t := range res.Y {
				res.Y[t] = new(big.Rat)
			}
			// Right-filled, as LPResult.Y: ones at each atom's end, then
			// the fractional part of Y_I.
			for _, iv := range master.ivals {
				v := sol.X[iv.col]
				full := new(big.Int).Quo(v.Num(), v.Denom())
				t := int(iv.hi)
				for n := full.Int64(); n > 0; n-- {
					res.Y[t].SetInt64(1)
					t--
				}
				if frac := new(big.Rat).Sub(v, new(big.Rat).SetInt(full)); frac.Sign() > 0 {
					res.Y[t].Set(frac)
				}
			}
			return res, nil
		}
		res.Cuts += added
	}
	return nil, fmt.Errorf("activetime: exact LP cut generation did not converge in %d rounds", maxRounds)
}
