package activetime

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrSearchBudget is wrapped by SolveExact when the branch-and-bound node
// budget is exhausted before optimality is proven; callers that only want
// the optimum "where reachable" (the approximation-gap experiment) detect
// it with errors.Is and fall back to bound-only reporting.
var ErrSearchBudget = errors.New("activetime: exact search node budget exhausted")

// ExactOptions bounds the exact search.
type ExactOptions struct {
	// MaxNodes caps the number of branch-and-bound nodes explored
	// (default 5e6). The search returns an error wrapping ErrSearchBudget
	// when exceeded.
	MaxNodes int64
}

// SolveExact computes an optimal active-time schedule by branch and bound
// over slot open/close decisions. It is an exact baseline intended for small
// instances (the experiments use it to measure approximation ratios); the
// paper conjectures the problem is NP-hard, so exponential worst-case time
// is expected.
//
// Search design: slots are decided right to left, trying "closed" before
// "open" so cheap solutions surface early; a state is pruned when the jobs
// no longer fit even with every undecided slot open (max-flow check), or
// when the committed open count cannot beat the incumbent. The incumbent is
// warm-started with a minimal feasible solution (Theorem 1), and the LP
// optimum rounded up provides a global lower bound for early exit.
//
// All pruning max-flows run on one persistent feasibility checker whose
// slot set is toggled incrementally along the DFS (closing a slot before
// the "closed" branch, restoring it after), so no search node builds a
// network. Unlike the closing loops, the search keeps no marks of
// elementary intervals that failed a close: it reopens slots on the way
// back up, so a verdict reached under one open set says nothing about the
// larger ones it later visits.
func SolveExact(in *core.Instance, opts ExactOptions) (*core.ActiveSchedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 5_000_000
	}
	slots := AllSlots(in)
	fc := newFeasChecker(in, slots)
	if !fc.feasible() {
		return nil, ErrInfeasible
	}
	// Warm start.
	warm, err := MinimalFeasible(in, MinimalOptions{Strategy: CloseRightToLeft})
	if err != nil {
		return nil, err
	}
	best := warm.Open
	// Global lower bounds: mass bound and LP bound.
	massLB := int((in.TotalLength() + int64(in.G) - 1) / int64(in.G))
	lb := massLB
	if lpres, lperr := SolveLP(in); lperr == nil {
		if l := int(lpres.Objective - 1e-6 + 0.999999); l > lb {
			lb = l
		}
	}
	if len(best) <= lb {
		return Assign(in, best)
	}
	s := &exactSearch{in: in, slots: slots, fc: fc, best: append([]core.Time(nil), best...), lb: lb, maxNodes: maxNodes}
	// Decide from the rightmost slot down.
	s.dfs(len(slots)-1, nil)
	if s.nodesExceeded {
		return nil, fmt.Errorf("%w (%d nodes)", ErrSearchBudget, maxNodes)
	}
	return Assign(in, s.best)
}

type exactSearch struct {
	in            *core.Instance
	slots         []core.Time
	fc            *feasChecker // open set == committedOpen ∪ slots[:idx+1]
	best          []core.Time
	lb            int
	nodes         int64
	maxNodes      int64
	nodesExceeded bool
}

// dfs decides slots[idx]; committedOpen holds slots already opened among
// indices greater than idx. The persistent checker's open set mirrors
// committedOpen ∪ slots[:idx+1] on entry: the "closed" branch toggles one
// slot off for its subtree and restores it, and the "open" branch inherits
// the state unchanged, so each node's pruning max flow continues the
// carried flow, with no network construction.
func (s *exactSearch) dfs(idx int, committedOpen []core.Time) {
	if s.nodesExceeded || len(s.best) <= s.lb {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.nodesExceeded = true
		return
	}
	if len(committedOpen) >= len(s.best) {
		return // cannot improve
	}
	// Feasibility with all undecided slots open.
	if !s.fc.feasible() {
		return
	}
	if idx < 0 {
		// All decided and feasible: committedOpen is a full solution.
		if len(committedOpen) < len(s.best) {
			s.best = append([]core.Time(nil), committedOpen...)
		}
		return
	}
	// Try closing slots[idx] first.
	s.fc.setSlot(s.slots[idx], false)
	s.dfs(idx-1, committedOpen)
	s.fc.setSlot(s.slots[idx], true)
	// Then opening it.
	s.dfs(idx-1, append(committedOpen, s.slots[idx]))
}
