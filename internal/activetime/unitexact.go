package activetime

import (
	"fmt"

	"repro/internal/core"
)

// SolveUnitExact computes an optimal active-time schedule for instances in
// which every job has unit length. It plays the role of the exact algorithm
// of Chang, Gabow and Khuller [2] that the paper builds on.
//
// Method (substitution 1 in the repro package doc, doc.go): with unit jobs the
// job-slot bipartite graph is convex, so by Hall's theorem a set of open
// slots is feasible iff for every slot interval [a,b] the number of jobs
// whose window lies inside [a,b] is at most g times the number of open
// slots in [a,b]. Minimizing the number of open slots subject to these
// covering constraints is an interval multicover problem; writing
// S_t = #open slots among 1..t it becomes the difference-constraint system
//
//	S_b - S_{a-1} >= ceil(demand(a,b)/g),  0 <= S_t - S_{t-1} <= 1,  S_0 = 0,
//
// whose pointwise-minimal solution (hence minimal S_T) is given by longest
// paths from node 0, computed with Bellman-Ford. The solution is integral
// because the constraint graph has integer weights.
func SolveUnitExact(in *core.Instance) (*core.ActiveSchedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.AllUnit() {
		return nil, fmt.Errorf("activetime: SolveUnitExact requires unit jobs")
	}
	T := int(in.Horizon())
	// Distinct window boundaries.
	firstSet := make(map[core.Time]bool)
	lastSet := make(map[core.Time]bool)
	for _, j := range in.Jobs {
		firstSet[j.FirstSlot()] = true
		lastSet[j.LastSlot()] = true
	}
	type cons struct {
		a, b core.Time
		req  int
	}
	var cs []cons
	for a := range firstSet {
		for b := range lastSet {
			if b < a {
				continue
			}
			count := 0
			for _, j := range in.Jobs {
				if j.FirstSlot() >= a && j.LastSlot() <= b {
					count++
				}
			}
			if count == 0 {
				continue
			}
			req := (count + in.G - 1) / in.G
			if int(b-a)+1 < req {
				return nil, ErrInfeasible
			}
			cs = append(cs, cons{a, b, req})
		}
	}
	// Longest path via Bellman-Ford on nodes 0..T.
	const negInf = int64(-1) << 60
	dist := make([]int64, T+1)
	for t := 1; t <= T; t++ {
		dist[t] = negInf
	}
	relax := func() bool {
		changed := false
		for t := 1; t <= T; t++ {
			if dist[t-1] != negInf && dist[t-1] > dist[t] {
				dist[t] = dist[t-1] // S_t >= S_{t-1}
				changed = true
			}
		}
		for t := T; t >= 1; t-- {
			if dist[t] != negInf && dist[t]-1 > dist[t-1] {
				dist[t-1] = dist[t] - 1 // S_{t-1} >= S_t - 1
				changed = true
			}
		}
		for _, c := range cs {
			if dist[c.a-1] != negInf && dist[c.a-1]+int64(c.req) > dist[c.b] {
				dist[c.b] = dist[c.a-1] + int64(c.req)
				changed = true
			}
		}
		return changed
	}
	for iter := 0; ; iter++ {
		if !relax() {
			break
		}
		if iter > T+len(cs)+2 {
			// A positive cycle would mean an interval requires more open
			// slots than it has; we pre-checked that, so this is defensive.
			return nil, ErrInfeasible
		}
	}
	open := make([]core.Time, 0, dist[T])
	for t := 1; t <= T; t++ {
		if dist[t] > dist[t-1] {
			open = append(open, core.Time(t))
		}
	}
	sched, err := Assign(in, open)
	if err != nil {
		return nil, fmt.Errorf("activetime: unit-exact slot set infeasible (bug): %w", err)
	}
	return sched, nil
}
