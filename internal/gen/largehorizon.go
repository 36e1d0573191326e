package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// LargeHorizon returns a structured instance on a horizon of up to ~65536
// slots, the scaling workload for the LP1 pipeline. Its shape follows the
// instances where large active-time horizons actually arise (cf. Nested
// Active-Time Scheduling, arXiv:2207.12507): a laminar binary split of the
// horizon provides container windows carrying one flexible job each, and
// nested chains of strictly shrinking windows are layered around random
// centers. Window supports are short relative to the horizon, so the Benders
// master's constraint rows are highly sparse — the regime the factorized
// (LU + Forrest–Tomlin updates) revised-simplex core and its hypersparse
// FTRAN/BTRAN kernels are built for. The canonical density is N = T/8 jobs;
// at T = 16384–32768 that density is the endurance workload of E18 and the
// ROADMAP scaling record, while lighter densities (N = T/32) carry the same
// structure to T = 65536 and keep big horizons test-suite-affordable.
// TestLargeHorizonShape pins the structural invariants (validity, horizon,
// laminar/nested mix, all-slots-open feasibility) through T = 65536.
//
// Lengths are clamped well below window widths (and G should be >= 2), which
// keeps every generated instance feasible with all slots open; the property
// suite asserts this rather than assuming it.
func LargeHorizon(c RandomConfig) *core.Instance {
	rng := rand.New(rand.NewSource(c.Seed))
	T := core.Time(c.Horizon)
	if T < 16 {
		T = 16
	}
	maxLen := c.MaxLen
	if maxLen < 1 {
		maxLen = 8
	}
	var jobs []core.Job
	id := 0
	addJob := func(lo, hi core.Time) {
		if id >= c.N || hi-lo < 2 {
			return
		}
		width := int(hi - lo)
		l := 1 + rng.Intn(max(1, min(maxLen, width/8)))
		jobs = append(jobs, core.Job{ID: id, Release: lo, Deadline: hi, Length: core.Time(l)})
		id++
	}
	// Laminar half: binary splits of [0, T) down to short windows, one job
	// per container.
	var laminar func(lo, hi core.Time)
	laminar = func(lo, hi core.Time) {
		if id >= c.N/2 || hi-lo < 8 {
			return
		}
		addJob(lo, hi)
		mid := (lo + hi) / 2
		laminar(lo, mid)
		laminar(mid, hi)
	}
	laminar(0, T)
	// Nested half: chains of strictly shrinking windows around random
	// centers, the other structured source of long horizons.
	for id < c.N {
		center := core.Time(8 + rng.Intn(max(1, int(T)-16)))
		half := core.Time(4 + rng.Intn(int(T)/16+4))
		for half >= 2 && id < c.N {
			lo, hi := center-half, center+half
			if lo < 0 {
				lo = 0
			}
			if hi > T {
				hi = T
			}
			addJob(lo, hi)
			half = half * 2 / 3
		}
	}
	return &core.Instance{
		Name: fmt.Sprintf("large-horizon(n=%d,T=%d,g=%d,seed=%d)", len(jobs), c.Horizon, c.G, c.Seed),
		G:    c.G, Jobs: jobs,
	}
}
