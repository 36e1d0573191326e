package activetime

import (
	"sort"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lp"
)

// LPResult holds the optimal solution of the active-time LP relaxation LP1
// of Section 3 of the paper.
type LPResult struct {
	// Y[t] is the fractional openness of slot t, for t in 1..T (Y[0] is
	// unused).
	Y []float64
	// Objective is sum_t Y[t], a lower bound on the optimal active time.
	Objective float64
	// Cuts counts the master rows the solve held at its start (for a cold
	// solve, the n seed covering rows) plus the Benders cuts it appended,
	// so Cuts − Purged is the final master's row count; Rounds the
	// number of master solves; Pivots the total simplex pivots across all
	// master solves (cold plus warm), the solver-effort figure experiments
	// report.
	Cuts, Rounds, Pivots int
	// MaxWarmPivots is the most pivots any single warm master re-solve
	// spent (a cold fallback's pivots included): the largest repair the
	// Benders loop asked of an inherited basis. A cold solve's first round
	// starts from no basis and is not counted.
	MaxWarmPivots int
	// Purged counts cuts removed by the registry's lifecycle management
	// (persistently slack rows excised from the live master); it is zero
	// for pipelines that disable purging. Refactors counts the basis
	// refactorizations across all master solves.
	Purged, Refactors int
	// Kernel aggregates the simplex engine's triangular-solve kernel
	// activity across all master solves: hypersparse-vs-dense path counts,
	// hypersparse result supports, and dual working-set refills.
	Kernel lp.KernelStats
	// ColdFallbacks sums the master solves' warm-basis abandonments (see
	// lp.Solution.ColdFallbacks) and FallbackVerdicts collects their
	// triggering verdicts. Healthy trajectories keep the count at zero —
	// the scaling gates assert exactly that — so a warm-start regression
	// that silently degrades every re-solve to a cold solve is loud here,
	// never masked.
	ColdFallbacks    int
	FallbackVerdicts []string
}

// newMaster builds the Benders master over the y variables: unit objective,
// native 0 <= y_t <= 1 bounds (no constraint rows), and one seed covering
// cut per job (A = {j} gives Σ_{t∈win} y_t >= p_j).
func newMaster(in *core.Instance) (*lp.Problem, error) {
	T := int(in.Horizon())
	prob := lp.NewProblem(T) // variable t-1 is y_t
	for t := 1; t <= T; t++ {
		prob.SetObjective(t-1, 1)
		prob.SetUpper(t-1, 1)
	}
	for _, j := range in.Jobs {
		if err := addSeedCut(prob, j); err != nil {
			return nil, err
		}
	}
	return prob, nil
}

// addSeedCut appends job j's seed covering cut Σ_{t∈win(j)} y_t >= p_j.
func addSeedCut(prob *lp.Problem, j core.Job) error {
	n := int(j.LastSlot()-j.FirstSlot()) + 1
	cols, vals := make([]int, 0, n), make([]float64, 0, n)
	for t := j.FirstSlot(); t <= j.LastSlot(); t++ {
		cols = append(cols, int(t)-1)
		vals = append(vals, 1)
	}
	return prob.AddSparse(cols, vals, lp.GE, float64(j.Length))
}

// SolveLP computes an optimal solution of LP1:
//
//	min  Σ_t y_t
//	s.t. x_{t,j} <= y_t, Σ_j x_{t,j} <= g·y_t, Σ_t x_{t,j} >= p_j,
//	     0 <= y <= 1, x >= 0, x_{t,j} = 0 outside j's window.
//
// Rather than instantiating the T·n assignment variables, it projects the
// LP onto the y variables: for a fixed y, a feasible fractional x exists iff
// the max flow of the fractional feasibility network equals P = Σ p_j, and
// by max-flow/min-cut that holds iff for every job subset A
//
//	Σ_t min(g, cov_A(t))·y_t >= Σ_{j∈A} p_j ,
//
// where cov_A(t) is the number of jobs of A whose window contains t. SolveLP
// generates these cuts lazily from minimum cuts (Benders decomposition) and
// solves the growing master LP with the simplex engine. Each round either
// proves optimality or adds previously absent violated cuts, so the
// procedure terminates.
//
// Separation is batched: each separation runs one max flow and harvests
// every violated job set it surfaces — the source side of a minimum cut
// plus one Hall-style violator per uncovered deficient job (see
// separateAll) — deduplicated against the cuts already in the master. At
// large horizons this collapses the long single-cut tail (dozens of rounds
// re-solving the master for one cut each) into a handful of rounds.
//
// Each round separates in-out (see Session.Solve): first at a probe on the
// segment from an LP-feasible center, which starts at every slot open, to
// the master optimum y*, and only when the probe yields no new cut at y*
// itself. A cut violated at the probe is violated at y* too, so the probe
// only deepens the cuts; the loop still stops exactly when separation at
// y* finds nothing new, so the optimum is the one separating at y* alone
// reaches. At T = 2048 the probe halves the master's pivots.
//
// The whole pipeline is incremental: y upper bounds live inside the simplex
// (no constraint rows), each master re-solve warm-starts from the previous
// optimal basis via lp.Problem.ResolveFrom (dual simplex on the appended
// cuts), and the separation network, one node per elementary interval
// (see separator), is built once and only re-capacitated on the intervals
// whose y-mass moved at each load. Two lifecycle policies ride on
// top: the per-round cut cap adapts to the horizon (single-cut at tiny T,
// the full batch of 32 at T >= 4096 — see adaptiveBatchCap), and a cut
// registry purges persistently slack cuts from the live master between
// rounds (see cutRegistry), which keeps the row count — the axis per-pivot
// cost scales on — near the working set the optimum actually binds.
func SolveLP(in *core.Instance) (*LPResult, error) {
	return solveLP(in, lpOptions{batchCap: 0, purge: true})
}

// lpOptions selects the cut lifecycle of one solveLP run. SolveLP runs the
// adaptive cap with purging; tests build never-purging references with
// batchCap 1 (one cut per round, the global minimum cut) or 32.
type lpOptions struct {
	batchCap int  // cuts per separation round; 0 = adaptive in the horizon
	purge    bool // purge persistently slack cuts between rounds
	// denseKernels pins the master's triangular solves to the dense path
	// (lp.Problem.SetDenseKernels); pivotHook observes every master basis
	// change (lp.Problem.SetPivotHook). Both exist for the kernel
	// equivalence suite, which replays identical pipelines under both
	// kernel paths and asserts identical pivot sequences.
	denseKernels bool
	pivotHook    func(row, col int)
	// sepHook observes every separation of a Solve round: the round's
	// master optimum y, the point separated (the probe, or y itself), the
	// solve's center after the separation, and the job sets it appended to
	// the master. The in-out suite checks the probe's cuts and the
	// center's feasibility through it.
	sepHook func(y, at, center []float64, added [][]bool)
}

// solveLP runs every one-shot pipeline through the session machinery: a
// fresh Session whose first Solve is exactly the cold Benders loop. Sessions
// kept alive after this call additionally accept AddJobs/RemoveJobs deltas
// (see Session); routing the one-shot entry points through the same code
// path is what keeps the delta-vs-cold metamorphic suite meaningful.
func solveLP(in *core.Instance, opts lpOptions) (*LPResult, error) {
	s, err := newSession(in, opts)
	if err != nil {
		return nil, err
	}
	return s.Solve()
}

// separator is the reusable Benders separation oracle: the fractional
// feasibility network of the paper, built once per SolveLP call, with only
// its y-dependent capacities rewritten before each max flow.
//
// The network is Gfeas on the elementary intervals of newIvalLayout, the
// layout feasChecker uses. Interval I carries Y_I = Σ_{t∈I} y_t: each
// job → I arc has capacity Y_I and the I → sink arc g·Y_I. For every
// fractional y this network has the per-slot network's max-flow value and
// the same minimum cuts over the jobs. Summing a per-slot flow over each
// interval gives an interval flow. Conversely, split each f_{j,I} over I's
// slots in proportion to y_t: job j gets f_{j,I}·y_t/Y_I ≤ y_t in slot t,
// and slot t gets Σ_j f_{j,I}·y_t/Y_I ≤ g·y_t. A job set A's cut costs
// Σ_{j∉A} p_j + Σ_t min(g, cov_A(t))·y_t in both networks, since cov_A is
// constant on each interval. So the cuts cutFor builds stay per slot, and
// the master keeps one column per slot.
//
// The previous round's flow survives re-capacitation (see load): only the
// intervals whose Y_I moved are re-capacitated, only arcs whose capacity
// shrank below their flow are repaired — the excess cancelled along the
// rest of its source→job→interval→sink path, which is cheap because every
// path in this bipartite network has length 3 — and Max then augments from
// the repaired residual state, routing just the difference instead of the
// full demand P every round. A newly built separator carries no flow, so its
// first load is a solve from zero; that is the reference the equivalence
// tests hold the carried flow to. An instance delta can split an interval,
// so a Session builds a new separator after each one.
type separator struct {
	in        *core.Instance
	net       *flow.Network[float64]
	src, sink int
	srcEdges  []flow.EdgeID[float64] // index i: source → job i
	ivals     []sepInterval          // per interval, in slot order
	ivalArcs  [][]jobArc[float64]    // per interval: its incoming job arcs, in job order
	total     float64
	// cov is cutFor's per-slot coverage scratch (index t-1), all zero
	// between calls.
	cov []int32
}

// sepInterval is one elementary interval of the separator: its slots lo..hi
// and its sink arc. loaded is the Y_I that load last wrote into its arcs,
// the one value every job arc of the interval holds, so a load visits only
// the intervals whose sum moved; a new separator holds 0, its arcs'
// capacity. sum is load's scratch, the Y_I of the y being loaded.
type sepInterval struct {
	lo, hi      int32
	loaded, sum float64
	sink        flow.EdgeID[float64]
}

// newSeparator builds the network over the instance's elementary
// intervals, every y-dependent capacity 0. Its arcs and the ivalArcs lists
// are each carved out of one exactly sized array, so the build makes the
// same number of allocations at any horizon.
func newSeparator(in *core.Instance) *separator {
	const eps = 1e-12
	n := len(in.Jobs)
	lay := newIvalLayout(in.Jobs)
	s := &separator{
		in:       in,
		net:      flow.NewNetworkDegrees[float64](lay.deg, eps),
		src:      0,
		sink:     len(lay.deg) - 1,
		srcEdges: make([]flow.EdgeID[float64], n),
		ivals:    make([]sepInterval, lay.nIvals),
		ivalArcs: carve[jobArc[float64]](lay.nIvals, func(k int) int { return lay.deg[1+n+k] - 1 }),
		cov:      make([]int32, in.Horizon()),
	}
	for t, k := range lay.slotIval {
		if k < 0 {
			continue
		}
		iv := &s.ivals[k]
		if iv.lo == 0 {
			iv.lo = int32(t)
		}
		iv.hi = int32(t)
	}
	for k := range s.ivals {
		s.ivals[k].sink = s.net.AddEdge(1+n+k, s.sink, 0)
	}
	for i, j := range in.Jobs {
		s.srcEdges[i] = s.net.AddEdge(s.src, 1+i, float64(j.Length))
		s.total += float64(j.Length)
		prev := int32(-1)
		for t := max(j.FirstSlot(), 1); t <= j.LastSlot(); t++ {
			if k := lay.slotIval[t]; k != prev {
				a := jobArc[float64]{int32(i), s.net.AddEdge(1+i, lay.slotNode[t], 0)}
				s.ivalArcs[k] = append(s.ivalArcs[k], a)
				prev = k
			}
		}
	}
	return s
}

// load solves the feasibility subproblem for y (index t-1: slot t),
// reporting whether y is infeasible (max flow short of the total demand).
// It re-capacitates the y-dependent arcs while keeping the flow routed in
// earlier loads, repairs conservation where a capacity shrank below its
// flow, and lets Max augment only the difference. Slots past the
// instance's last window, which a Session's master keeps after a
// departure, lie in no interval and are not read.
//
// Every flow path here is source→job→interval→sink, so each repair is
// local: clamping a job→interval arc cancels the excess on that job's
// supply arc and that interval's sink arc; clamping a sink arc cancels the
// excess across the interval's job arcs (and their supply arcs) in job
// order until the interval's inflow matches its new outflow. After the
// repair pass the flow is again a valid (sub-maximal) flow of the
// re-capacitated network, so continuing Dinic from the residual state
// yields a true maximum flow and the same unique min-cut value a fresh
// solve finds.
//
// Each Y_I is summed over the interval's slots in slot order, and only the
// intervals whose sum differs from loaded are visited. The visits keep the
// order of a scan over every arc: first the job→interval arcs (interval by
// interval, each interval's jobs in job order), then the sink arcs. Every
// arc therefore sees the same SetCapacityKeepFlow/PushBack sequence, so the
// flow is the same to the last bit.
func (s *separator) load(y []float64) bool {
	g := float64(s.in.G)
	for k := range s.ivals {
		iv := &s.ivals[k]
		sum := 0.0
		for _, v := range y[iv.lo-1 : iv.hi] {
			sum += v
		}
		iv.sum = sum
		if sum == iv.loaded {
			continue
		}
		for _, a := range s.ivalArcs[k] {
			if ex := s.net.SetCapacityKeepFlow(a.id, sum); ex > 0 {
				s.net.PushBack(s.srcEdges[a.job], ex)
				s.net.PushBack(iv.sink, ex)
			}
		}
	}
	for k := range s.ivals {
		iv := &s.ivals[k]
		if iv.sum == iv.loaded {
			continue
		}
		iv.loaded = iv.sum
		c := g * iv.sum
		if c == s.net.Capacity(iv.sink) {
			continue
		}
		ex := s.net.SetCapacityKeepFlow(iv.sink, c)
		for _, a := range s.ivalArcs[k] {
			if ex <= 0 {
				break
			}
			f := s.net.Flow(a.id)
			if f <= 0 {
				continue
			}
			if f > ex {
				f = ex
			}
			s.net.PushBack(a.id, f)
			s.net.PushBack(s.srcEdges[a.job], f)
			ex -= f
		}
	}
	got := 0.0
	for i := range s.srcEdges {
		got += s.net.Flow(s.srcEdges[i])
	}
	got += s.net.Max(s.src, s.sink)
	return got < s.total-1e-6
}

// separateAll solves the feasibility subproblem once and, when y is
// infeasible, harvests every violated job set the single max-flow probe
// surfaces:
//
//   - the source side of a minimum cut (the most violated canonical cut,
//     by max-flow/min-cut), and
//   - for each job whose source edge the flow left unsaturated (a job short
//     of its demand) and that no earlier harvested set covers, the set of
//     jobs reachable from it in the residual graph with the source node
//     blocked (unblocked, every deficient job reaches the source over its
//     own unsaturated supply edge, and all sets collapse onto the global
//     minimum cut).
//
// Each harvested set is residual-closed away from the source, so the
// standard cut-accounting argument shows its canonical cut is violated by
// at least that job's deficiency — every returned set yields a valid
// violated cut, and the batch localizes the deficiency per job instead of
// aggregating it into one coarse cut per round. The residual walks run
// one at a time, in deficit order, each when the replay reaches a job that
// no earlier set covers, so a covered job costs no walk.
//
// cap bounds the job sets harvested per probe (the global min cut plus up
// to cap−1 per-job violators). Uncapped batching floods the master — the
// deepest deficiencies are localized first and the rest surface in later
// rounds if the aggregate cut leaves them violated. maxBatchCuts is the
// hard ceiling; the default policy scales the cap with the horizon (see
// adaptiveBatchCap), down to single-cut behavior at tiny T where extra
// rows only pad an already-cheap master.
const maxBatchCuts = 32

func (s *separator) separateAll(y []float64, cap int) [][]bool {
	if !s.load(y) {
		return nil
	}
	nJobs := len(s.in.Jobs)
	var out [][]bool
	side := s.net.MinCutSource(s.src)
	A := make([]bool, nJobs)
	for i := range s.in.Jobs {
		A[i] = side[1+i]
	}
	out = append(out, A)
	// Deficient jobs, deepest deficiency first, so the cap keeps the most
	// violated localized cuts.
	type deficit struct {
		job int
		gap float64
	}
	var short []deficit
	for i := range s.in.Jobs {
		if gap := s.net.Residual(s.srcEdges[i]); gap > 1e-7 {
			short = append(short, deficit{i, gap})
		}
	}
	sort.Slice(short, func(a, b int) bool {
		if short[a].gap != short[b].gap {
			return short[a].gap > short[b].gap
		}
		return short[a].job < short[b].job
	})
	covered := make([]bool, nJobs)
	for _, d := range short {
		if len(out) >= cap {
			break
		}
		if covered[d.job] {
			continue
		}
		reach := s.net.ReachableFrom(1+d.job, s.src)
		B := make([]bool, nJobs)
		for k := 0; k < nJobs; k++ {
			if reach[1+k] {
				B[k] = true
				covered[k] = true
			}
		}
		out = append(out, B)
	}
	return out
}

// cutFor builds the canonical cut for job subset A of the separator's
// instance: Σ_t min(g, cov_A(t))·y_t >= Σ_{j∈A} p_j. It counts coverage in
// the cov scratch over the span of A's windows only, allocates cols and
// vals at their exact length, and zeroes the scratch as it emits them.
func (s *separator) cutFor(A []bool) (cols []int, vals []float64, rhs float64) {
	cov := s.cov
	lo, hi, n := len(cov), -1, 0
	for i, j := range s.in.Jobs {
		if !A[i] {
			continue
		}
		rhs += float64(j.Length)
		first, last := int(j.FirstSlot())-1, int(j.LastSlot())-1
		for t := first; t <= last; t++ {
			if cov[t] == 0 {
				n++
			}
			cov[t]++
		}
		lo, hi = min(lo, first), max(hi, last)
	}
	cols, vals = make([]int, 0, n), make([]float64, 0, n)
	g := int32(s.in.G)
	for t := lo; t <= hi; t++ {
		if c := cov[t]; c != 0 {
			cov[t] = 0
			cols = append(cols, t)
			vals = append(vals, float64(min(c, g)))
		}
	}
	return cols, vals, rhs
}
