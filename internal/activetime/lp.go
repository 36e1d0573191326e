package activetime

import (
	"math"
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
// cuts), and the separation network is built once and only re-capacitated
// on its y-dependent edges at each load. Two lifecycle policies ride on
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
// feasibility network of the paper is built once per SolveLP call, and each
// round only the y-dependent capacities (slot→sink g·y_t, job→slot y_t) are
// rewritten before re-running max-flow.
//
// The previous round's flow survives re-capacitation (see load): only the
// slots whose y moved are re-capacitated, only edges whose capacity shrank
// below their flow are repaired — the excess cancelled along the rest of
// its source→job→slot→sink path, which is cheap because every path in this
// bipartite network has length 3 — and Max then augments from the repaired
// residual state, routing just the difference instead of the full demand P
// over a ~T-node network every round. A newly built separator carries no
// flow, so its first load is a solve from zero; that is the reference the
// equivalence tests hold the carried flow to.
//
// The network also survives instance deltas (Session): jobNode/slotNode map
// job positions and slots to their flow-network nodes, so growth appends
// nodes past the original sink (addSlots, addJob) and job removal
// (removeJobs) cancels the departed jobs' routed flow edge-locally with the
// same SetCapacityKeepFlow+PushBack repair the loads use, leaving the
// surviving flow intact instead of rebuilding the network.
type separator struct {
	in        *core.Instance
	net       *flow.Network[float64]
	src, sink int
	jobNode   []int                    // index i: flow node of job i
	slotNode  []int                    // index t-1: flow node of slot t
	srcEdges  []flow.EdgeID[float64]   // index i: source → job i
	slotEdges []flow.EdgeID[float64]   // index t-1: slot t → sink
	jobEdges  [][]flow.EdgeID[float64] // per job, per window slot offset
	slotJobs  [][]slotRef              // transpose of jobEdges: per slot, incoming job edges
	total     float64
	// loaded[t] is the y that load last wrote into slot t+1's edges, the one
	// value all of them hold, so a load visits only the slots whose y moved.
	// A new separator holds 0, its edges' capacity; addSlots appends 0 too;
	// addJob marks its window slots NaN, which equals no y, so its
	// zero-capacity edges are written by the next load.
	loaded []float64
	// cov is cutFor's per-slot coverage scratch (index t-1), all zero
	// between calls.
	cov []int32
}

// slotRef locates one job→slot edge from the slot side: jobEdges[job][k].
type slotRef struct {
	job, k int32
}

// newSeparator builds the network over every slot of the horizon. Its arcs,
// the jobEdges lists and the slotJobs lists are each carved out of one
// exactly sized array; growth (addSlots, addJob) moves a full list to its
// own array.
func newSeparator(in *core.Instance) *separator {
	const eps = 1e-12
	T := int(in.Horizon())
	nJobs := len(in.Jobs)
	slotNode := make([]int, 1+T) // index t: node of slot t
	for t := 1; t <= T; t++ {
		slotNode[t] = nJobs + t
	}
	deg := gfeasDegrees(in.Jobs, slotNode, T)
	s := &separator{
		in:        in,
		net:       flow.NewNetworkDegrees[float64](deg, eps),
		src:       0,
		sink:      1 + nJobs + T,
		jobNode:   make([]int, nJobs),
		slotNode:  slotNode[1:],
		srcEdges:  make([]flow.EdgeID[float64], nJobs),
		slotEdges: make([]flow.EdgeID[float64], T),
		jobEdges:  carve[flow.EdgeID[float64]](nJobs, func(i int) int { return deg[1+i] - 1 }),
		slotJobs:  carve[slotRef](T, func(k int) int { return deg[1+nJobs+k] - 1 }),
		loaded:    make([]float64, T),
		cov:       make([]int32, T),
	}
	for t := 1; t <= T; t++ {
		s.slotEdges[t-1] = s.net.AddEdge(s.slotNode[t-1], s.sink, 0)
	}
	for i, j := range in.Jobs {
		s.jobNode[i] = 1 + i
		s.srcEdges[i] = s.net.AddEdge(s.src, s.jobNode[i], float64(j.Length))
		s.total += float64(j.Length)
		for k, t := 0, j.FirstSlot(); t <= j.LastSlot(); k, t = k+1, t+1 {
			s.jobEdges[i] = append(s.jobEdges[i], s.net.AddEdge(s.jobNode[i], s.slotNode[t-1], 0))
			s.slotJobs[t-1] = append(s.slotJobs[t-1], slotRef{int32(i), int32(k)})
		}
	}
	return s
}

// addSlots grows the slot axis to newT slots: new slot nodes appended past
// the original sink, each with a zero-capacity slot→sink edge that the next
// load re-capacitates from y. Growth never renumbers an existing node, so
// all routed flow and every stored EdgeID stay valid.
func (s *separator) addSlots(newT int) {
	for t := len(s.slotNode); t < newT; t++ {
		node := s.net.AddNode()
		s.slotNode = append(s.slotNode, node)
		s.slotEdges = append(s.slotEdges, s.net.AddEdge(node, s.sink, 0))
		s.slotJobs = append(s.slotJobs, nil)
		s.loaded = append(s.loaded, 0)
		s.cov = append(s.cov, 0)
	}
}

// addJob splices a new job (at position len(jobNode)) into the live network:
// one node, a supply edge carrying its length, and zero-capacity window
// edges, whose slots it marks unloaded (NaN in loaded) so that the next
// load writes y into them even where y has not moved. The job's demand is
// routed by that load's Max augmentation on top of the surviving flow. The
// slot axis must already cover the job's window (addSlots).
func (s *separator) addJob(j core.Job) {
	i := len(s.jobNode)
	node := s.net.AddNode()
	s.jobNode = append(s.jobNode, node)
	s.srcEdges = append(s.srcEdges, s.net.AddEdge(s.src, node, float64(j.Length)))
	s.total += float64(j.Length)
	ids := make([]flow.EdgeID[float64], 0, int(j.LastSlot()-j.FirstSlot())+1)
	for k, t := 0, j.FirstSlot(); t <= j.LastSlot(); k, t = k+1, t+1 {
		ids = append(ids, s.net.AddEdge(node, s.slotNode[t-1], 0))
		s.slotJobs[t-1] = append(s.slotJobs[t-1], slotRef{int32(i), int32(k)})
		s.loaded[t-1] = math.NaN()
	}
	s.jobEdges = append(s.jobEdges, ids)
}

// removeJobs detaches the masked jobs from the live network without touching
// anyone else's flow: each dead job's window edges are clamped to zero
// capacity with the excess cancelled along the rest of its length-3 paths
// (the load repair), its supply edge closed, and the per-job
// arrays compacted to the surviving positions. Must run before the caller
// compacts its job slice — the dead jobs' windows are still read here. The
// dead nodes stay in the network, unreachable behind zero capacities.
func (s *separator) removeJobs(dead []bool) {
	for i, j := range s.in.Jobs {
		if !dead[i] {
			continue
		}
		ids := s.jobEdges[i]
		for k, t := 0, j.FirstSlot(); t <= j.LastSlot(); k, t = k+1, t+1 {
			if ex := s.net.SetCapacityKeepFlow(ids[k], 0); ex > 0 {
				s.net.PushBack(s.srcEdges[i], ex)
				s.net.PushBack(s.slotEdges[t-1], ex)
			}
		}
		s.net.SetCapacityKeepFlow(s.srcEdges[i], 0)
		s.total -= float64(j.Length)
	}
	out := 0
	for i := range s.jobEdges {
		if dead[i] {
			continue
		}
		s.jobNode[out] = s.jobNode[i]
		s.srcEdges[out] = s.srcEdges[i]
		s.jobEdges[out] = s.jobEdges[i]
		out++
	}
	s.jobNode = s.jobNode[:out]
	s.srcEdges = s.srcEdges[:out]
	for i := out; i < len(s.jobEdges); i++ {
		s.jobEdges[i] = nil
	}
	s.jobEdges = s.jobEdges[:out]
	for t := range s.slotJobs {
		s.slotJobs[t] = s.slotJobs[t][:0]
	}
	np := 0
	for i, j := range s.in.Jobs {
		if dead[i] {
			continue
		}
		for k, t := 0, j.FirstSlot(); t <= j.LastSlot(); k, t = k+1, t+1 {
			s.slotJobs[t-1] = append(s.slotJobs[t-1], slotRef{int32(np), int32(k)})
		}
		np++
	}
}

// load solves the feasibility subproblem for y, reporting whether y is
// infeasible (max flow short of the total demand). It re-capacitates the
// y-dependent edges while keeping the flow routed in earlier loads, repairs
// conservation where a capacity shrank below its flow, and lets Max augment
// only the difference.
//
// Every flow path here is source→job→slot→sink, so each repair is local:
// clamping a job→slot edge cancels the excess on that job's supply edge and
// that slot's sink edge; clamping a slot→sink edge cancels the excess
// across the slot's incoming job edges (and their supply edges) until the
// slot's inflow matches its new outflow. After the repair pass the flow is
// again a valid (sub-maximal) flow of the re-capacitated network, so
// continuing Dinic from the residual state yields a true maximum flow and
// the same unique min-cut value a fresh solve finds.
//
// Only the slots whose y differs from loaded are visited, and within them
// only the edges whose capacity differs. Successive rounding decisions
// change few y_t. The Benders loop's loads alternate between a probe and
// the master optimum, which differ wherever the optimum differs from the
// center: on the end-to-end benchmark's first input a load moves 837 of
// its 2048 slots on average. The visits keep the order of a scan over every
// edge: first the job→slot edges (slot by slot, each slot's jobs in job
// order), then the slot→sink edges. Every edge therefore sees the same
// SetCapacityKeepFlow/PushBack sequence, so the flow is the same to the
// last bit.
func (s *separator) load(y []float64) bool {
	g := float64(s.in.G)
	for t, c := range y {
		if c == s.loaded[t] {
			continue
		}
		for _, ref := range s.slotJobs[t] {
			id := s.jobEdges[ref.job][ref.k]
			if c == s.net.Capacity(id) {
				continue
			}
			if ex := s.net.SetCapacityKeepFlow(id, c); ex > 0 {
				s.net.PushBack(s.srcEdges[ref.job], ex)
				s.net.PushBack(s.slotEdges[t], ex)
			}
		}
	}
	for t, yt := range y {
		if yt == s.loaded[t] {
			continue
		}
		s.loaded[t] = yt
		c := g * yt
		if c == s.net.Capacity(s.slotEdges[t]) {
			continue
		}
		ex := s.net.SetCapacityKeepFlow(s.slotEdges[t], c)
		for _, ref := range s.slotJobs[t] {
			if ex <= 0 {
				break
			}
			eid := s.jobEdges[ref.job][ref.k]
			f := s.net.Flow(eid)
			if f <= 0 {
				continue
			}
			if f > ex {
				f = ex
			}
			s.net.PushBack(eid, f)
			s.net.PushBack(s.srcEdges[ref.job], f)
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
		A[i] = side[s.jobNode[i]]
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
		reach := s.net.ReachableFrom(s.jobNode[d.job], s.src)
		B := make([]bool, nJobs)
		for k := 0; k < nJobs; k++ {
			if reach[s.jobNode[k]] {
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
