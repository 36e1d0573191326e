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
	// unused). The master solves for one value Y_I per atom I (see
	// newMaster); Y spreads each over its atom's slots right-filled: ones
	// at the atom's end, at most one fractional slot before them, zeros
	// before that. Every slot of an atom lies in the same job windows, so
	// this is an optimum of LP1 over the slots, with the master's sum over
	// every run of slots between two window bounds.
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

// newMaster builds the Benders master over the separator's atoms: one
// column Y_I per interval I of the separator, at the interval's column
// index, with cost 1 and bound |I|, and one seed covering row per job
// (A = {j}: Σ_{I ⊆ win(j)} Y_I >= p_j). It takes a newly built separator,
// whose interval k is column k. Every row of LP1 projected onto the slots,
// Σ_t min(g, cov_A(t))·y_t >= P(A), has one coefficient on all the slots
// of an atom, since they lie in the same windows; so summing y over each
// atom maps the slot optima onto the atom optima and back (see LPResult.Y),
// and the two masters have the same optimal value. On the end-to-end
// benchmark's first input the final master has 307 columns and 5,156
// nonzeros, against 2,048 and 20,957 with one column per slot.
func newMaster(sep *separator) (*lp.Problem, error) {
	prob := lp.NewProblem(len(sep.ivals))
	for _, iv := range sep.ivals {
		prob.SetObjective(int(iv.col), 1)
		prob.SetUpper(int(iv.col), float64(iv.hi-iv.lo+1))
	}
	for i := range sep.in.Jobs {
		if err := sep.addSeedCut(prob, i); err != nil {
			return nil, err
		}
	}
	return prob, nil
}

// addSeedCut appends job i's seed covering cut Σ_{I ⊆ win(i)} Y_I >= p_i
// to the master, one coefficient per atom of its window.
func (s *separator) addSeedCut(prob *lp.Problem, i int) error {
	j := s.in.Jobs[i]
	first, last := s.slotIval[j.FirstSlot()], s.slotIval[j.LastSlot()]
	cols, vals := make([]int, 0, last-first+1), make([]float64, 0, last-first+1)
	for k := first; k <= last; k++ {
		cols = append(cols, int(s.ivals[k].col))
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
// where cov_A(t) is the number of jobs of A whose window contains t. cov_A
// is constant on every elementary interval, so the master sums y over each
// one: a column Y_I ∈ [0, |I|] per interval, and the cuts
// Σ_I min(g, cov_A(I))·Y_I >= P(A) (see newMaster). SolveLP generates these
// cuts lazily from minimum cuts (Benders decomposition) and solves the
// growing master LP with the simplex engine. Each round either proves
// optimality or adds previously absent violated cuts, so the procedure
// terminates. The result spreads each Y_I over its slots (LPResult.Y).
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
// The whole pipeline is incremental: the bounds |I| live inside the simplex
// (no constraint rows), each master re-solve warm-starts from the previous
// optimal basis via lp.Problem.ResolveFrom (dual simplex on the appended
// cuts), and the separation network, one node per master column (see
// separator), is built once and only re-capacitated on the intervals
// whose Y_I moved at each load. Two lifecycle policies ride on
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
// The network is Gfeas on the atoms of the master (see newMaster): the
// elementary intervals of newIvalLayout for a new instance, cut further
// where a Session's arrivals split an atom. Its interval nodes are the
// master's atoms in slot order, and each keeps its master column col.
// Interval I carries the master's Y_I: each job → I arc has capacity Y_I
// and the I → sink arc g·Y_I. For every y over the slots that sums to Y_I
// on each I, this network has the per-slot network's max-flow value and the
// same minimum cuts over the jobs. Summing a per-slot flow over each
// interval gives an interval flow. Conversely, split each f_{j,I} over I's
// slots in proportion to y_t: job j gets f_{j,I}·y_t/Y_I ≤ y_t in slot t,
// and slot t gets Σ_j f_{j,I}·y_t/Y_I ≤ g·y_t. A job set A's cut costs
// Σ_{j∉A} p_j + Σ_t min(g, cov_A(t))·y_t in both networks, since cov_A is
// constant on each interval, so cutFor writes it with one coefficient per
// atom.
//
// The previous round's flow survives re-capacitation (see load): only the
// intervals whose Y_I moved are re-capacitated, only arcs whose capacity
// shrank below their flow are repaired — the excess cancelled along the
// rest of its source→job→interval→sink path, which is cheap because every
// path in this bipartite network has length 3 — and Max then augments from
// the repaired residual state, routing just the difference instead of the
// full demand P every round. A newly built separator carries no flow, so its
// first load is a solve from zero; that is the reference the equivalence
// tests hold the carried flow to. An instance delta can add jobs and split
// atoms, so a Session builds a new separator after each one.
type separator struct {
	in        *core.Instance
	net       *flow.Network[float64]
	src, sink int
	srcEdges  []flow.EdgeID[float64] // index i: source → job i
	ivals     []sepInterval          // per interval, in slot order
	ivalArcs  [][]jobArc[float64]    // per interval: its incoming job arcs, in job order
	slotIval  []int32                // index t: slot t's interval, -1 outside every window
	total     float64
	// cov is cutFor's per-interval coverage scratch, all zero between
	// calls.
	cov []int32
}

// sepInterval is one interval of the separator: its slots lo..hi, its
// master column col and its sink arc. loaded is the Y_I that load last
// wrote into its arcs, the one value every job arc of the interval holds,
// so a load visits only the intervals whose value moved; a new separator
// holds 0, its arcs' capacity.
type sepInterval struct {
	lo, hi int32
	col    int32
	loaded float64
	sink   flow.EdgeID[float64]
}

// newSeparator builds the separator over the instance's elementary
// intervals, interval k on master column k: the layout newMaster builds
// its columns from.
func newSeparator(in *core.Instance) *separator { return newAtomSeparator(in, nil) }

// newAtomSeparator builds the network over the atoms atomCol lays out,
// every y-dependent capacity 0. atomCol maps each slot to its atom's master
// column, as a Session keeps it; every window of the instance must contain
// or miss each atom, and an atom no window covers gets no node. A nil
// atomCol stands for the elementary intervals, interval k on column k. Its
// arcs and the ivalArcs lists are each carved out of one exactly sized
// array, so the build makes the same number of allocations at any horizon.
func newAtomSeparator(in *core.Instance, atomCol []int32) *separator {
	const eps = 1e-12
	n := len(in.Jobs)
	lay := newIvalLayout(in.Jobs, atomCol)
	s := &separator{
		in:       in,
		net:      flow.NewNetworkDegrees[float64](lay.deg, eps),
		src:      0,
		sink:     len(lay.deg) - 1,
		srcEdges: make([]flow.EdgeID[float64], n),
		ivals:    make([]sepInterval, lay.nIvals),
		ivalArcs: carve[jobArc[float64]](lay.nIvals, func(k int) int { return lay.deg[1+n+k] - 1 }),
		slotIval: lay.slotIval,
		cov:      make([]int32, lay.nIvals),
	}
	for t, k := range lay.slotIval {
		if k < 0 {
			continue
		}
		iv := &s.ivals[k]
		if iv.lo == 0 {
			iv.lo, iv.col = int32(t), k
			if atomCol != nil {
				iv.col = atomCol[t]
			}
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

// load solves the feasibility subproblem for the master point Y (index:
// master column), reporting whether Y is infeasible (max flow short of the
// total demand). It re-capacitates the y-dependent arcs while keeping the
// flow routed in earlier loads, repairs conservation where a capacity
// shrank below its flow, and lets Max augment only the difference. Columns
// of atoms no window covers, which a Session's master keeps after a
// departure, have no node and are not read.
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
// Each interval reads its Y_I from its column, and only the intervals
// whose value differs from loaded are visited. The visits keep the order
// of a scan over every arc: first the job→interval arcs (interval by
// interval, each interval's jobs in job order), then the sink arcs. Every
// arc therefore sees the same SetCapacityKeepFlow/PushBack sequence, so the
// flow is the same to the last bit.
func (s *separator) load(Y []float64) bool {
	g := float64(s.in.G)
	for k := range s.ivals {
		iv := &s.ivals[k]
		v := Y[iv.col]
		if v == iv.loaded {
			continue
		}
		for _, a := range s.ivalArcs[k] {
			if ex := s.net.SetCapacityKeepFlow(a.id, v); ex > 0 {
				s.net.PushBack(s.srcEdges[a.job], ex)
				s.net.PushBack(iv.sink, ex)
			}
		}
	}
	for k := range s.ivals {
		iv := &s.ivals[k]
		v := Y[iv.col]
		if v == iv.loaded {
			continue
		}
		iv.loaded = v
		c := g * v
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

// feasibleAllOpen reports whether the jobs fit with every slot open: one
// load with every atom at its bound, Y_I = |I|, whose capacities are
// integral, so the float flow decides exactly. It then returns the
// separator to its starting state (every y-dependent capacity 0, no flow),
// so the next load still solves from zero. It answers the question
// CheckFeasible(in, AllSlots(in)) does, without a second network.
func (s *separator) feasibleAllOpen() bool {
	cols := 0
	for _, iv := range s.ivals {
		cols = max(cols, int(iv.col)+1)
	}
	Y := make([]float64, cols)
	for _, iv := range s.ivals {
		Y[iv.col] = float64(iv.hi - iv.lo + 1)
	}
	ok := !s.load(Y)
	s.net.Reset()
	for k := range s.ivals {
		iv := &s.ivals[k]
		iv.loaded = 0
		s.net.SetCapacity(iv.sink, 0)
		for _, a := range s.ivalArcs[k] {
			s.net.SetCapacity(a.id, 0)
		}
	}
	return ok
}

// sumSlots writes into Y, at each interval's column, the sum of y over the
// interval's slots in slot order (y index t-1: slot t): the point load
// takes for a y over the slots, such as the rounding sweep's.
func (s *separator) sumSlots(y, Y []float64) {
	for _, iv := range s.ivals {
		sum := 0.0
		for _, v := range y[iv.lo-1 : iv.hi] {
			sum += v
		}
		Y[iv.col] = sum
	}
}

// slotValues spreads the master point Y over the slots 1..T (index 0
// unused): each interval's value, clamped to [0, |I|], right-filled — ones
// at the interval's end, at most one fractional slot before them. Slots of
// no interval get 0.
func (s *separator) slotValues(Y []float64) []float64 {
	y := make([]float64, s.in.Horizon()+1)
	for _, iv := range s.ivals {
		v := min(max(Y[iv.col], 0), float64(iv.hi-iv.lo+1))
		full, frac := math.Modf(v)
		t := iv.hi
		for ; full > 0; full-- {
			y[t] = 1
			t--
		}
		if frac > 0 {
			y[t] = frac
		}
	}
	return y
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
// instance, one coefficient per atom: Σ_I min(g, cov_A(I))·Y_I >= Σ_{j∈A} p_j.
// It counts coverage in the cov scratch over the span of A's windows only,
// allocates cols and vals at their exact length, and zeroes the scratch as
// it emits them. The columns come in slot order, which is ascending on a
// newly built master and which AddSparse sorts after a Session's splits.
func (s *separator) cutFor(A []bool) (cols []int, vals []float64, rhs float64) {
	cov := s.cov
	lo, hi, n := len(cov), -1, 0
	for i, j := range s.in.Jobs {
		if !A[i] {
			continue
		}
		rhs += float64(j.Length)
		first, last := int(s.slotIval[j.FirstSlot()]), int(s.slotIval[j.LastSlot()])
		for k := first; k <= last; k++ {
			if cov[k] == 0 {
				n++
			}
			cov[k]++
		}
		lo, hi = min(lo, first), max(hi, last)
	}
	cols, vals = make([]int, 0, n), make([]float64, 0, n)
	g := int32(s.in.G)
	for k := lo; k <= hi; k++ {
		if c := cov[k]; c != 0 {
			cov[k] = 0
			cols = append(cols, int(s.ivals[k].col))
			vals = append(vals, float64(min(c, g)))
		}
	}
	return cols, vals, rhs
}
