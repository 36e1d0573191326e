package activetime

import (
	"math"
	"sort"

	"repro/internal/core"
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
	first, last := s.span(j)
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

// separator is the Benders separation oracle: Gfeas on the atoms of the
// master (see newMaster), built once per Session and carrying its flow
// from one load to the next (see gfeas). Its intervals are the elementary
// intervals of newIvalLayout for a new instance, cut further where a
// Session's arrivals split an atom; each keeps its atom's master column
// col. Interval I carries the master's Y_I: each job → I arc has capacity
// Y_I and the I → sink arc g·Y_I. For every y over the slots that sums to
// Y_I on each I, this network has the per-slot network's max-flow value
// and the same minimum cuts over the jobs. Summing a per-slot flow over
// each interval gives an interval flow. Conversely, split each f_{j,I}
// over I's slots in proportion to y_t: job j gets f_{j,I}·y_t/Y_I ≤ y_t in
// slot t, and slot t gets Σ_j f_{j,I}·y_t/Y_I ≤ g·y_t. A job set A's cut
// costs Σ_{j∉A} p_j + Σ_t min(g, cov_A(t))·y_t in both networks, since
// cov_A is constant on each interval, so cutFor writes it with one
// coefficient per atom.
//
// A newly built separator carries no flow, so its first load is a solve
// from zero; that is the reference the equivalence tests hold the carried
// flow to. An instance delta can add jobs and split atoms, so a Session
// builds a new separator after each one.
type separator struct {
	gfeas[float64]
	moved []int32 // load's scratch: the intervals whose value moved
	// cov is cutFor's per-interval coverage scratch, all zero between
	// calls.
	cov []int32
}

// newSeparator builds the separator over the instance's elementary
// intervals, interval k on master column k: the layout newMaster builds
// its columns from.
func newSeparator(in *core.Instance) *separator { return newAtomSeparator(in, nil) }

// newAtomSeparator builds the network over the atoms atomCol lays out,
// every y-dependent capacity 0. atomCol maps each slot to its atom's master
// column, as a Session keeps it; every window of the instance must contain
// or miss each atom, and an atom no window covers gets no node. A nil
// atomCol stands for the elementary intervals, interval k on column k.
func newAtomSeparator(in *core.Instance, atomCol []int32) *separator {
	nw := newGfeas[float64](in, newIvalLayout(in.Jobs, atomCol), nil, 1e-12)
	m := len(nw.ivals)
	return &separator{gfeas: nw, moved: make([]int32, 0, m), cov: make([]int32, m)}
}

// load solves the feasibility subproblem for the master point Y (index:
// master column), reporting whether Y is infeasible (max flow short of the
// total demand). Each interval reads its Y_I from its column; the intervals
// whose value moved are re-capacitated, keeping the flow routed in earlier
// loads (recap), and MaxFrom augments only the difference. After the
// repair the flow is a valid sub-maximal flow of the re-capacitated
// network, so the continuation reaches a true maximum flow and the same
// unique min-cut value a fresh solve finds. Columns of atoms no window
// covers, which a Session's master keeps after a departure, have no node
// and are not read.
func (s *separator) load(Y []float64) bool {
	s.moved = s.moved[:0]
	for k, iv := range s.ivals {
		if v := Y[iv.col]; v != s.val[k] {
			s.val[k] = v
			s.moved = append(s.moved, int32(k))
		}
	}
	s.recap(s.moved)
	got := 0.0
	for _, id := range s.supply {
		got += s.net.Flow(id)
	}
	got += s.solve()
	return got < s.total-1e-6
}

// reset discards the routed flow and lists every job again, so that the
// next load solves from zero, as on a newly built separator. Each arc
// keeps the capacity of its interval's value, and with no flow routed the
// next load re-capacitates the intervals whose value moves without
// cancelling anything: it reaches the capacities, and so the flow, a new
// separator's first load reaches.
func (s *separator) reset() {
	s.net.Reset()
	s.short = append(s.short[:0], s.supply...)
}

// numCols returns one past the largest master column of an interval: the
// length of a master point load can read.
func (s *separator) numCols() int {
	cols := 0
	for _, iv := range s.ivals {
		cols = max(cols, int(iv.col)+1)
	}
	return cols
}

// feasibleAllOpen reports whether the jobs fit with every slot open: one
// load with every atom at its bound, Y_I = |I|, whose capacities are
// integral, so the float flow decides exactly. It then resets the
// separator, so the next load still solves from zero. It answers the
// question CheckFeasible(in, AllSlots(in)) does, without a second network.
func (s *separator) feasibleAllOpen() bool {
	Y := make([]float64, s.numCols())
	for _, iv := range s.ivals {
		Y[iv.col] = float64(iv.hi - iv.lo + 1)
	}
	ok := !s.load(Y)
	s.reset()
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
		if gap := s.net.Residual(s.supply[i]); gap > 1e-7 {
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
	lo, hi, n := int32(len(cov)), int32(-1), 0
	for i, j := range s.in.Jobs {
		if !A[i] {
			continue
		}
		rhs += float64(j.Length)
		first, last := s.span(j)
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
