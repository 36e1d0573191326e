// Package lp solves covering linear programs
//
//	minimize    c·x
//	subject to  a_i·x >= b_i      for each constraint i
//	            0 <= x_j <= u_j   (u_j = +Inf unless SetUpper is called)
//
// with finite c >= 0, a_i >= 0 and b_i >= 0 by a sparse dual simplex in
// float64 (Solve, ResolveFrom), and general linear programs, whose rows may
// be a_i·x {<=,>=,=} b_i with any signs, by an exact simplex over
// math/big.Rat (SolveExact). The float engine returns an error for any
// program that is not covering. The exact engine stays general because it
// is the oracle the float engine's tests compare against, and it serves
// callers that need exact optima of small programs.
//
// # The covering contract
//
// A covering program is dual feasible at the all-slack basis: every row's
// surplus is basic and every structural rests at its lower bound, which its
// nonnegative cost prefers. So the dual simplex alone solves it, cold or
// warm, with no phase 1 and no artificial columns, and it is never
// unbounded. This is the paper's LP1 (Section 3) projected onto the slot
// variables and summed over atoms, runs of slots that lie in the same job
// windows — min Σ_I Y_I over 0 ≤ Y_I ≤ |I| with covering cuts
// Σ_I min(g, cov_A(I))·Y_I ≥ P(A) — which package activetime solves by
// Benders cut generation.
//
// # Sparse representation and factorized basis
//
// Each constraint row is stored once, in the Problem: AddSparse normalizes
// it (columns ascending, duplicates summed, zeros dropped) into a per-row
// column/value list that both engines read in place. The float engine adds
// only the views pivots need, a run-compressed copy of each row and a
// per-column transpose, and every row i enters it as given, a·x − s_i = b,
// with one logical column: its surplus s_i, the unit column −e_i, which is
// column n+i after the n structurals and is never materialized. All pivoting
// state lives in a factorized basis representation (factor.go): a sparse LU
// of the basis — refactorized with a static Markowitz-style column ordering
// and threshold partial pivoting — kept current across basis changes by
// Forrest–Tomlin updates: each pivot replaces the leaving column of U in
// place with the entering column's spike (its partial FTRAN through L and
// the accumulated row etas) and eliminates the resulting row bump into one
// short row-eta operation plus a rotation of U's triangular order. Every
// B⁻¹·v product is an FTRAN (a triangular solve through L, the row-eta list,
// and the updated U) and every vᵀ·B⁻¹ product a BTRAN (the same chain
// transposed, in reverse), so per-pivot work is O(m + nnz(L+U) + nnz(row
// etas) + nnz of the priced rows) — nothing of size m² or n×m is ever
// stored, written or scanned, which carries the Benders master to tens of
// thousands of rows.
//
// The updated factors are folded into a fresh LU when the update count
// reaches maxFTUpdates or the updated U (plus its row etas) grows past
// ftFillBloat times the refactorization-time fill, after every append or
// removal of rows, on every resync, and — counted separately in
// KernelStats.ForcedRefactors — whenever a spike's eliminated diagonal falls
// below the stability tolerance, in which case the pre-update factors are
// discarded untouched and rebuilt from the post-pivot basis. Each
// refactorization immediately re-derives the basic values and reduced costs
// so the incremental state never disagrees with the factors; since a fold
// comes at least every maxFTUpdates pivots, no other periodic refresh is
// needed. The dual ratio
// test orders its candidates by ratio with Harris-style tie-breaking
// (largest pivot magnitude within a tie): covering masters are massively
// dual degenerate, and index-order tie-breaking measurably sent the
// bound-flipping walk into dual-progress-free flip storms at large horizons.
// Its last tie-break hashes the column's identity, a structural's index or
// a surplus's row, never its position.
//
// # Hypersparse FTRAN/BTRAN kernels
//
// Above a small dimension threshold the triangular solves run hypersparse
// (Gilbert–Peierls): a symbolic pass computes the reach of the right-hand
// side's support through the triangular factor's dependency graph by DFS,
// and the numeric pass then touches only the reached positions — per-solve
// cost proportional to the nonzeros involved, not to m. The reach is
// emitted through a bitset sweep (set bits during discovery, scan words
// ascending) so the numeric pass consumes elimination steps in the same
// sorted order the dense kernels use: both paths perform the identical
// float operations in the identical order, which makes the path choice a
// pure cost knob that can never perturb the pivot trajectory (the
// equivalence suite in package activetime asserts identical pivot
// sequences, with SetDenseKernels pinning the dense path).
// When an expanding reach crosses a capped fraction of m the solve aborts
// to the dense kernel — near-dense intermediates make symbolic bookkeeping
// pure overhead — and a per-caller-class run counter then skips the doomed
// symbolic expansion while a class stays in its dense regime, re-probing
// periodically and resetting at each refactorization. The result support
// lists the hypersparse solves hand back let consumers (FG weight updates,
// flip applications, pivot-row scatter) iterate nonzeros directly instead of
// scanning dense vectors.
//
// # Pricing
//
// Dual pivots are priced with Forrest–Goldfarb dual steepest-edge reference
// weights w_i = ‖e_iᵀB⁻¹‖²: the leaving row maximizes violation²/weight,
// which measures each violation in the geometry of the dual edge the pivot
// traverses and takes far fewer (and better-conditioned) pivots than
// most-infeasible selection on dual-degenerate covering masters. The
// all-slack start is a signed permutation, so the weights start exact (1
// everywhere). They are maintained incrementally across every basis change
// by the exact FG update (one extra FTRAN per pivot, hooked into the same
// FTRAN/BTRAN products the pivot already computes); they survive
// refactorization unchanged (the basis does not change), survive RemoveRows
// by compaction, and appended rows price their new positions exactly with
// one BTRAN each. The exact norm of each pivot row — computed anyway for
// the ratio test — anchors the leaving weight every pivot and doubles as a
// staleness detector: on disagreement beyond a guard factor the engine
// recomputes every weight from the current factors, one BTRAN per position
// as for an appended row, and continues with the exact update; each such
// reset is counted in KernelStats.WeightResets, and healthy update
// arithmetic never needs one. Leaving rows are priced from a working set
// of infeasible cut rows — maintained incrementally by the same sparse
// updates that change basic values, rebuilt by one complete sweep (counted
// in KernelStats.RowRefills) only when it runs dry, so steady-state pivots
// never scan all m rows — and the bound-flipping dual ratio test consumes
// its candidates through a binary heap — the walk usually wants a handful
// of the thousands a wide pivot row yields, so nothing pays a full sort per
// pivot.
//
// Variable upper bounds are native (nonbasic variables may sit at either
// bound, and the ratio test admits bound flips), so callers never pay a
// constraint row for a box constraint. The reduced-cost row persists across
// pivots, updated in place and re-derived from the factors at every
// refactorization and before any optimality claim, and the factor arenas
// are reused across refactorizations, so steady-state pivoting performs no
// allocations.
//
// # Warm-start contract
//
// ResolveFrom keeps the factorized state alive between calls. A *Basis it
// returns belongs to the Problem that produced it, whose rows its engine
// reads in place: ResolveFrom and RemoveRows return an error for a Basis of
// another Problem. It stays valid as long as only these changes happen
// between calls:
//   - new covering rows are appended (AddSparse): each enters with its own
//     basic surplus, which keeps the old basis dual feasible, and the dual
//     simplex repairs the violated ones after one refactorization at the
//     new dimension;
//   - new structural columns are appended (AddColumns) and shaped with
//     SetObjective/SetUpper before the next re-solve: they enter nonbasic
//     at their lower bound, where their nonnegative cost keeps them dual
//     feasible;
//   - a column j is split in two (SplitColumn): the new column k has j's
//     cost and entries, so the same reduced cost, and the basis does not
//     change. Next to a j nonbasic at its upper bound, k enters at its
//     upper bound too, so every row activity and basic value stays; next
//     to a j nonbasic at zero, k enters at zero; next to a basic j, k
//     enters nonbasic at zero with reduced cost 0, and a j above its new
//     bound is a violation the dual simplex repairs. A split that meets a
//     nonbasic j therefore keeps the optimum and costs no pivot;
//   - rows strictly slack at the last optimum are removed through the basis
//     (RemoveRows), which excises them from both the problem and the live
//     state — the primitive behind Benders cut purging; removing a slack
//     row disturbs neither the remaining duals nor any remaining basic
//     value.
//
// Appended or split columns shift every surplus to its row's new n+i, but
// the ratio test's last tie-break reads column identity, not position, so a
// column that no row references moves no pivot.
//
// Changing the bound or the objective of a column the basis has already
// seen invalidates it: ResolveFrom rejects such calls with an error
// instead of solving against stale state, and the caller re-solves cold by
// passing a nil Basis — which is also what callers must do after any solve
// that did not end Optimal, since non-optimal solves return no Basis. A
// warm re-solve that does not end in a verified optimum abandons its basis
// and solves cold from the all-slack basis; it reports this in
// Solution.ColdFallbacks — counted, never silent.
//
// The exact rational engine keeps no state: every SolveExact call solves cold.
//
// # Numerical safeguards
//
// Each safeguard below has a test in this package that reaches it, most of
// them by injecting one fault per warm re-solve through the engine's pivot
// hook; each such test also checks that the re-solve ends in a verified
// optimum, a counted cold fallback, or a non-Optimal status, never in a
// wrong optimum.
//   - Pricing weights that disagree with their pivot row's exact norm are
//     recomputed from the factors (TestFaultScaledWeightResets).
//   - A Forrest–Tomlin update whose spike fails the stability test, or that
//     finds no spike stashed, refuses, and the engine refactorizes from the
//     post-pivot basis (TestFaultZeroedSpikeForcesRefactor).
//   - A refactorization of a numerically singular basis leaves the state
//     broken; a broken state reports only IterLimit, so a warm solve falls
//     back cold (TestFaultDependentColumnBreaksFactor).
//   - When the dual simplex finds no violated row, the engine refreshes the
//     basic values and reduced costs from the factors and checks that every
//     nonbasic column still sits on the bound its reduced cost prefers.
//     Every returned optimum is then verified against the caller's own rows
//     to 1e-6; on violation the engine refactorizes and re-optimizes, at
//     most twice. Both checks fail a NaN, and the leaving-row choice still
//     picks a row whose weight is NaN, so a value that blew up ends in a
//     fallback, not in a NaN optimum or an endless loop
//     (TestFaultPerturbedFactorsCaught, TestVerifyOptimalExits).
//   - Infeasibility is never certified from drifted state: before reporting
//     it, the engine refactorizes the basis from scratch, resyncs every basic
//     value, and re-tries (TestWarmResolveInfeasibleCut).
//   - For the second half of its pivot budget the dual simplex selects
//     leaving rows by Bland's rule (TestBlandRegimeReached).
//
// A warm solve that fails any of this falls back to a verified cold solve.
package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // a·x <= b
	GE                 // a·x >= b
	EQ                 // a·x == b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded // exact engine only: a covering program is bounded below by 0
	IterLimit // pivot budget exhausted, or a numerical failure of the float engine
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	}
	return "?"
}

// Problem is a linear program under construction. Variables are indexed
// 0..NumVars-1, bounded below by zero and above by per-variable upper
// bounds (+Inf by default; see SetUpper).
type Problem struct {
	numVars int
	c       []float64
	upper   []float64 // nil means all +Inf
	// Row i is rowCols[i]/rowVals[i], normalized by AddSparse (ascending
	// columns, no duplicates, no zeros, cap == len), with sense rel[i] and
	// right-hand side b[i]. These are the only copy of the rows: both
	// engines read them in place.
	rowCols [][]int32
	rowVals [][]float64
	rel     []Relation
	b       []float64
	// removeEpoch counts RemoveRows calls. A float engine state snapshots
	// it so a warm re-solve can reject a basis that missed a removal — a pure
	// row-count comparison cannot tell remove-k-then-append-k from
	// append-only.
	removeEpoch int
	// denseKernels forces every FTRAN/BTRAN through the dense triangular
	// solves, disabling the hypersparse reach path (test hook; see
	// SetDenseKernels). pivotHook, when set, observes every basis change
	// (see SetPivotHook). Both are read when an engine state is created and
	// ride with it for its life.
	denseKernels bool
	pivotHook    func(row, col int)
	// splits logs every SplitColumn call in order. A float engine state
	// replays the entries it has not seen when it splices the new columns
	// in.
	splits []colSplit
}

// colSplit records one SplitColumn: column to was split off column from,
// which kept the bound keep, and to got the bound rest.
type colSplit struct {
	from, to   int
	keep, rest float64
}

// NewProblem returns a problem with n variables and zero objective.
func NewProblem(n int) *Problem {
	return &Problem{numVars: n, c: make([]float64, n)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.b) }

// SetObjective sets the cost coefficient of variable j.
func (p *Problem) SetObjective(j int, cost float64) {
	p.c[j] = cost
}

// SetUpper sets the upper bound of variable j. The float engine enforces it
// natively (no constraint row); the exact engine materializes it as an
// explicit row. A negative bound makes the problem infeasible.
func (p *Problem) SetUpper(j int, u float64) {
	if p.upper == nil {
		p.upper = make([]float64, p.numVars)
		for k := range p.upper {
			p.upper[k] = math.Inf(1)
		}
	}
	p.upper[j] = u
}

// SetDenseKernels forces the float engine's triangular solves onto the
// dense path, bypassing the hypersparse symbolic-reach kernels. The two
// paths compute bit-for-bit identical results by construction (the
// equivalence suites assert identical pivot sequences); the flag exists as
// a hook for those tests. It is read when an engine state is created — a
// cold Solve/ResolveFrom(nil) call — and rides with that state for its
// life.
func (p *Problem) SetDenseKernels(dense bool) {
	p.denseKernels = dense
}

// SetPivotHook installs an observer invoked at every basis change with the
// leaving row's basis position and the entering column: a structural's
// index, or NumVars()+i for row i's surplus. It is read when an
// engine state is created; tests use it to record and compare pivot
// sequences across kernel paths. The hook must not mutate the problem or
// re-enter the solver. Pass nil to clear.
func (p *Problem) SetPivotHook(hook func(row, col int)) {
	p.pivotHook = hook
}

// Upper returns the upper bound of variable j (+Inf if never set).
func (p *Problem) Upper(j int) float64 {
	if p.upper == nil {
		return math.Inf(1)
	}
	return p.upper[j]
}

// upperChanged compares the problem's current bounds against a snapshot
// taken when an engine state was captured, with the bound each of the
// given later splits kept in place of the snapshot's, reporting the first
// variable whose bound differs. The warm-start contract rejects bound
// changes through this single check.
func (p *Problem) upperChanged(snap []float64, splits []colSplit) (j int, changed bool) {
	for j := range snap {
		want := snap[j]
		for _, sp := range splits {
			if sp.from == j {
				want = sp.keep
			}
		}
		if p.Upper(j) != want {
			return j, true
		}
	}
	return 0, false
}

// AddColumns appends k new structural variables with zero objective and
// infinite upper bound, returning the index of the first one. The caller
// then shapes them with SetObjective/SetUpper and references them from
// newly added rows.
//
// AddColumns is the column-space dual of appending rows: a basis captured
// before the call stays warm-startable. ResolveFrom splices the new columns
// into the live engine state nonbasic at their lower bound and prices them
// at the refactorization the splice schedules — shaping a new column's cost
// and bound before the next re-solve is part of the splice, not a change
// to a snapshotted column, so it does not trip the warm-start contract's
// checks. Columns can never be removed.
func (p *Problem) AddColumns(k int) int {
	j0 := p.numVars
	if k <= 0 {
		return j0
	}
	p.numVars += k
	p.c = append(p.c, make([]float64, k)...)
	if p.upper != nil {
		for i := 0; i < k; i++ {
			p.upper = append(p.upper, math.Inf(1))
		}
	}
	return j0
}

// SplitColumn splits column j in two and returns the new column k, the
// highest index. Column k copies j's cost and j's coefficient into every
// row that has one; since k is the highest index it goes at the end of each
// row, which stays ascending. Column j's upper bound drops to keep and k's
// bound is the rest, so x_j + x_k ranges over what x_j did, and a point
// with x_j + x_k = v has the row activities of x_j = v alone.
//
// Like AddColumns it keeps a captured basis warm-startable: ResolveFrom
// splices k in next to j so that the old point and its duals carry over
// (see the warm-start contract in the package comment). keep must lie in
// [0, upper(j)].
func (p *Problem) SplitColumn(j int, keep float64) (int, error) {
	if j < 0 || j >= p.numVars {
		return 0, fmt.Errorf("lp: SplitColumn column %d out of range [0,%d)", j, p.numVars)
	}
	u := p.Upper(j)
	if !(keep >= 0 && keep <= u) {
		return 0, fmt.Errorf("lp: SplitColumn keeps %v of column %d's bound %v", keep, j, u)
	}
	k := p.AddColumns(1)
	p.c[k] = p.c[j]
	p.SetUpper(j, keep)
	p.SetUpper(k, u-keep)
	for i, cols := range p.rowCols {
		if at, ok := slices.BinarySearch(cols, int32(j)); ok {
			vals := p.rowVals[i]
			rc, rv := make([]int32, len(cols)+1), make([]float64, len(cols)+1)
			copy(rc, cols)
			copy(rv, vals)
			rc[len(cols)], rv[len(cols)] = int32(k), vals[at]
			p.rowCols[i], p.rowVals[i] = rc, rv
		}
	}
	p.splits = append(p.splits, colSplit{from: j, to: k, keep: keep, rest: u - keep})
	return k, nil
}

// AddSparse adds the constraint sum_k vals[k] * x[cols[k]] rel rhs.
// Coefficient columns must be valid variable indices. The row is stored
// once, normalized: columns ascending, the values of a duplicate column
// summed in float64 in the order given, and zero coefficients (also sums
// that cancel to zero) dropped. Both engines solve the normalized row, so
// the exact engine sees a duplicate column's float64 sum, not the exact sum
// of its parts. The float engine accepts only covering rows (rel GE, vals
// and rhs nonnegative); the exact engine accepts any.
func (p *Problem) AddSparse(cols []int, vals []float64, rel Relation, rhs float64) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("lp: %d columns but %d values", len(cols), len(vals))
	}
	rc := make([]int32, len(cols))
	rv := make([]float64, len(vals))
	sorted := true
	for k, c := range cols {
		if c < 0 || c >= p.numVars {
			return fmt.Errorf("lp: column %d out of range [0,%d)", c, p.numVars)
		}
		if k > 0 && c <= cols[k-1] {
			sorted = false
		}
		rc[k] = int32(c)
	}
	copy(rv, vals)
	if !sorted {
		sort.Stable(sparseRow{rc, rv})
	}
	// Merge duplicates (adjacent now, in the order given), then drop zeros.
	out := 0
	for k := range rc {
		if out > 0 && rc[out-1] == rc[k] {
			rv[out-1] += rv[k]
			continue
		}
		rc[out], rv[out] = rc[k], rv[k]
		out++
	}
	nz := 0
	for k := 0; k < out; k++ {
		if rv[k] != 0 {
			rc[nz], rv[nz] = rc[k], rv[k]
			nz++
		}
	}
	p.rowCols = append(p.rowCols, rc[:nz:nz])
	p.rowVals = append(p.rowVals, rv[:nz:nz])
	p.rel = append(p.rel, rel)
	p.b = append(p.b, rhs)
	return nil
}

// sparseRow sorts a row's parallel column and value slices by column.
type sparseRow struct {
	cols []int32
	vals []float64
}

func (r sparseRow) Len() int           { return len(r.cols) }
func (r sparseRow) Less(a, b int) bool { return r.cols[a] < r.cols[b] }
func (r sparseRow) Swap(a, b int) {
	r.cols[a], r.cols[b] = r.cols[b], r.cols[a]
	r.vals[a], r.vals[b] = r.vals[b], r.vals[a]
}

// RowSlack returns a_i·x − b_i for constraint row i: the amount by which x
// over-satisfies a >= row. It accumulates from −b_i over the stored row in
// ascending column order.
func (p *Problem) RowSlack(i int, x []float64) float64 {
	s := -p.b[i]
	vals := p.rowVals[i]
	for k, c := range p.rowCols[i] {
		s += vals[k] * x[c]
	}
	return s
}

// RemoveRows deletes the constraint rows at the given indices (indices into
// the problem's current row order; duplicates are tolerated). Row indices
// above the removed ones shift down, exactly like deleting from a slice.
//
// With a nil basis only the problem is edited and any previously captured
// basis becomes invalid (ResolveFrom rejects it as out of sync, via a
// removal epoch the basis snapshots — row counts alone cannot tell
// remove-then-append from append-only). With the
// basis of this problem's latest Optimal (re)solve, the rows are also
// excised from the live simplex state in place: this is legal only for rows
// that are strictly slack at that optimum (their surplus column is basic),
// in which case the remaining state is still optimal for the reduced problem
// and the next ResolveFrom only pays one refactorization. Attempting to
// remove a tight row, or passing a basis of another Problem, fails with an
// error before anything is mutated.
//
// This is the primitive behind Benders cut purging: a persistently slack
// cut has a basic surplus by definition, so purging between rounds never
// pays the purge-and-rebuild cost of a cold re-solve.
func (p *Problem) RemoveRows(drop []int, basis *Basis) error {
	if len(drop) == 0 {
		return nil
	}
	for _, i := range drop {
		if i < 0 || i >= len(p.b) {
			return fmt.Errorf("lp: RemoveRows index %d out of range [0,%d)", i, len(p.b))
		}
	}
	if basis != nil && basis.t != nil {
		if basis.t.p != p {
			return errForeignBasis
		}
		if basis.t.m != len(p.b) {
			return errors.New("lp: basis is out of sync with the problem; re-solve before removing rows")
		}
		if err := basis.t.removeRows(drop); err != nil {
			return err // nothing mutated; the basis stays valid
		}
	}
	p.removeEpoch++
	if basis != nil && basis.t != nil {
		basis.t.epoch = p.removeEpoch // this basis saw the removal
	}
	dead := make([]bool, len(p.b))
	for _, i := range drop {
		dead[i] = true
	}
	out := 0
	for i := range p.b {
		if dead[i] {
			continue
		}
		p.rowCols[out], p.rowVals[out] = p.rowCols[i], p.rowVals[i]
		p.rel[out], p.b[out] = p.rel[i], p.b[i]
		out++
	}
	p.rowCols = p.rowCols[:out]
	p.rowVals = p.rowVals[:out]
	p.rel = p.rel[:out]
	p.b = p.b[:out]
	return nil
}

// errForeignBasis rejects a Basis captured by another Problem: its engine
// reads that Problem's rows in place.
var errForeignBasis = errors.New("lp: basis belongs to another problem")

// Solution is the result of a float64 solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Iterations counts dual simplex basis changes (pivots) performed during
	// the call that produced this solution, including those of a warm
	// attempt the call abandoned for a cold solve. Bound flips are not
	// counted, so summing Iterations across a cut-generation loop never
	// double-counts work.
	Iterations int
	// Refactors counts every basis refactorization performed during the
	// call. Most are scheduled folds: sparse-LU rebuilds triggered by
	// appended or removed rows, by the updated factors reaching their
	// update-count or fill limit, and by drift resyncs. The remainder are
	// stability-forced: a Forrest–Tomlin spike whose eliminated diagonal
	// fell below the pivot tolerance, counted separately in
	// Kernel.ForcedRefactors (always a subset of this total). Together
	// with Iterations it is the solver-effort figure the scaling
	// experiments report.
	Refactors int
	// Kernel reports the triangular-solve kernel activity of the call:
	// hypersparse-vs-dense path counts, result-support sizes on the
	// hypersparse paths, and dual working-set refills. Like Iterations it
	// covers exactly the work of the call that produced this solution.
	Kernel KernelStats
	// ColdFallbacks is 1 when a warm ResolveFrom abandoned its inherited
	// basis — the warm dual repair, its dual-feasibility check or its
	// verification did not end Optimal and the call re-solved cold from the
	// all-slack basis — and 0 otherwise (cold calls included: a requested
	// cold solve is not a fallback). The recovery itself is correct and
	// verified; the counter exists because a warm-path regression that
	// silently degrades every re-solve to a cold solve costs an order of
	// magnitude and would otherwise be invisible. FallbackVerdict carries
	// the triggering verdict (the warm status and the cold status) for
	// logging.
	ColdFallbacks   int
	FallbackVerdict string
}

// KernelStats counts FTRAN/BTRAN kernel activity. The hypersparse counters
// cover solves that completed on the symbolic-reach path; the dense
// counters cover forced-dense solves, small bases, and solves whose reach
// closure crossed the density fallback threshold mid-flight. RowRefills
// counts dual working-set rebuild scans (pricing fell through the cut-row
// working set to a cyclic sweep).
type KernelStats struct {
	FtranHyper    int // entering-column/FG/flip FTRANs solved hypersparse
	FtranDense    int // FTRANs solved dense (forced, small, or fallback)
	BtranHyper    int // pivot-row BTRANs solved hypersparse
	BtranDense    int // BTRANs solved dense
	FtranHyperNNZ int // total result nonzeros over hypersparse FTRANs
	BtranHyperNNZ int // total result nonzeros over hypersparse BTRANs
	RowRefills    int // dual working-set refill sweeps
	// FTUpdates counts Forrest–Tomlin in-place basis updates applied, and
	// FTSpikeNNZ the total spike-column nonzeros those updates absorbed
	// into U (the per-update fill pressure).
	FTUpdates  int
	FTSpikeNNZ int
	// ForcedRefactors counts refactorizations forced by a Forrest–Tomlin
	// spike whose eliminated diagonal fell below the stability tolerance
	// (the update is abandoned with the old factors untouched and the
	// post-pivot basis refactorized from scratch). Always a subset of
	// Solution.Refactors.
	ForcedRefactors int
	// UFillMaxPct is the peak size of the updated U plus its row etas as a
	// percentage of the refactorization-time factor fill — the gauge the
	// fold policy caps. It is a high-water mark, not a flow: minus carries
	// the current peak through and Accumulate takes the max.
	UFillMaxPct int
	// WeightResets counts exact recomputations of every dual pricing
	// weight, made when a pivot row's exact norm disagreed with its
	// incrementally updated weight beyond the staleness factor. Healthy
	// update arithmetic never triggers one.
	WeightResets int
}

func (k *KernelStats) noteFtran(hyper bool, nnz int) {
	if hyper {
		k.FtranHyper++
		k.FtranHyperNNZ += nnz
	} else {
		k.FtranDense++
	}
}

func (k *KernelStats) noteBtran(hyper bool, nnz int) {
	if hyper {
		k.BtranHyper++
		k.BtranHyperNNZ += nnz
	} else {
		k.BtranDense++
	}
}

// minus returns the fieldwise difference k - o; the engine uses it to carve
// per-call figures out of lifetime counters.
func (k KernelStats) minus(o KernelStats) KernelStats {
	return KernelStats{
		FtranHyper:      k.FtranHyper - o.FtranHyper,
		FtranDense:      k.FtranDense - o.FtranDense,
		BtranHyper:      k.BtranHyper - o.BtranHyper,
		BtranDense:      k.BtranDense - o.BtranDense,
		FtranHyperNNZ:   k.FtranHyperNNZ - o.FtranHyperNNZ,
		BtranHyperNNZ:   k.BtranHyperNNZ - o.BtranHyperNNZ,
		RowRefills:      k.RowRefills - o.RowRefills,
		FTUpdates:       k.FTUpdates - o.FTUpdates,
		FTSpikeNNZ:      k.FTSpikeNNZ - o.FTSpikeNNZ,
		ForcedRefactors: k.ForcedRefactors - o.ForcedRefactors,
		UFillMaxPct:     k.UFillMaxPct, // high-water mark: the peak to date stands
		WeightResets:    k.WeightResets - o.WeightResets,
	}
}

// Accumulate adds o into k fieldwise; callers driving many solves (the
// Benders loop) use it to aggregate per-call stats into a run total.
func (k *KernelStats) Accumulate(o KernelStats) {
	k.FtranHyper += o.FtranHyper
	k.FtranDense += o.FtranDense
	k.BtranHyper += o.BtranHyper
	k.BtranDense += o.BtranDense
	k.FtranHyperNNZ += o.FtranHyperNNZ
	k.BtranHyperNNZ += o.BtranHyperNNZ
	k.RowRefills += o.RowRefills
	k.FTUpdates += o.FTUpdates
	k.FTSpikeNNZ += o.FTSpikeNNZ
	k.ForcedRefactors += o.ForcedRefactors
	if o.UFillMaxPct > k.UFillMaxPct {
		k.UFillMaxPct = o.UFillMaxPct
	}
	k.WeightResets += o.WeightResets
}

// FtranAvgNNZ returns the mean result support of the hypersparse FTRANs
// (0 when none ran).
func (k KernelStats) FtranAvgNNZ() float64 {
	if k.FtranHyper == 0 {
		return 0
	}
	return float64(k.FtranHyperNNZ) / float64(k.FtranHyper)
}

// BtranAvgNNZ returns the mean result support of the hypersparse BTRANs
// (0 when none ran).
func (k KernelStats) BtranAvgNNZ() float64 {
	if k.BtranHyper == 0 {
		return 0
	}
	return float64(k.BtranHyperNNZ) / float64(k.BtranHyper)
}

// HyperShare returns the fraction of all triangular solves that completed
// on the hypersparse path (0 when no solves ran).
func (k KernelStats) HyperShare() float64 {
	total := k.FtranHyper + k.FtranDense + k.BtranHyper + k.BtranDense
	if total == 0 {
		return 0
	}
	return float64(k.FtranHyper+k.BtranHyper) / float64(total)
}

const (
	eps       = 1e-9
	maxPivots = 200000
)

// Basis is an opaque snapshot of the simplex working state, enabling warm
// re-solves via ResolveFrom. A Basis is tied to the Problem that produced
// it (ResolveFrom and RemoveRows reject it for any other) and is consumed
// (mutated in place) by the next ResolveFrom call.
type Basis struct {
	t *revised
}

// Solve optimizes the covering problem with the float64 dual simplex from
// a cold start. A non-nil error indicates malformed input only, including a
// program that is not covering (see the package comment); infeasibility is
// reported through Solution.Status.
func Solve(p *Problem) (*Solution, error) {
	sol, _, err := p.ResolveFrom(nil)
	return sol, err
}

// ResolveFrom optimizes the covering problem, warm-starting from prev when
// non-nil. With prev == nil it solves cold with the dual simplex from the
// all-slack basis. With a prev obtained from an earlier optimal solve of
// the same problem, the rows and columns appended since are spliced into
// the live state and the dual simplex repairs the rows they violate. The
// returned Basis supports the next incremental call; it is nil when the
// solve did not end Optimal. See the package comment for the exact
// warm-start contract.
func (p *Problem) ResolveFrom(prev *Basis) (*Solution, *Basis, error) {
	if p.numVars == 0 {
		return nil, nil, errors.New("lp: problem has no variables")
	}
	if p.upper != nil {
		for _, u := range p.upper {
			if u < 0 {
				return &Solution{Status: Infeasible}, nil, nil
			}
		}
	}
	var t *revised
	var status Status
	coldFallbacks := 0
	fallbackVerdict := ""
	budget := maxPivots
	if prev == nil || prev.t == nil {
		if err := p.coveringErr(0); err != nil {
			return nil, nil, err
		}
		t = newRevised(p)
		status = t.solve(&budget)
	} else {
		t = prev.t
		if t.p != p {
			return nil, nil, errForeignBasis
		}
		if t.n > p.numVars {
			return nil, nil, fmt.Errorf("lp: basis has %d variables, problem has %d (columns cannot be removed)", t.n, p.numVars)
		}
		if t.m > len(p.b) {
			return nil, nil, errors.New("lp: problem has fewer rows than the basis (rows were removed)")
		}
		if t.epoch != p.removeEpoch {
			return nil, nil, errors.New("lp: rows were removed without this basis (RemoveRows with a nil or different basis); re-solve cold")
		}
		// Changed bounds or costs invalidate the basis (see the warm-start
		// contract); catch the misuse instead of returning a silently wrong
		// optimum. A column split since the capture has the bound its last
		// split kept, which the splice below replays.
		if j, changed := p.upperChanged(t.upper[:t.n], p.splits[t.splits:]); changed {
			return nil, nil, fmt.Errorf("lp: upper bound of variable %d changed since the basis was captured; re-solve cold", j)
		}
		for j, c := range t.cost[:t.n] {
			if p.c[j] != c {
				return nil, nil, fmt.Errorf("lp: objective of variable %d changed since the basis was captured; re-solve cold", j)
			}
		}
		if err := p.coveringErr(t.m); err != nil {
			return nil, nil, err
		}
		t.pivotsAtCall = t.pivots
		t.refactorsAtCall = t.refactors
		t.kstatsAtCall = t.kstats
		newCols := p.numVars - t.n
		t.appendProblemCols()
		t.appendProblemRows()
		// A warm repair of freshly appended rows needs tens of pivots; give
		// it a budget proportional to the rows and appended columns rather
		// than the global ceiling, so a degenerate stall falls back to the
		// (verified) cold solve quickly. Half the budget is also where
		// dualIterate switches to Bland's rule, so this formula fixes the
		// pivot sequence of long repairs.
		if wb := 4*len(p.b) + 4*newCols + 400; wb < budget {
			budget = wb
		}
		status = t.solve(&budget)
		if status != Optimal {
			// The warm path certifies only optima: a warm claim of
			// infeasibility (or an exhausted pivot budget, or an optimum
			// that failed its checks) may be an artifact of the inherited
			// basis, so it is re-derived by a cold solve, whose all-slack
			// start is independent of any prior state. Iterations still
			// reports every pivot spent in this call, warm and cold. The
			// abandonment is counted, never silent: Solution.ColdFallbacks
			// flags it and FallbackVerdict names the warm status that
			// triggered it, so callers gating a warm trajectory (the
			// canonical scaling tests, the delta sessions) see a warm-path
			// regression as a counter, not as a quiet 10× slowdown.
			coldFallbacks = 1
			warmStatus := status
			warmPivots := t.pivots - t.pivotsAtCall
			warmRefactors := t.refactors - t.refactorsAtCall
			warmKernel := t.kstats.minus(t.kstatsAtCall)
			budget = maxPivots
			t = newRevised(p)
			status = t.solve(&budget)
			fallbackVerdict = fmt.Sprintf("warm re-solve ended %v; recovered via cold solve (status %v)", warmStatus, status)
			t.pivotsAtCall = -warmPivots
			t.refactorsAtCall = -warmRefactors
			t.kstatsAtCall = KernelStats{}.minus(warmKernel)
		}
	}
	sol := &Solution{
		Status:          status,
		Iterations:      t.pivots - t.pivotsAtCall,
		Refactors:       t.refactors - t.refactorsAtCall,
		Kernel:          t.kstats.minus(t.kstatsAtCall),
		ColdFallbacks:   coldFallbacks,
		FallbackVerdict: fallbackVerdict,
	}
	if status != Optimal {
		return sol, nil, nil
	}
	sol.X = t.structuralX()
	obj := 0.0
	for j, cj := range p.c {
		obj += cj * sol.X[j]
	}
	sol.Objective = obj
	return sol, &Basis{t: t}, nil
}

// coveringErr reports why p is not a covering program, checking every
// cost and the rows from index from on: the float engine solves only
// min c·x with finite c ≥ 0 over rows a·x ≥ b with finite a ≥ 0 and b ≥ 0.
// An infinite cost or coefficient would turn 0·∞ into NaN, which no
// verification of the answer can order.
func (p *Problem) coveringErr(from int) error {
	for j, c := range p.c {
		if !finiteNonneg(c) {
			return fmt.Errorf("lp: variable %d has cost %v; the float engine needs finite costs >= 0", j, c)
		}
	}
	for i := from; i < len(p.b); i++ {
		if p.rel[i] != GE {
			return fmt.Errorf("lp: row %d is a %v row; the float engine solves only >= rows", i, p.rel[i])
		}
		if !finiteNonneg(p.b[i]) {
			return fmt.Errorf("lp: row %d has right-hand side %v; the float engine needs a finite b >= 0", i, p.b[i])
		}
		for k, v := range p.rowVals[i] {
			if !finiteNonneg(v) {
				return fmt.Errorf("lp: row %d has coefficient %v on variable %d; the float engine needs finite a >= 0", i, v, p.rowCols[i][k])
			}
		}
	}
	return nil
}

// finiteNonneg reports 0 ≤ x < +∞; NaN fails both comparisons.
func finiteNonneg(x float64) bool {
	return x >= 0 && x <= math.MaxFloat64
}
