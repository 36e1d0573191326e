// Package lp implements a sparse revised-simplex solver for bounded-variable
// linear programs in the form
//
//	minimize    c·x
//	subject to  a_i·x {<=,>=,=} b_i   for each constraint i
//	            0 <= x_j <= u_j       (u_j = +Inf unless SetUpper is called)
//
// Two interchangeable engines are provided: a float64 engine (Solve) priced
// by dual steepest edge and falling back to Bland's rule for anti-cycling,
// and an exact rational engine over math/big.Rat (SolveExact) used by tests
// to validate the float engine and by callers that need exact optima on
// small programs.
//
// # Sparse representation and factorized basis
//
// The float engine is a revised simplex: constraint rows are kept verbatim
// in compressed sparse form (a per-row column/value list, mirrored by a
// per-column view), and logical columns are signed unit vectors that are
// never materialized. All pivoting state lives in a factorized basis
// representation (factor.go): a sparse LU of the basis — refactorized with
// a static Markowitz-style column ordering and threshold partial pivoting —
// kept current across basis changes by Forrest–Tomlin updates: each pivot
// replaces the leaving column of U in place with the entering column's
// spike (its partial FTRAN through L and the accumulated row etas) and
// eliminates the resulting row bump into one short row-eta operation plus
// a rotation of U's triangular order. Every B⁻¹·v product is an
// FTRAN (a triangular solve through L, the row-eta list, and the updated
// U) and every vᵀ·B⁻¹ product a BTRAN (the same chain transposed, in
// reverse), so per-pivot work is O(m + nnz(L+U) + nnz(row etas) + nnz of
// the priced rows) — nothing of size m² or n×m is ever stored, written or
// scanned, which carries the Benders master to tens of thousands of rows.
//
// The updated factors are folded into a fresh LU when the update count
// reaches maxFTUpdates or the updated U (plus its row etas) grows past
// ftFillBloat times the refactorization-time fill, after every append or
// removal of rows, on every resync, and — counted separately in
// KernelStats.ForcedRefactors — whenever a spike's eliminated diagonal falls
// below the stability tolerance, in which case the pre-update factors are
// discarded untouched and rebuilt from the post-pivot basis. Each
// refactorization immediately re-derives the basic values and reduced costs
// so the incremental state never disagrees with the factors. The dual ratio
// test orders its candidates by ratio with Harris-style tie-breaking
// (largest pivot magnitude within a tie): covering masters are massively
// dual degenerate, and index-order tie-breaking measurably sent the
// bound-flipping walk into dual-progress-free flip storms at large horizons.
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
// most-infeasible selection on the dual-degenerate covering masters this
// package exists for. The weights live in basis-position space and are
// maintained incrementally across every basis change by the exact FG update
// (one extra FTRAN per pivot, hooked into the same FTRAN/BTRAN products the
// pivot already computes); they survive refactorization unchanged (the basis
// does not change), survive RemoveRows by compaction, and appended rows
// price their new positions exactly with one BTRAN each. The exact norm of
// each pivot row — computed anyway for the ratio test — anchors the leaving
// weight every pivot and doubles as a staleness detector: on disagreement
// beyond a guard factor the engine falls back to devex max-form updates
// (robust to approximate weights) for the rest of the state's life. The
// primal phase prices from a managed partial candidate list (refilled by a
// cyclic rotor scan) instead of scanning every column, the dual phase prices
// leaving rows from a working set of infeasible cut rows — maintained
// incrementally by the same sparse updates that change basic values, rebuilt
// by one complete sweep (counted in KernelStats.RowRefills) only when it
// runs dry, so steady-state pivots never scan all m rows — and the
// bound-flipping dual ratio test consumes its candidates through a binary
// heap — the walk usually wants a handful of the thousands a wide pivot row
// yields, so nothing pays a full sort per pivot.
//
// The engine handles variable upper bounds natively (nonbasic variables may
// sit at either bound, and the ratio test admits bound flips), so callers
// never pay a constraint row for a box constraint; single-variable "x_j <=
// u" rows are also presolved into bounds. Cold solves start directly dual
// feasible whenever every negative-cost column has a finite upper bound
// (always true for covering masters): each structural rests on the bound its
// cost sign prefers, the all-logical basis prices exactly (weight 1
// everywhere), and the dual simplex replaces the whole two-phase artificial
// apparatus. It supports incremental re-solves: ResolveFrom keeps the
// factorized state alive between calls, incorporates rows appended to the
// Problem since the previous solve (one refactorization at the new
// dimension), and recovers optimality with the dual simplex instead of
// re-running a cold solve from scratch; a warm re-solve that fails re-enters
// through a crash basis seeded from the warm basis's surviving columns
// (fresh factors, no numerical history) before the full cold solve is
// attempted. The pricing loop maintains a persistent reduced-cost row
// updated in place at each pivot (refreshed periodically against drift), and
// the factor arenas are reused across refactorizations, so steady-state
// pivoting performs no allocations.
//
// # Warm-start contract
//
// A *Basis returned by ResolveFrom stays valid for the same Problem as long
// as only new constraint rows are appended (AddSparse/AddDense), new
// structural columns are appended (AddColumns — the column-space dual of
// row appends: the live state splices them in nonbasic at their lower
// bound, reprices them against the persistent dual row at the
// refactorization the splice schedules, and the usual dual+primal repair
// absorbs any that price attractively), or rows strictly slack at the last
// optimum are removed (RemoveRows, which excises
// them from both the problem and the live state — the primitive behind
// Benders cut purging) between calls: appended rows enter with their own
// basic slack, and removing a slack row disturbs neither the remaining
// duals nor any remaining basic value. Changing the objective between
// re-solves is also permitted (the final primal clean-up phase
// re-optimizes). A warm re-solve falls back to a cold two-phase solve only
// when the caller passes a nil Basis — which is also what callers must do
// after any solve that did not end Optimal, since non-optimal solves return
// no Basis. Changing the bound of a column the basis has already seen
// still invalidates it (shaping a freshly appended column before its first
// re-solve is part of the splice, not a change): ResolveFrom rejects such
// calls loudly instead of silently solving against stale state, and the
// caller re-solves cold. A warm re-solve that abandons its basis mid-call
// (crash/cold recovery) reports it in Solution.ColdFallbacks — counted,
// never silent.
//
// The exact rational engine mirrors the contract on a smaller surface:
// ResolveExactFrom keeps the big.Rat dictionary alive between calls,
// repairs appended LE/GE rows with an exact Bland dual simplex, and falls
// back to a cold rational solve for anything else.
//
// # Numerical safeguards
//
// Optimality is never certified against a stale reduced-cost row (a full
// refresh precedes the claim), and dual infeasibility is never certified
// from drifted state: before reporting it, the engine refactorizes the
// basis from scratch, resyncs every basic value, and re-tries. Every
// returned optimum is verified against the caller's own rows to 1e-6 as
// the last line of defense — a warm solve that fails any of this falls
// back to a verified cold solve.
//
// Go has no mature linear-programming library, so this package is built as
// a first-class substrate: the active-time LP of the paper (Section 3) is
// solved through it via Benders-style cut generation in package activetime.
package lp

import (
	"errors"
	"fmt"
	"math"
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
	Unbounded
	IterLimit
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
	rows    [][]entry
	rel     []Relation
	b       []float64
	// removeEpoch counts RemoveRows calls. Engine states snapshot it so a
	// warm re-solve can reject a basis that missed a removal — a pure
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
}

type entry struct {
	col int
	val float64
}

// NewProblem returns a problem with n variables and zero objective.
func NewProblem(n int) *Problem {
	return &Problem{numVars: n, c: make([]float64, n)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

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
// leaving row's basis position and the entering column. It is read when an
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
// taken when an engine state was captured, reporting the first variable
// whose bound differs. Both the float and the exact warm-start contracts
// reject bound changes through this single check.
func (p *Problem) upperChanged(snap []float64) (j int, changed bool) {
	for j := range snap {
		want := math.Inf(1)
		if p.upper != nil {
			want = p.upper[j]
		}
		if snap[j] != want {
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
// into the live engine state nonbasic at their lower bound, reprices them
// against the persistent dual row at the refactorization the splice
// schedules, and lets the usual dual+primal repair absorb them — setting an
// upper bound on a new column before the next re-solve is part of the
// splice, not a bound change on a snapshotted column, so it does not trip
// the warm-start contract's bound check. Columns can never be removed.
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

// AddSparse adds the constraint sum_k coeffs[k].val * x[coeffs[k].col] rel rhs.
// Coefficient columns must be valid variable indices; duplicate columns are
// summed.
func (p *Problem) AddSparse(cols []int, vals []float64, rel Relation, rhs float64) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("lp: %d columns but %d values", len(cols), len(vals))
	}
	row := make([]entry, 0, len(cols))
	for k, c := range cols {
		if c < 0 || c >= p.numVars {
			return fmt.Errorf("lp: column %d out of range [0,%d)", c, p.numVars)
		}
		row = append(row, entry{c, vals[k]})
	}
	p.rows = append(p.rows, row)
	p.rel = append(p.rel, rel)
	p.b = append(p.b, rhs)
	return nil
}

// AddDense adds the constraint coeffs·x rel rhs, where len(coeffs) ==
// NumVars.
func (p *Problem) AddDense(coeffs []float64, rel Relation, rhs float64) error {
	if len(coeffs) != p.numVars {
		return fmt.Errorf("lp: dense row has %d coefficients, want %d", len(coeffs), p.numVars)
	}
	var cols []int
	var vals []float64
	for j, v := range coeffs {
		if v != 0 {
			cols = append(cols, j)
			vals = append(vals, v)
		}
	}
	return p.AddSparse(cols, vals, rel, rhs)
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
// that are strictly slack at that optimum (their slack column is basic), in
// which case the remaining state is still optimal for the reduced problem
// and the next ResolveFrom only pays one refactorization. Attempting to
// remove a tight row fails with an error before anything is mutated.
//
// This is the primitive behind Benders cut purging: a persistently slack
// cut has a basic slack by definition, so purging between rounds never
// pays the purge-and-rebuild cost of a cold re-solve.
func (p *Problem) RemoveRows(drop []int, basis *Basis) error {
	if len(drop) == 0 {
		return nil
	}
	for _, i := range drop {
		if i < 0 || i >= len(p.rows) {
			return fmt.Errorf("lp: RemoveRows index %d out of range [0,%d)", i, len(p.rows))
		}
	}
	if basis != nil && basis.t != nil {
		if basis.t.rowsBuilt != len(p.rows) {
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
	dead := make([]bool, len(p.rows))
	for _, i := range drop {
		dead[i] = true
	}
	out := 0
	for i := range p.rows {
		if dead[i] {
			continue
		}
		p.rows[out], p.rel[out], p.b[out] = p.rows[i], p.rel[i], p.b[i]
		out++
	}
	p.rows = p.rows[:out]
	p.rel = p.rel[:out]
	p.b = p.b[:out]
	return nil
}

// Solution is the result of a float64 solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Iterations counts simplex basis changes (pivots) performed during the
	// call that produced this solution — two-phase pivots for a cold solve,
	// dual plus clean-up pivots for a warm re-solve. Bound flips and pricing
	// rounds that end without a pivot are not counted, so summing Iterations
	// across a cut-generation loop never double-counts work.
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
	// basis — the warm dual+primal repair (or its verification) did not end
	// Optimal and the call recovered through a crash basis or a full cold
	// solve — and 0 otherwise (cold calls included: a requested cold solve
	// is not a fallback). The recovery itself is correct and verified; the
	// counter exists because a warm-path regression that silently degrades
	// every re-solve to a cold solve costs an order of magnitude and would
	// otherwise be invisible. FallbackVerdict carries the triggering
	// verdict (the warm status and the recovery path) for logging.
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
	eps          = 1e-9
	maxPivots    = 200000
	refreshEvery = 128 // pivots between full reduced-cost refreshes
)

// Basis is an opaque snapshot of the simplex working state, enabling warm
// re-solves via ResolveFrom. A Basis is tied to the Problem that produced
// it and is consumed (mutated in place) by the next ResolveFrom call.
type Basis struct {
	t *revised
}

// Solve optimizes the problem with the float64 simplex engine from a cold
// start. A non-nil error indicates malformed input only; infeasibility and
// unboundedness are reported through Solution.Status.
func Solve(p *Problem) (*Solution, error) {
	sol, _, err := p.ResolveFrom(nil)
	return sol, err
}

// ResolveFrom optimizes the problem, warm-starting from prev when non-nil.
// With prev == nil it performs a cold two-phase bounded simplex solve. With
// a prev obtained from an earlier optimal solve of the same problem, rows
// appended since are incorporated into the live tableau and re-optimized
// with the dual simplex (each new row enters with its own basic slack, so
// the old basis stays dual feasible), followed by a primal clean-up pass
// that also absorbs objective changes. The returned Basis supports the next
// incremental call; it is nil when the solve did not end Optimal. See the
// package comment for the exact warm-start contract.
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
		t, status = coldSolve(p, &budget)
		if status == Optimal {
			status = t.verifyOptimal(p, &budget)
		}
	} else {
		t = prev.t
		if t.n > p.numVars {
			return nil, nil, fmt.Errorf("lp: basis has %d variables, problem has %d (columns cannot be removed)", t.n, p.numVars)
		}
		if t.rowsBuilt > len(p.rows) {
			return nil, nil, errors.New("lp: problem has fewer rows than the basis (rows were removed)")
		}
		if t.epoch != p.removeEpoch {
			return nil, nil, errors.New("lp: rows were removed without this basis (RemoveRows with a nil or different basis); re-solve cold")
		}
		// Changed bounds invalidate the basis (see the warm-start contract);
		// catch the misuse instead of returning a silently wrong optimum.
		if j, changed := p.upperChanged(t.probUpper); changed {
			return nil, nil, fmt.Errorf("lp: upper bound of variable %d changed since the basis was captured; re-solve cold", j)
		}
		t.pivotsAtCall = t.pivots
		t.refactorsAtCall = t.refactors
		t.kstatsAtCall = t.kstats
		newCols := p.numVars - t.n
		t.appendProblemCols(p)
		copy(t.cost[:t.n], p.c) // pick up objective changes since the snapshot
		t.appendProblemRows(p)
		// A warm repair of freshly appended rows needs tens of pivots; give
		// it a budget proportional to the row count rather than the global
		// ceiling, so a degenerate stall falls back to the (verified) cold
		// solve quickly instead of grinding the dual for the full budget.
		// Appended columns each cost at most one primal entering pivot.
		if wb := 4*len(p.rows) + 4*newCols + 400; wb < budget {
			budget = wb
		}
		status = t.dualIterate(&budget)
		if status == Optimal {
			status = t.primalIterate(false, &budget)
		}
		if status == Optimal {
			status = t.verifyOptimal(p, &budget)
		}
		if status != Optimal {
			// The warm path certifies only optima: a warm claim of
			// infeasibility (or an exhausted pivot budget, or an optimum
			// that failed verification) may be an artifact of the inherited
			// basis, so it is re-derived cold. The cold entry is a crash
			// basis seeded from the warm basis's surviving columns — a
			// fresh state with no numerical history whose dual repair
			// typically needs a handful of pivots where the all-logical
			// two-phase restart pays thousands re-deriving a near-identical
			// basis. Only a verified optimum is accepted from the crash;
			// anything else (including any infeasibility claim, which a
			// seeded basis cannot certify) falls through to coldSolve,
			// which likewise only trusts its fast dual-start for optima
			// and ends every other verdict at the two-phase solve, whose
			// phase-1 result is independent of any prior state.
			// Iterations still reports every pivot spent in this call —
			// warm, crash and cold. The abandonment is counted, never
			// silent: Solution.ColdFallbacks flags it and FallbackVerdict
			// names the warm status that triggered it, so callers gating a
			// warm trajectory (the canonical scaling tests, the delta
			// sessions) see a warm-path regression as a counter, not as a
			// quiet 10× slowdown.
			coldFallbacks = 1
			warmStatus := status
			prevPivots := t.pivots - t.pivotsAtCall
			prevRefactors := t.refactors - t.refactorsAtCall
			prevKernel := t.kstats.minus(t.kstatsAtCall)
			prev := t
			t = nil
			if tc := newCrashRevised(p, prev); tc != nil {
				budget = maxPivots / 4
				tc.crashPrep()
				st := tc.dualIterate(&budget)
				if st == Optimal {
					st = tc.primalIterate(false, &budget)
				}
				if st == Optimal {
					st = tc.verifyOptimal(p, &budget)
				}
				if st == Optimal {
					t = tc
					status = Optimal
					fallbackVerdict = fmt.Sprintf("warm re-solve ended %v; recovered via crash basis", warmStatus)
				} else {
					prevPivots += tc.pivots
					prevRefactors += tc.refactors
					prevKernel.Accumulate(tc.kstats)
				}
			}
			if t == nil {
				budget = maxPivots
				t, status = coldSolve(p, &budget)
				if status == Optimal {
					status = t.verifyOptimal(p, &budget)
				}
				fallbackVerdict = fmt.Sprintf("warm re-solve ended %v; recovered via cold solve (status %v)", warmStatus, status)
			}
			// Accumulate rather than overwrite: coldSolve may itself have
			// discarded a dual-start attempt into pivotsAtCall already.
			t.pivotsAtCall -= prevPivots
			t.refactorsAtCall -= prevRefactors
			t.kstatsAtCall = t.kstatsAtCall.minus(prevKernel)
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
