package lp

import (
	"fmt"
	"math"
	"slices"
)

// revised is the sparse dual-simplex working state of the float engine.
//
// The constraint matrix is never transformed: the state reads its
// Problem's rows and right-hand sides in place (engine row i is Problem row
// i) and keeps only the views pivots need — a run-compressed copy of each
// row for the pivot-row scatter and a per-column view for FTRAN. All
// pivoting state lives in the factorized basis representation f — a sparse
// LU of the basis as of the last refactorization, kept current by
// Forrest–Tomlin updates (see factor.go). Each row has one logical column:
// row i's surplus −e_i is column n+i, a unit vector that is never
// materialized. xB holds the actual value of each basic variable —
// not a transformed right-hand side — which keeps the bookkeeping correct
// when nonbasic variables rest at nonzero upper bounds.
//
// Per pivot the engine performs:
//
//   - an FTRAN (w = B⁻¹·A_q): the entering column's sparse entries solved
//     through L, the row etas, and the updated U, O(m + nnz(factors));
//   - a BTRAN (rho = e_rᵀ·B⁻¹) for the leaving row when the dual ratio test
//     or the reduced-cost update needs the pivot row;
//   - a pivot-row sweep alpha = rho·A over the sparse rows touching rho,
//     accumulating into a touched-column list, O(Σ nnz of touched rows) —
//     this is what prices cuts without ever scanning a dense row of
//     length n;
//   - a Forrest–Tomlin update of U in place — spike column in, bump row
//     eliminated into one short row eta, O(nnz(spike) + bump closure)
//     written — plus an O(|touched|) in-place reduced-cost update: nothing
//     of size m² is ever written.
//
// The updated factors are folded into a fresh LU on the fold policy (update
// count or fill growth; see maxFTUpdates in factor.go), when rows are
// appended or removed (factorStale), on every resync, and — forced, counted
// in KernelStats.ForcedRefactors — when a spike fails the update's stability
// tolerance. Numerical drift is controlled exactly as documented in the
// package comment: the basic values and the reduced-cost row are re-derived
// from the factors at every refactorization and before any optimality
// claim, and an Infeasible verdict is only accepted after a full
// refactorization plus a basic-value resync confirms it.
type revised struct {
	p      *Problem // owner of the rows; a Basis of another Problem is rejected
	n      int      // structural variables
	m      int      // rows; engine row i is Problem row i
	epoch  int      // Problem.removeEpoch this state last synchronized with
	splits int      // entries of Problem.splits this state has replayed

	// Views of the Problem's rows, which every row enters as given.
	rowRun  [][]alphaRun // run-compressed copy of each row
	colRows [][]int32    // per structural column: rows with a nonzero entry
	colVals [][]float64

	f           factor // factorized basis: LU + Forrest–Tomlin updates (see factor.go)
	factorStale bool   // basis structure changed; refactorize before solving
	broken      bool   // refactorization failed; only IterLimit may be reported

	basis []int     // basic column of each basis position
	xB    []float64 // value of the basic variable at each position

	// Per-column state, structural columns first, then row i's surplus at
	// n+i. cost[:n] and upper[:n] double as the snapshot of the Problem's
	// objective and bounds that a warm re-solve checks.
	cost       []float64
	upper      []float64
	atUpper    []bool
	inBasis    []bool
	whereBasic []int // basis row of the column, -1 when nonbasic

	red []float64 // persistent reduced-cost row

	// Scratch reused across pivots so steady-state pivoting is
	// allocation-free.
	w       []float64  // FTRAN result, length m
	rho     []float64  // pivot row of binv, length m
	y       []float64  // dual scratch for refreshes, length m
	flipAcc []float64  // row-space accumulator for batched bound flips, length m
	flipSol []float64  // FTRAN scratch for applyFlips, length m, kept zeroed
	tau     []float64  // steepest-edge scratch (B⁻¹·rho, or a weight's BTRAN), length m
	alpha   []float64  // pivot row of the tableau, length ncols, kept zeroed
	touched []int32    // columns with nonzero alpha this pivot
	cands   []dualCand // dual ratio-test candidates, reused across pivots

	// Sparse-support bookkeeping for the kernel scratch above: each Ind
	// slice holds the sorted support of the matching vector's last solve
	// when its Sparse flag is set (the vector is then zeroed through the
	// support instead of a full sweep); a cleared flag means the last solve
	// fell back to the dense path. invalidateKernel drops all of it when
	// the row dimension changes.
	wInd       []int32
	wSparse    bool
	rhoInd     []int32
	rhoSparse  bool
	tauInd     []int32
	tauSparse  bool
	flipInd    []int32 // support of flipAcc (engine rows; dups tolerated)
	flipSolInd []int32
	oneInd     [1]int32 // unit-vector support scratch for ftran/btranUnit

	// Dual working-set pricing (see pickDualRow): the candidate leaving
	// rows and membership flags keyed by basis position. rowListOK means
	// the invariant "every violated position is listed" holds — refills
	// establish it, noteDualRow maintains it across basic-value updates,
	// and anything that re-derives basic values wholesale clears it.
	rowList   []int32
	inRowList []bool
	rowListOK bool

	kstats       KernelStats // lifetime kernel counters
	kstatsAtCall KernelStats // snapshot when the current ResolveFrom began

	// Pricing state (see the pricing section of the package comment).
	// dseW[i] is the dual pricing weight of basis position i, the
	// Forrest–Goldfarb reference weight ‖e_iᵀB⁻¹‖². A negative entry marks a
	// position appended since the last dual pass, priced lazily by
	// ensureWeights. Weights live in basis-position space, so they
	// survive refactorization unchanged (B does not change) and survive
	// RemoveRows by compaction (the surviving rows of the reduced inverse
	// are exactly the surviving rows of the old one).
	dseW []float64

	pivots          int // lifetime pivot count
	pivotsAtCall    int // pivot count when the current ResolveFrom began
	refactors       int // lifetime successful refactorizations
	refactorsAtCall int // refactorization count when the current call began

	pivotHook func(row, col int) // observes basis changes; nil outside tests
}

// Pricing constants.
const (
	// dseWeightFloor keeps incrementally updated weights positive when
	// cancellation in the FG update rounds a tiny weight below zero.
	dseWeightFloor = 1e-10
	// dseStaleFactor is the staleness trigger: when the incrementally
	// maintained weight of the pivot row disagrees with the exact
	// ‖e_rᵀB⁻¹‖² (computed anyway for the ratio test) by more than this
	// factor either way, every weight is recomputed from the factors.
	dseStaleFactor = 16.0
)

// newRevised builds the initial state at the all-slack dual basis. Each
// row a·x ≥ b of p enters as given, read in place, with its surplus
// (coefficient −1) at column n+i, basic. Every structural rests at its lower
// bound, which its nonnegative cost prefers, so the basis is dual feasible;
// it is a signed permutation, so every inverse row has norm exactly 1 and
// the dual steepest-edge weights start exact.
func newRevised(p *Problem) *revised {
	m, n := len(p.b), p.numVars
	nTotal := n + m
	colCap := nTotal + nTotal/4 + 16 // headroom for appended cut columns
	rowCap := m + m/4 + 16
	t := &revised{
		p:          p,
		n:          n,
		m:          m,
		epoch:      p.removeEpoch,
		splits:     len(p.splits),
		rowRun:     make([][]alphaRun, 0, rowCap),
		colRows:    make([][]int32, n),
		colVals:    make([][]float64, n),
		basis:      make([]int, 0, rowCap),
		xB:         make([]float64, 0, rowCap),
		cost:       make([]float64, nTotal, colCap),
		upper:      make([]float64, nTotal, colCap),
		atUpper:    make([]bool, nTotal, colCap),
		inBasis:    make([]bool, nTotal, colCap),
		whereBasic: make([]int, nTotal, colCap),
		red:        make([]float64, nTotal, colCap),
		alpha:      make([]float64, nTotal, colCap),
		w:          make([]float64, m, rowCap),
		rho:        make([]float64, m, rowCap),
		y:          make([]float64, m, rowCap),
		flipAcc:    make([]float64, m, rowCap),
		flipSol:    make([]float64, m, rowCap),
		tau:        make([]float64, m, rowCap),
		touched:    make([]int32, 0, colCap),
		dseW:       make([]float64, m, rowCap),
		inRowList:  make([]bool, m, rowCap),
		pivotHook:  p.pivotHook,
	}
	t.f.forceDense = p.denseKernels
	t.f.stats = &t.kstats
	for i := range t.dseW {
		t.dseW[i] = 1
	}
	copy(t.cost, p.c)
	for j := range t.upper {
		t.upper[j] = math.Inf(1)
	}
	if p.upper != nil {
		copy(t.upper, p.upper)
	}
	for j := range t.whereBasic {
		t.whereBasic[j] = -1
	}
	for i, cols := range p.rowCols {
		vals := p.rowVals[i]
		for k, c := range cols {
			t.colRows[c] = append(t.colRows[c], int32(i))
			t.colVals[c] = append(t.colVals[c], vals[k])
		}
		t.rowRun = append(t.rowRun, compressRuns(cols, vals))
		surplus := n + i
		t.basis = append(t.basis, surplus)
		t.xB = append(t.xB, -p.b[i])
		t.inBasis[surplus] = true
		t.whereBasic[surplus] = i
	}
	// The initial basis factorizes trivially; do it lazily at the first
	// solve entry like any other structural change.
	t.factorStale = true
	return t
}

// basisColNNZ reports the nonzero count of the basic column at position p
// (the refactorization's static Markowitz-style ordering key).
func (t *revised) basisColNNZ(p int) int {
	if c := t.basis[p]; c < t.n {
		return len(t.colRows[c])
	}
	return 1
}

// scatterBasisColumn adds the sparse entries of the basic column at
// position p into the engine-row-indexed accumulator x, implementing the
// factorization's basisMatrix source without per-column closures.
func (t *revised) scatterBasisColumn(p int, x []float64, patt []int32) []int32 {
	c := t.basis[p]
	if c < t.n {
		rows, vals := t.colRows[c], t.colVals[c]
		for k, r := range rows {
			if x[r] == 0 && vals[k] != 0 {
				patt = append(patt, r)
			}
			x[r] += vals[k]
		}
		return patt
	}
	r := c - t.n
	if x[r] == 0 {
		patt = append(patt, int32(r))
	}
	x[r] -= 1
	return patt
}

// ensureFactor makes the factorization match the current basis. When
// factorStale is set — rows were appended or removed, or a fold or resync
// dropped the updated factors — it rebuilds the LU from the basis columns.
// On numerical singularity the representation is lost and the state is
// marked broken: every iterate loop then reports IterLimit, which the caller
// turns into a cold re-solve (or a loud non-optimum) — a broken state never
// certifies optimality or infeasibility.
func (t *revised) ensureFactor() bool {
	if !t.factorStale {
		return !t.broken
	}
	if !t.f.refactorize(t.m, t) {
		t.broken = true
		return false
	}
	t.factorStale = false
	t.broken = false
	t.refactors++
	return true
}

// dualCand is one eligible entering column of the bounded dual ratio test.
type dualCand struct {
	col   int32
	id    uint32 // the column's identity: its index, or 1<<31 | row for a surplus
	ratio float64
	mag   float64 // |pivot element|, the tie-breaking key
}

// dualCandBefore is the bound-flipping walk's consumption order: ratio
// ascending with ratios below tieTol collapsed into one degenerate bucket,
// ties by descending pivot magnitude (Harris-style), final ties by a hash
// of the column's identity, not its position, so appending or splitting
// structural columns moves no pivot. The hash (still deterministic)
// decorrelates the flip walk from the master's column order — plain index
// order re-correlates it into coherent flip storms on integer-data masters
// — and, multiplying by an odd constant, is a bijection: distinct columns
// never tie.
func dualCandBefore(a, b dualCand) bool {
	const tieTol = 1e-9 // ratios below this are the degenerate bucket
	ra, rb := a.ratio, b.ratio
	if ra <= tieTol {
		ra = 0
	}
	if rb <= tieTol {
		rb = 0
	}
	if ra != rb {
		return ra < rb
	}
	if a.mag != b.mag {
		return a.mag > b.mag
	}
	return a.id*2654435761 < b.id*2654435761
}

// heapifyDualCands builds a binary min-heap under dualCandBefore in place.
func heapifyDualCands(c []dualCand) {
	for i := len(c)/2 - 1; i >= 0; i-- {
		siftDualCand(c, i)
	}
}

// siftDualCand restores the heap property below index i.
func siftDualCand(c []dualCand, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(c) && dualCandBefore(c[l], c[min]) {
			min = l
		}
		if r < len(c) && dualCandBefore(c[r], c[min]) {
			min = r
		}
		if min == i {
			return
		}
		c[i], c[min] = c[min], c[i]
		i = min
	}
}

// pivTol is the minimum magnitude accepted for a dual pivot element.
// Pivoting on elements near the eps noise floor multiplies the basis
// inverse by huge factors and destroys it within a few iterations; the
// verification loop in ResolveFrom would catch the damage, but refusing
// such pivots keeps the inverse healthy in the first place.
const pivTol = 1e-7

// refreshRed recomputes the basic values and the reduced-cost row from the
// factorized basis: xB = B⁻¹(b − N·x_N) by FTRAN, then the duals
// y = c_B·B⁻¹ by BTRAN, then red_j = c_j - y·A_j via one sweep over the
// sparse rows. Re-deriving xB together with red keeps the incremental
// per-pivot updates from drifting apart between refreshes. Stale factors
// are rebuilt first; when that fails the state is broken and nothing is
// refreshed.
func (t *revised) refreshRed() {
	if !t.ensureFactor() {
		return
	}
	t.refreshXB()
	t.red = t.red[:len(t.cost)]
	copy(t.red, t.cost)
	y := t.y[:t.m]
	for i := 0; i < t.m; i++ {
		y[i] = t.cost[t.basis[i]]
	}
	t.f.btran(y) // dense by design: c_B is a dense right-hand side
	t.kstats.noteBtran(false, 0)
	for i := 0; i < t.m; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		cols, vals := t.p.rowCols[i], t.p.rowVals[i]
		red := t.red
		for k, c := range cols {
			red[c] -= yi * vals[k]
		}
		red[t.n+i] += yi
	}
}

// invalidateKernel forgets the sparse-support bookkeeping of the solve
// scratch — after any change to the row dimension the stale supports may
// index out of range — and schedules a dual working-set rebuild.
func (t *revised) invalidateKernel() {
	t.wSparse, t.rhoSparse, t.tauSparse = false, false, false
	t.rowListOK = false
}

// ftran computes w = B⁻¹·A_col into t.w: the column's sparse entries are
// scattered into the row-space right-hand side and solved through the
// hypersparse kernels, leaving the result's support in t.wInd (wSparse is
// cleared when the solve fell back to the dense path; t.w is a valid dense
// result either way).
func (t *revised) ftran(col int) {
	w := t.w[:t.m]
	if t.wSparse {
		for _, i := range t.wInd {
			w[i] = 0
		}
	} else {
		for i := range w {
			w[i] = 0
		}
	}
	var ind []int32
	if col < t.n {
		rows, vals := t.colRows[col], t.colVals[col]
		for k, r := range rows {
			w[r] = vals[k]
		}
		ind = rows
	} else {
		r := col - t.n
		w[r] = -1
		t.oneInd[0] = int32(r)
		ind = t.oneInd[:]
	}
	t.wInd, t.wSparse = t.f.ftranSparse(w, ind, t.wInd[:0], ftranEnter)
	t.kstats.noteFtran(t.wSparse, len(t.wInd))
}

// btranUnit computes e_pᵀ·B⁻¹ into v by a BTRAN of the position-space unit
// vector. ind and sparse describe v's previous contents (its support, valid
// when sparse is set), which are cleared first; the result's support comes
// back the same way, for the caller to keep beside v.
func (t *revised) btranUnit(p int, v []float64, ind []int32, sparse bool) ([]int32, bool) {
	v = v[:t.m]
	if sparse {
		for _, i := range ind {
			v[i] = 0
		}
	} else {
		for i := range v {
			v[i] = 0
		}
	}
	v[p] = 1
	t.oneInd[0] = int32(p)
	ind, sparse = t.f.btranSparse(v, t.oneInd[:], ind[:0])
	t.kstats.noteBtran(sparse, len(ind))
	return ind, sparse
}

// sqNorm returns ‖v‖², summed over the support ind when sparse is set.
func sqNorm(v []float64, ind []int32, sparse bool) float64 {
	s := 0.0
	if sparse {
		for _, i := range ind {
			s += v[i] * v[i]
		}
	} else {
		for _, x := range v {
			s += x * x
		}
	}
	return s
}

// weight returns basis position p's exact reference weight ‖e_pᵀB⁻¹‖²,
// floored at dseWeightFloor, from one BTRAN of the current factors. It
// solves in the tau scratch, which holds nothing between FG updates, so
// t.rho, the pivot row updateWeights is still using, stays intact.
func (t *revised) weight(p int) float64 {
	t.tauInd, t.tauSparse = t.btranUnit(p, t.tau, t.tauInd, t.tauSparse)
	return max(sqNorm(t.tau[:t.m], t.tauInd, t.tauSparse), dseWeightFloor)
}

// ensureWeights prices the basis positions appended since the last pricing
// pass (marked -1 by appendRow) exactly. Existing positions are never
// touched here: applyPivot maintains them incrementally across every basis
// change. A broken state has no factors to price with, and dualIterate
// reports IterLimit for it before any pivot reads a weight.
func (t *revised) ensureWeights() {
	if t.broken {
		return
	}
	for p, w := range t.dseW {
		if w < 0 {
			t.dseW[p] = t.weight(p)
		}
	}
}

// updateWeights maintains the dual pricing weights across the basis change
// at position row: t.w must hold the pivot column B⁻¹·A_q and t.rho the
// pivot row e_rowᵀ·B⁻¹, both for the pre-pivot basis (which is why
// applyPivot calls this before the factor update). The exact norm of the
// pivot row — free, since the row was computed for the ratio test anyway —
// always anchors the leaving position's new weight, and doubles as the
// staleness detector: when the incrementally carried weight disagrees with
// the exact norm by more than dseStaleFactor, accumulated update error has
// detached the weight set from the basis, and every weight is recomputed
// from the pre-pivot factors (counted in KernelStats.WeightResets) before
// the update proceeds.
//
// The Forrest–Goldfarb update changes every position touched by the pivot
// column:
//
//	β'_i = β_i − 2·(w_i/w_r)·τ_i + (w_i/w_r)²·β_r ,  τ = B⁻¹·rho_row ,
//
// costing one extra FTRAN per pivot (τ_i is the inner product of inverse
// rows i and row).
func (t *revised) updateWeights(row int) {
	w := t.w[:t.m]
	wr := w[row]
	if wr == 0 {
		return
	}
	rho := t.rho[:t.m]
	br := sqNorm(rho, t.rhoInd, t.rhoSparse)
	inv := 1 / wr
	if incw := t.dseW[row]; incw > 0 && (incw*dseStaleFactor < br || incw > br*dseStaleFactor) {
		for p := range t.dseW {
			t.dseW[p] = t.weight(p)
		}
		t.kstats.WeightResets++
	}
	// FG correction term τ = B⁻¹·rho, solved through the hypersparse
	// kernels with rho's support as the right-hand-side pattern.
	tau := t.tau[:t.m]
	if t.tauSparse {
		for _, i := range t.tauInd {
			tau[i] = 0
		}
	} else {
		for i := range tau {
			tau[i] = 0
		}
	}
	if t.rhoSparse {
		for _, i := range t.rhoInd {
			tau[i] = rho[i]
		}
		t.tauInd, t.tauSparse = t.f.ftranSparse(tau, t.rhoInd, t.tauInd[:0], ftranTau)
	} else {
		copy(tau, rho)
		t.f.ftran(tau)
		t.tauInd, t.tauSparse = t.tauInd[:0], false
	}
	t.kstats.noteFtran(t.tauSparse, len(t.tauInd))
	if t.wSparse {
		for _, i32 := range t.wInd {
			i := int(i32)
			wi := w[i]
			if wi == 0 || i == row {
				continue
			}
			s := wi * inv
			t.dseW[i] = max(t.dseW[i]-2*s*tau[i]+s*s*br, dseWeightFloor)
		}
	} else {
		for i := 0; i < t.m; i++ {
			wi := w[i]
			if wi == 0 || i == row {
				continue
			}
			s := wi * inv
			t.dseW[i] = max(t.dseW[i]-2*s*tau[i]+s*s*br, dseWeightFloor)
		}
	}
	t.dseW[row] = max(br*inv*inv, dseWeightFloor)
}

// pivotRowAlpha accumulates alpha_j = rho·A_j for every column with a
// nonzero result into t.alpha, recording them in t.touched; t.rho must hold
// the pivot row (btranUnit leaves its support in t.rhoInd, which this sweep
// walks instead of scanning all m positions when available). The cost is
// the sparse support of the pivot row, never n or m. Callers must drain
// t.alpha back to zero (the reduced-cost update in applyPivot does, as does
// clearAlpha).
func (t *revised) pivotRowAlpha() {
	t.touched = t.touched[:0]
	rho := t.rho[:t.m]
	// Estimate the scatter volume (Σ stored entries over rho's support)
	// first: wide covering cuts make pivot rows column-dense at scale, and
	// once the volume passes the column count it is cheaper to scatter with
	// no per-entry support tracking and recover touched in one sequential
	// sweep. The two modes are interchangeable: per-column accumulation
	// order is identical, and the only touched-list differences — columns
	// whose alpha cancelled to exact zero, or duplicate listings — are
	// no-ops for every consumer (zero alphas fail the pivot-tolerance
	// checks and contribute nothing to the reduced-cost update, and the
	// ratio-test heap pops a strict total order regardless of insertion
	// order), so the pivot sequence does not depend on the mode switch.
	nc := len(t.alpha)
	vol := 0
	if t.rhoSparse {
		for _, i32 := range t.rhoInd {
			i := int(i32)
			if rho[i] != 0 {
				vol += len(t.p.rowCols[i]) + 1
			}
		}
		if vol >= nc {
			for _, i32 := range t.rhoInd {
				i := int(i32)
				if ri := rho[i]; ri != 0 {
					t.scatterRowAlphaRaw(i, ri)
				}
			}
			t.collectTouched()
			return
		}
		for _, i32 := range t.rhoInd {
			i := int(i32)
			if ri := rho[i]; ri != 0 {
				t.scatterRowAlpha(i, ri)
			}
		}
		return
	}
	for i := 0; i < t.m; i++ {
		if rho[i] != 0 {
			vol += len(t.p.rowCols[i]) + 1
		}
	}
	if vol >= nc {
		for i := 0; i < t.m; i++ {
			if ri := rho[i]; ri != 0 {
				t.scatterRowAlphaRaw(i, ri)
			}
		}
		t.collectTouched()
		return
	}
	for i := 0; i < t.m; i++ {
		if ri := rho[i]; ri != 0 {
			t.scatterRowAlpha(i, ri)
		}
	}
}

// alphaRun is one maximal run of consecutive columns sharing a coefficient
// within a row. Covering cuts are unions of job windows with small integer
// coverage levels, so a row's coefficient profile changes only at window
// boundaries: a cut spanning hundreds of slots compresses to a handful of
// runs, and the pivot-row scatter walks runs — one multiply plus a
// sequential block add — instead of streaming per-entry column indices and
// values from memory. Rows without consecutive structure degrade to
// length-1 runs, which costs the same entry walk as the uncompressed form.
type alphaRun struct {
	lo, ln int32
	val    float64
}

// compressRuns builds the run form of a normalized (strictly ascending,
// zero-free) row. Walking runs left to right reproduces the entry walk in
// the exact same column order, so the two forms are arithmetically
// interchangeable anywhere a row is accumulated.
func compressRuns(cols []int32, vals []float64) []alphaRun {
	runs := make([]alphaRun, 0, 8)
	for k := 0; k < len(cols); {
		j := k + 1
		for j < len(cols) && cols[j] == cols[j-1]+1 && vals[j] == vals[k] {
			j++
		}
		runs = append(runs, alphaRun{lo: cols[k], ln: int32(j - k), val: vals[k]})
		k = j
	}
	return runs
}

// scatterRowAlpha adds ri times row i's entries into the alpha accumulator.
func (t *revised) scatterRowAlpha(i int, ri float64) {
	alpha := t.alpha
	for _, rn := range t.rowRun[i] {
		x := ri * rn.val
		seg := alpha[rn.lo : rn.lo+rn.ln]
		base := rn.lo
		for k := range seg {
			if seg[k] == 0 {
				t.touched = append(t.touched, base+int32(k))
			}
			seg[k] += x
		}
	}
	s := t.n + i
	if alpha[s] == 0 {
		t.touched = append(t.touched, int32(s))
	}
	alpha[s] -= ri
}

// scatterRowAlphaRaw is scatterRowAlpha without support tracking — a block
// add per run — for the column-dense mode; callers recover the support
// with collectTouched after the last row. (A run-boundary difference
// accumulator folded by one prefix sum would be asymptotically cheaper
// still, but reassociating the per-column additions perturbs alpha in
// final ulps, and the flip walk's magnitude tie-breaks are sensitive
// enough that the jitter measurably doubles pivot counts at T = 16384 —
// the entry-order block add is the fastest form that keeps the pivot
// sequence exactly.)
func (t *revised) scatterRowAlphaRaw(i int, ri float64) {
	alpha := t.alpha
	for _, rn := range t.rowRun[i] {
		x := ri * rn.val
		seg := alpha[rn.lo : rn.lo+rn.ln]
		for k := range seg {
			seg[k] += x
		}
	}
	alpha[t.n+i] -= ri
}

// collectTouched rebuilds t.touched as the ascending support of t.alpha.
func (t *revised) collectTouched() {
	for c, a := range t.alpha {
		if a != 0 {
			t.touched = append(t.touched, int32(c))
		}
	}
}

// clearAlpha zeroes the accumulator without applying it.
func (t *revised) clearAlpha() {
	for _, c := range t.touched {
		t.alpha[c] = 0
	}
	t.touched = t.touched[:0]
}

// applyPivot performs the basis change on (row, col): the entering column
// moves by delta in direction dir (+1 from its lower bound, -1 from its
// upper bound), every basic value is stepped, the factors absorb the
// Forrest–Tomlin update, the persistent reduced-cost row is updated from the
// pre-pivot pivot row, and the leaving variable settles at its upper bound
// when toUpper is true, else at zero.
//
// t.w must hold the FTRAN of the entering column and t.alpha/t.touched the
// pivot row the ratio test priced; the accumulator is drained before
// returning.
func (t *revised) applyPivot(row, col int, dir, delta float64, toUpper bool) {
	if t.pivotHook != nil {
		t.pivotHook(row, col)
	}
	w := t.w[:t.m]
	if delta != 0 {
		if t.wSparse {
			for _, i32 := range t.wInd {
				i := int(i32)
				if i == row {
					continue
				}
				if wi := w[i]; wi != 0 {
					t.xB[i] -= dir * wi * delta
					t.noteDualRow(i)
				}
			}
		} else {
			for i := range w {
				if i == row {
					continue
				}
				if wi := w[i]; wi != 0 {
					t.xB[i] -= dir * wi * delta
					t.noteDualRow(i)
				}
			}
		}
	}
	enterVal := dir * delta
	if t.atUpper[col] {
		enterVal += t.upper[col]
	}

	if f := t.red[col]; f != 0 {
		scale := f / w[row]
		red := t.red
		for _, c := range t.touched {
			a := t.alpha[c]
			t.alpha[c] = 0
			red[c] -= scale * a
		}
		t.touched = t.touched[:0]
		red[col] = 0
	} else {
		t.clearAlpha()
	}

	// Maintain the dual pricing weights against the pre-pivot basis (t.w
	// and t.rho are both still pre-pivot here; the FG correction term
	// needs the old factors, so this must precede the factor update).
	t.updateWeights(row)

	// Record the basis change instead of a dense rank-one inverse update: a
	// Forrest–Tomlin in-place update of U consuming the spike the entering
	// FTRAN stashed — O(nnz(spike)) written, nothing of size m².
	forcedRefactor := false
	if !t.f.ftUpdate(row) {
		// The spike's eliminated diagonal failed the stability tolerance,
		// so the update refused and the factors still describe the
		// pre-pivot basis. Finish the basis bookkeeping, then refactorize
		// from the post-pivot basis below.
		t.kstats.ForcedRefactors++
		forcedRefactor = true
	}

	leave := t.basis[row]
	t.inBasis[leave] = false
	t.whereBasic[leave] = -1
	t.atUpper[leave] = toUpper
	t.basis[row] = col
	t.inBasis[col] = true
	t.whereBasic[col] = row
	t.atUpper[col] = false
	if enterVal < 0 && enterVal > -1e-7 {
		enterVal = 0
	}
	t.xB[row] = enterVal
	t.noteDualRow(row)
	t.pivots++
	// Fold the updated factors into a fresh LU before they accumulate fill
	// or drift (or immediately, when a stability-forced refactorization is
	// pending). The basis bookkeeping above is already final, so the
	// refactorization sees exactly the post-pivot basis. The basic values
	// and reduced costs are re-derived immediately: they carry the
	// update-era incremental state, and letting them disagree with the
	// fresh factors makes the dual ratio test chase phantom violations.
	if forcedRefactor || t.f.ftShouldFold() {
		t.resync()
	}
}

// accumulateFlip records a bound flip of structural column col (moving by
// u in direction dir) in the row-space accumulator; applyFlips folds every
// recorded flip into the basic values with a single B⁻¹ application.
// Logical columns have no finite upper bound, so they never flip.
func (t *revised) accumulateFlip(col int, dir, u float64) {
	d := dir * u
	rows, vals := t.colRows[col], t.colVals[col]
	for k, r := range rows {
		if t.flipAcc[r] == 0 {
			t.flipInd = append(t.flipInd, r)
		}
		t.flipAcc[r] += d * vals[k]
	}
}

// applyFlips applies xB -= B⁻¹·flipAcc with one FTRAN and clears the
// accumulator. The accumulated support rides along as the solve's
// right-hand-side pattern (flipSol keeps the all-zero invariant the sparse
// scatter needs; duplicate support entries from mid-walk cancellations are
// harmless everywhere they flow).
func (t *revised) applyFlips() {
	acc := t.flipAcc[:t.m]
	s := t.flipSol[:t.m]
	for _, r := range t.flipInd {
		// flipInd can list r twice when the accumulator passed through exact
		// zero mid-walk; the guard keeps a second visit from wiping the value
		// the first one already moved into s.
		if acc[r] != 0 {
			s[r] = acc[r]
			acc[r] = 0
		}
	}
	var sparse bool
	t.flipSolInd, sparse = t.f.ftranSparse(s, t.flipInd, t.flipSolInd[:0], ftranFlip)
	t.kstats.noteFtran(sparse, len(t.flipSolInd))
	if sparse {
		for _, i32 := range t.flipSolInd {
			i := int(i32)
			if si := s[i]; si != 0 {
				t.xB[i] -= si
				t.noteDualRow(i)
			}
			s[i] = 0
		}
	} else {
		for i := 0; i < t.m; i++ {
			if si := s[i]; si != 0 {
				t.xB[i] -= si
				t.noteDualRow(i)
			}
			s[i] = 0
		}
	}
	t.flipInd = t.flipInd[:0]
}

// dualViolation reports position i's bound violation magnitude (zero when
// within bounds) and whether the violation is above the upper bound.
func (t *revised) dualViolation(i int) (float64, bool) {
	v := t.xB[i]
	if v < -1e-7 {
		return -v, false
	}
	if ub := t.upper[t.basis[i]]; !math.IsInf(ub, 1) && v-ub > 1e-7 {
		return v - ub, true
	}
	return 0, false
}

// noteDualRow adds basis position i to the dual working set when its basic
// value violates a bound and it is not already listed. Every code path that
// changes an xB entry during dual iteration calls it, which preserves the
// working-set invariant behind rowListOK. Both kernel paths visit changed
// positions in ascending order and gate on the same numeric nonzero tests,
// so the list contents — and therefore the pivot sequence — are identical
// whichever path produced the update.
func (t *revised) noteDualRow(i int) {
	if !t.rowListOK || t.inRowList[i] {
		return
	}
	if viol, _ := t.dualViolation(i); viol == 0 {
		return
	}
	t.inRowList[i] = true
	t.rowList = append(t.rowList, int32(i))
}

// refillDualRows rebuilds the working set with one full ascending sweep,
// listing every violated position. An empty refill is the "no violated row"
// conclusion, identical to the full sweep it replaces.
func (t *revised) refillDualRows() int {
	for _, i32 := range t.rowList {
		t.inRowList[i32] = false
	}
	t.rowList = t.rowList[:0]
	for i := 0; i < t.m; i++ {
		if viol, _ := t.dualViolation(i); viol != 0 {
			t.inRowList[i] = true
			t.rowList = append(t.rowList, int32(i))
		}
	}
	t.rowListOK = true
	t.kstats.RowRefills++
	return len(t.rowList)
}

// pickDualRow is the working-set leaving-row choice of the dual simplex
// outside the Bland regime: it drains the listed candidates — re-checking
// each against the live basic values, dropping the repaired — and returns
// the one maximizing violation²/weight (the dual steepest-edge score, ties
// to the lowest position). Because refills list every violated position and
// noteDualRow keeps the list complete across basic-value updates, the choice
// — and hence the whole pivot sequence — is exactly the full sweep's, while
// steady-state selection cost is O(|violated positions|), not O(m): on the
// covering masters a pivot repairs most of what it touches, so the drained
// list collapses to a handful of live cut rows between refills.
func (t *revised) pickDualRow() (int, bool) {
	for {
		if !t.rowListOK {
			if t.refillDualRows() == 0 {
				return -1, false
			}
		}
		// The comparison is negated so that a row whose weight blew up to
		// NaN still wins; otherwise a list of such rows would send this loop
		// refilling forever, out of the pivot budget's reach.
		best, row, above := 0.0, -1, false
		out := 0
		for _, i32 := range t.rowList {
			i := int(i32)
			viol, ab := t.dualViolation(i)
			if viol == 0 {
				t.inRowList[i] = false
				continue
			}
			t.rowList[out] = i32
			out++
			if score := viol * viol / t.dseW[i]; !(score <= best) || (score == best && row >= 0 && i < row) {
				best, row, above = score, i, ab
			}
		}
		t.rowList = t.rowList[:out]
		if row >= 0 {
			return row, above
		}
		// Every member was repaired since it was listed; refill from the
		// rotor (a refill that finds nothing ends the loop above).
		t.rowListOK = false
	}
}

// dualIterate restores primal feasibility (basic values outside their
// bounds: the surpluses of a cold start or of newly appended rows)
// while maintaining dual feasibility, using the bounded-variable dual
// simplex. It assumes the state is dual feasible: the all-slack start, or
// an optimum before rows were appended. A pivot may land the entering
// variable beyond its own finite bound; that surfaces as a fresh
// infeasibility repaired by a later iteration. For the second half of the
// pivot budget it falls back from steepest-edge row selection to the
// lowest violated position (Bland's rule) as an anti-cycling safeguard.
//
// A conclusion of Infeasible is never accepted from drifted state: the
// engine refactorizes the basis inverse, resyncs basic values and reduced
// costs, and re-tries once before reporting it.
func (t *revised) dualIterate(budget *int) Status {
	t.refreshRed()
	t.ensureWeights()
	blandFrom := *budget / 2
	resynced := false
	for iter := 0; ; iter++ {
		if *budget <= 0 || t.broken {
			return IterLimit
		}
		*budget--
		// Leaving row: the basic variable maximizing violation²/weight — the
		// dual steepest-edge criterion, which measures each violation in the
		// geometry of the dual edge the pivot would traverse instead of raw
		// units; on dual-degenerate covering masters that takes far fewer
		// (and better-conditioned) pivots than most-infeasible selection.
		// The Bland regime falls back to the lowest violated position.
		row := -1
		above := false
		if iter < blandFrom {
			row, above = t.pickDualRow()
		} else {
			for i := 0; i < t.m; i++ {
				if viol, ab := t.dualViolation(i); viol != 0 {
					row, above = i, ab
					break
				}
			}
		}
		if row < 0 {
			return Optimal
		}
		sign := 1.0
		if above {
			sign = -1.0
		}
		t.rhoInd, t.rhoSparse = t.btranUnit(row, t.rho, t.rhoInd, t.rhoSparse)
		t.pivotRowAlpha()
		// Entering: bounded dual ratio test with bound flips. Candidates
		// are visited in increasing dual-ratio order (final ties by column
		// identity, for determinism; see dualCandBefore); a candidate whose own
		// finite range cannot absorb the remaining violation is flipped
		// across its bounds — no basis change, its dual price has crossed
		// its ratio so the opposite bound is the dual-feasible one — and
		// the first candidate that can absorb the rest becomes the pivot.
		// Without the flips, an entering variable overrunning its bound
		// lands infeasible, leaves again next iteration, and the pair
		// ping-pongs for the rest of the budget on degenerate covering
		// masters.
		red := t.red
		cands := t.cands[:0]
		for _, j32 := range t.touched {
			j := int(j32)
			if t.inBasis[j] {
				continue
			}
			a := sign * t.alpha[j]
			var ratio float64
			if t.atUpper[j] {
				if a <= pivTol {
					continue
				}
				ratio = -red[j] / a
			} else {
				if a >= -pivTol {
					continue
				}
				ratio = red[j] / -a
			}
			if ratio < 0 {
				ratio = 0
			}
			id := uint32(j)
			if j >= t.n {
				id = 1<<31 | uint32(j-t.n)
			}
			cands = append(cands, dualCand{col: int32(j), id: id, ratio: ratio, mag: math.Abs(a)})
		}
		t.cands = cands
		// Candidates are consumed in increasing dual-ratio order. Covering
		// masters are massively dual degenerate — at an integral optimum
		// most reduced costs are exactly zero, so whole swathes of
		// candidates tie at ratio zero. Within a ratio tie the walk prefers
		// the largest pivot magnitude (Harris-style): each flipped
		// candidate then absorbs the most violation per flip and the
		// eventual pivot element is large. Breaking ties by column index
		// instead sends the walk through long chains of dual-progress-free
		// flips that reshuffle every overlapping cut row — measured on the
		// T=4096 scaling family, that turned warm dual repairs of ~10²
		// pivots into 10⁴-pivot infeasibility storms.
		//
		// The order is realized lazily through a binary heap rather than a
		// full sort: the walk usually consumes a handful of the thousands
		// of candidates a wide pivot row yields, so heapify-plus-pops costs
		// O(k + consumed·log k) where the former full sort paid O(k·log k)
		// on every pivot — at T = 8192 that sort alone was ~a fifth of the
		// whole solve. Pop order is identical to the sorted order, so the
		// pivot sequence is unchanged.
		heapifyDualCands(cands)
		target := 0.0
		if above {
			target = t.upper[t.basis[row]]
		}
		col := -1
		var colDir float64
		flips := 0
		xrow := t.xB[row] // tracked analytically across flips via alpha
		for len(cands) > 0 {
			cd := cands[0]
			last := len(cands) - 1
			cands[0] = cands[last]
			cands = cands[:last]
			siftDualCand(cands, 0)
			j := int(cd.col)
			// Re-check eligibility against live bound state: t.touched can
			// list a column twice (its alpha cancelled to zero mid-sweep and
			// was re-added), and a candidate flipped earlier in this walk
			// must not be processed again — its reversed direction would
			// produce a degenerate pivot that snaps the still-violated
			// leaving variable to its bound without the compensating step.
			a := sign * t.alpha[j]
			var dir float64
			if t.atUpper[j] {
				if a <= pivTol {
					continue
				}
				dir = -1.0
			} else {
				if a >= -pivTol {
					continue
				}
				dir = 1.0
			}
			// Step the entering variable would need for a full repair; its
			// alpha is unchanged by earlier flips, only xB[row] moves.
			need := (xrow - target) / (dir * t.alpha[j])
			if u := t.upper[j]; u > 0 && !math.IsInf(u, 1) && need > u {
				// Flip: record the bound change and its row-space effect;
				// the combined basic-value update is applied once after the
				// walk, so a walk of k flips costs O(Σ nnz(A_j)) + one
				// O(m²) pass instead of k FTRANs.
				t.accumulateFlip(j, dir, u)
				t.atUpper[j] = !t.atUpper[j]
				xrow -= dir * u * t.alpha[j]
				flips++
				continue
			}
			col, colDir = j, dir
			break
		}
		if flips > 0 {
			t.applyFlips()
		}
		if col < 0 {
			t.clearAlpha()
			// Refactorize and resync before believing drifted state; the
			// retry re-enters the loop with clean numbers. A failed
			// refactorization leaves the state broken, so the loop top
			// reports IterLimit: nothing certifies infeasibility then.
			if resynced {
				return Infeasible
			}
			resynced = true
			t.resync()
			continue
		}
		delta := (t.xB[row] - target) / (colDir * t.alpha[col])
		if delta < 0 {
			delta = 0
		}
		t.ftran(col)
		t.applyPivot(row, col, colDir, delta, above)
	}
}

// solve runs the dual simplex from the current dual feasible state — the
// all-slack start of newRevised, or a warm optimum with rows and columns
// spliced in — then checks the optimum it reaches and verifies it against
// the Problem's rows.
func (t *revised) solve(budget *int) Status {
	st := t.dualIterate(budget)
	if st == Optimal {
		st = t.checkDualFeasible()
	}
	if st == Optimal {
		st = t.verifyOptimal(budget)
	}
	return st
}

// checkDualFeasible confirms an optimum the dual simplex reached. It first
// re-derives the basic values and reduced costs from the factors the
// optimum was reached on; the next warm re-solve starts from these values.
// It then reports IterLimit if a nonbasic column sits off the bound its
// reduced cost prefers (red < −eps at the lower bound, red > eps at the
// upper), or a NaN one. The dual simplex keeps every reduced cost on its
// dual-feasible side, so only numerical drift can trip the check.
func (t *revised) checkDualFeasible() Status {
	t.refreshRed()
	for j, r := range t.red {
		if t.inBasis[j] {
			continue
		}
		if t.atUpper[j] && !(r <= eps) || !t.atUpper[j] && !(r >= -eps) {
			return IterLimit
		}
	}
	return Optimal
}

// resync refactorizes the basis from scratch — the row etas and updated U,
// the carriers of all accumulated update error, are dropped and the LU
// rebuilt from the basis columns — then recomputes every basic value and the
// reduced-cost row from the fresh factors. A numerically singular basis
// leaves the state broken (see ensureFactor).
func (t *revised) resync() {
	t.factorStale = true
	t.refreshRed()
}

// verifyOptimal confirms a claimed optimum against the problem data itself:
// the structural point must satisfy every constraint row within an
// absolute 1e-6 and every basic value its bounds. The check is ground
// truth — it reads the caller's rows, not any engine state derived from
// the (possibly drifted) inverse. On violation the engine refactorizes the
// basis, resyncs, and re-optimizes, a bounded number of times; persistent
// failure is reported as IterLimit so no caller ever consumes an
// infeasible "optimum" (the warm path then falls back to a cold solve).
func (t *revised) verifyOptimal(budget *int) Status {
	for tries := 0; ; tries++ {
		if t.consistent(1e-6) {
			return Optimal
		}
		if tries == 2 {
			return IterLimit
		}
		// The retry's first refresh refactorizes from the basis columns; a
		// singular basis ends it in IterLimit.
		t.factorStale = true
		st := t.dualIterate(budget)
		if st == Optimal {
			st = t.checkDualFeasible()
		}
		if st != Optimal {
			return st
		}
	}
}

// consistent reports whether the current point satisfies the problem's
// rows (all a·x ≥ b; ResolveFrom admits no other) and the basic variables
// their bounds, all within tol. The row test is negated so that a NaN in
// the point fails it.
func (t *revised) consistent(tol float64) bool {
	for i := 0; i < t.m; i++ {
		v := t.xB[i]
		if v < -tol {
			return false
		}
		if ub := t.upper[t.basis[i]]; v > ub+tol {
			return false
		}
	}
	x := t.structuralX()
	p := t.p
	for i, cols := range p.rowCols {
		vals := p.rowVals[i]
		ax := 0.0
		for k, c := range cols {
			ax += vals[k] * x[c]
		}
		if !(ax >= p.b[i]-tol) {
			return false
		}
	}
	return true
}

// refreshXB recomputes every basic value from the inverse:
// x_B = B⁻¹·(rhs − Σ_{j nonbasic at upper} A_j·u_j). Only structural
// columns can rest at an upper bound; logical columns have none.
func (t *revised) refreshXB() {
	m := t.m
	r := t.y[:m] // scratch; refreshRed reloads it before use
	copy(r, t.p.b)
	for j := 0; j < t.n; j++ {
		if !t.atUpper[j] || t.inBasis[j] {
			continue
		}
		u := t.upper[j]
		rows, vals := t.colRows[j], t.colVals[j]
		for k, ri := range rows {
			r[ri] -= vals[k] * u
		}
	}
	t.f.ftran(r) // dense by design: the bound-adjusted rhs is dense
	t.kstats.noteFtran(false, 0)
	for i := 0; i < m; i++ {
		s := r[i]
		if s < 0 && s > -1e-9 {
			s = 0
		}
		t.xB[i] = s
	}
	// Basic values were re-derived wholesale; the dual working set must be
	// rebuilt before its invariant can be trusted again.
	t.rowListOK = false
}

// growCols appends k fresh logical column slots (zero cost, +Inf bound,
// nonbasic at lower) to the per-column state, reusing slice capacity when
// available so repeated cut appends amortize.
func (t *revised) growCols(k int) {
	old := len(t.cost)
	nt := old + k
	growF := func(s []float64, fill float64) []float64 {
		if cap(s) < nt {
			s2 := make([]float64, len(s), nt+nt/4+16)
			copy(s2, s)
			s = s2
		}
		s = s[:nt]
		for j := old; j < nt; j++ {
			s[j] = fill
		}
		return s
	}
	growB := func(s []bool) []bool {
		if cap(s) < nt {
			s2 := make([]bool, len(s), nt+nt/4+16)
			copy(s2, s)
			s = s2
		}
		s = s[:nt]
		for j := old; j < nt; j++ {
			s[j] = false
		}
		return s
	}
	t.cost = growF(t.cost, 0)
	t.upper = growF(t.upper, math.Inf(1))
	t.red = growF(t.red, 0)
	t.alpha = growF(t.alpha, 0)
	t.atUpper = growB(t.atUpper)
	t.inBasis = growB(t.inBasis)
	if cap(t.whereBasic) < nt {
		s2 := make([]int, len(t.whereBasic), nt+nt/4+16)
		copy(s2, t.whereBasic)
		t.whereBasic = s2
	}
	t.whereBasic = t.whereBasic[:nt]
	for j := old; j < nt; j++ {
		t.whereBasic[j] = -1
	}
}

// growRows makes room for one more row: the row-sized scratch vectors are
// extended (the factorization is rebuilt at the new dimension separately).
func (t *revised) growRows() {
	nm := t.m + 1
	growF := func(s []float64) []float64 {
		if cap(s) < nm {
			s2 := make([]float64, len(s), nm+nm/4+16)
			copy(s2, s)
			s = s2
		}
		return s[:nm]
	}
	t.w = growF(t.w)
	t.rho = growF(t.rho)
	t.y = growF(t.y)
	t.flipAcc = growF(t.flipAcc)
	t.flipSol = growF(t.flipSol)
	t.tau = growF(t.tau)
	if cap(t.inRowList) < nm {
		s2 := make([]bool, len(t.inRowList), nm+nm/4+16)
		copy(s2, t.inRowList)
		t.inRowList = s2
	}
	t.inRowList = t.inRowList[:nm]
	t.inRowList[nm-1] = false
	t.invalidateKernel()
}

// appendProblemCols incorporates structural columns added to the problem
// since the state was last solved (Problem.AddColumns). The per-column
// arrays keep structural columns first, so the surplus block shifts up by k,
// row i's surplus to the new n+i, and the basis entries that name a surplus
// are remapped. The new columns enter nonbasic at their lower bound with the
// bounds and costs the caller shaped after AddColumns; their reduced costs
// are derived at the refactorization this splice schedules (factorStale).
// A new column appears in no existing row, so its reduced cost is its cost,
// c_j ≥ 0, and the basis stays dual feasible. Nothing in row space moves:
// basic values, pricing weights and the dual working set stay valid; only
// the column-indexed pricing scratch restarts. Columns made by SplitColumn
// are then given their place next to the column they were split off (see
// splitCol).
func (t *revised) appendProblemCols() {
	p := t.p
	k := p.numVars - t.n
	if k <= 0 {
		return
	}
	oldN := t.n
	oldTotal := len(t.cost)
	t.growCols(k)
	// Shift the logical block [oldN, oldTotal) up by k, highest first so the
	// ranges may overlap. alpha is invariantly zero between pivots, so the
	// shifted region needs no copy there.
	for j := oldTotal - 1; j >= oldN; j-- {
		d := j + k
		t.cost[d] = t.cost[j]
		t.upper[d] = t.upper[j]
		t.red[d] = t.red[j]
		t.atUpper[d] = t.atUpper[j]
		t.inBasis[d] = t.inBasis[j]
		t.whereBasic[d] = t.whereBasic[j]
	}
	for j := oldN; j < oldN+k; j++ {
		t.cost[j] = p.c[j]
		u := math.Inf(1)
		if p.upper != nil {
			u = p.upper[j]
		}
		t.upper[j] = u
		t.red[j] = 0
		t.atUpper[j] = false
		t.inBasis[j] = false
		t.whereBasic[j] = -1
	}
	t.colRows = append(t.colRows, make([][]int32, k)...)
	t.colVals = append(t.colVals, make([][]float64, k)...)
	for i := range t.basis {
		if t.basis[i] >= oldN {
			t.basis[i] += k
		}
	}
	t.n = p.numVars
	if t.splits < len(p.splits) {
		var rows []int32
		for _, sp := range p.splits[t.splits:] {
			t.splitCol(sp)
			rows = append(rows, t.colRows[sp.to]...)
		}
		t.splits = len(p.splits)
		slices.Sort(rows)
		for _, i := range slices.Compact(rows) {
			t.rowRun[i] = compressRuns(p.rowCols[i], p.rowVals[i])
		}
	}
	// Column indices shifted: the touched-column scratch may hold stale
	// indices.
	t.touched = t.touched[:0]
	t.factorStale = true
}

// splitCol replays one SplitColumn on the engine state: column to takes a
// copy of from's entries in the engine's rows and the bound rest, and from
// the bound keep. The basis does not change, and to has from's cost and
// entries, so its reduced cost, which the next refresh derives, is from's:
// the state stays dual feasible. Its bound state keeps the point's row
// activities: next to a from at its upper bound, to rests at its upper
// bound too, so x_from + x_to is from's old bound; next to a from at zero
// or basic, to rests at zero. A basic x_from above keep is then a bound
// violation the dual simplex repairs, with to, whose reduced cost is 0,
// ready to take the excess. The caller refreshes the run form of every row
// the split column entered.
func (t *revised) splitCol(sp colSplit) {
	from, to := sp.from, sp.to
	t.upper[from], t.upper[to] = sp.keep, sp.rest
	t.atUpper[to] = t.atUpper[from] && !t.inBasis[from]
	t.colRows[to] = slices.Clone(t.colRows[from])
	t.colVals[to] = slices.Clone(t.colVals[from])
}

// appendProblemRows incorporates rows added to the problem since the state
// was last solved. Each row gets a fresh surplus column that enters the
// basis immediately, with its value computed from the current structural
// point, so a violated cut simply surfaces as a bound-infeasible basic
// surplus for the dual simplex to repair. The factorization is rebuilt once
// at the new dimension before the next solve — appends introduce no
// compounding transformation error.
func (t *revised) appendProblemRows() {
	if t.m == len(t.p.b) {
		return
	}
	xs := t.structuralX()
	for t.m < len(t.p.b) {
		t.appendRow(xs)
	}
	t.factorStale = true
}

// appendRow splices Problem row i = t.m, a·x ≥ b, into the state as given,
// a·x − s = b, like a cold row: its surplus (coefficient −1) is column n+i,
// the next one, basic at a·x − b.
func (t *revised) appendRow(xs []float64) {
	i := t.m
	cols, vals := t.p.rowCols[i], t.p.rowVals[i]
	s := t.n + i
	t.growCols(1)
	t.rowRun = append(t.rowRun, compressRuns(cols, vals))
	for k, c := range cols {
		// Grow column slices with explicit headroom: repeated cut appends
		// touch the same columns round after round, and Go's small-slice
		// doubling would reallocate on nearly every early append.
		if len(t.colRows[c]) == cap(t.colRows[c]) {
			nc := make([]int32, len(t.colRows[c]), 2*cap(t.colRows[c])+8)
			copy(nc, t.colRows[c])
			t.colRows[c] = nc
			nv := make([]float64, len(t.colVals[c]), cap(nc))
			copy(nv, t.colVals[c])
			t.colVals[c] = nv
		}
		t.colRows[c] = append(t.colRows[c], int32(i))
		t.colVals[c] = append(t.colVals[c], vals[k])
	}
	t.growRows()
	ax := 0.0
	for k, c := range cols {
		ax += vals[k] * xs[c]
	}
	t.xB = append(t.xB, ax-t.p.b[i])
	t.basis = append(t.basis, s)
	t.inBasis[s] = true
	t.whereBasic[s] = i
	t.dseW = append(t.dseW, -1) // priced lazily by ensureWeights
	t.m++
}

// removeRows excises the given rows from the live simplex state in place.
// Legal only for rows whose surplus column is currently basic — for a
// zero-cost unit column −e_r to be basic its dual price must be zero
// (red = 0 + y_r), so dropping constraint row r together
// with that basis member changes neither the remaining duals nor any
// remaining basic value, and the cofactor expansion of det(B) along the
// unit column shows the reduced basis stays nonsingular. The state is
// therefore still optimal for the reduced problem; only the factorization
// must be rebuilt, which the next solve does once.
//
// A row that is strictly slack at the current optimum always qualifies: a
// nonbasic logical rests at zero, so a positive surplus value forces the
// logical into the basis.
func (t *revised) removeRows(drop []int) error {
	// Validate every drop before mutating anything (RemoveRows has checked
	// the indices; a duplicate marks the same row and position twice).
	n, m := t.n, t.m
	deadRow := make([]bool, m)
	deadPos := make([]bool, m)
	for _, r := range drop {
		if !t.inBasis[n+r] {
			return fmt.Errorf("lp: row %d is tight at the current basis; only slack rows can be removed", r)
		}
		deadRow[r] = true
		deadPos[t.whereBasic[n+r]] = true
	}

	// Row-indexed state, with each surviving row's surplus moving from n+r
	// to n+rowMap[r]. Every surplus has cost 0, no upper bound and rests at
	// its lower bound when nonbasic, and alpha is zero between pivots, so
	// only the reduced cost and the basis flag move.
	rowMap := make([]int32, m)
	nr := 0
	for r := 0; r < m; r++ {
		if deadRow[r] {
			rowMap[r] = -1
			continue
		}
		rowMap[r] = int32(nr)
		t.rowRun[nr] = t.rowRun[r]
		t.red[n+nr] = t.red[n+r]
		t.inBasis[n+nr] = t.inBasis[n+r]
		nr++
	}
	t.rowRun = t.rowRun[:nr]
	nc := n + nr
	t.cost = t.cost[:nc]
	t.upper = t.upper[:nc]
	t.red = t.red[:nc]
	t.alpha = t.alpha[:nc]
	t.atUpper = t.atUpper[:nc]
	t.inBasis = t.inBasis[:nc]

	// Per-structural-column row lists.
	for j := 0; j < n; j++ {
		rows, vals := t.colRows[j], t.colVals[j]
		out := 0
		for k, r := range rows {
			if nrr := rowMap[r]; nrr >= 0 {
				rows[out], vals[out] = nrr, vals[k]
				out++
			}
		}
		t.colRows[j] = rows[:out]
		t.colVals[j] = vals[:out]
	}

	// Basis positions: drop the removed rows' basic surpluses, keep every
	// surviving basic value bit-for-bit. Pricing weights compact the same
	// way and stay exact: with the dead position holding a unit column,
	// the inverse is block triangular and each surviving row of the
	// reduced inverse is the old row restricted to surviving columns,
	// whose extra entries were all zero — the norms do not change.
	np := 0
	for p := 0; p < m; p++ {
		if deadPos[p] {
			continue
		}
		c := t.basis[p]
		if c >= n {
			c = n + int(rowMap[c-n])
		}
		t.basis[np] = c
		t.xB[np] = t.xB[p]
		t.dseW[np] = t.dseW[p]
		np++
	}
	t.basis = t.basis[:np]
	t.xB = t.xB[:np]
	t.dseW = t.dseW[:np]
	// Basis positions shifted, so the dual working set and the kernel
	// scratch supports restart.
	t.rowList = t.rowList[:0]
	for i := range t.inRowList {
		t.inRowList[i] = false
	}
	t.invalidateKernel()
	t.m = np
	t.whereBasic = t.whereBasic[:nc]
	for j := range t.whereBasic {
		t.whereBasic[j] = -1
	}
	for p, c := range t.basis {
		t.whereBasic[c] = p
	}
	t.factorStale = true
	return nil
}

// structuralX extracts the structural variable values from the basis and
// bound states.
func (t *revised) structuralX() []float64 {
	x := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		if t.atUpper[j] && !t.inBasis[j] {
			x[j] = t.upper[j]
		}
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.n {
			x[t.basis[i]] = t.xB[i]
		}
	}
	for j := range x {
		if x[j] < 0 && x[j] > -1e-7 {
			x[j] = 0
		}
	}
	return x
}
