package lp

import (
	"math"
	"math/bits"
)

// factor is the factorized representation of the basis: a sparse LU
// factorization of the basis matrix as of the last refactorization, kept
// current across basis changes by Forrest–Tomlin updates that rewrite U in
// place. Every B⁻¹·v product is an FTRAN (forward solve through L, the
// row-eta list, and the updated U) and every vᵀ·B⁻¹ product a BTRAN (the
// same chain transposed, in reverse), so per-pivot work tracks the sparsity
// of the factors; nothing of size m² is ever stored.
//
// # Factorization
//
// refactorize performs a left-looking sparse LU with a static Markowitz-style
// column ordering (basis columns processed in ascending nonzero count, which
// claims the unit logical columns first — on covering masters they are the
// bulk of the basis and generate no fill) and partial pivoting by largest
// residual magnitude within the column. Each column pays only for its
// reach: the steps that claimed a row of its scattered pattern, closed over
// the claimed rows their L columns touch (always later steps), popped in
// ascending step order from the bitReach mirror. Those are exactly the
// steps whose pivot row can be nonzero, so the updates run in the order and
// with the float operations of a scan over every earlier step, at the cost
// of the few that apply. Two index spaces meet here: basis
// *positions* (which slot of the basis a column occupies — the space xB and
// FTRAN results live in) and engine *rows* (the constraint-row space BTRAN
// results and right-hand sides live in). perm maps elimination step to the
// pivot's engine row, cperm to its basis position; the triangular solves
// translate between the spaces so callers never see elimination order.
//
// # Forrest–Tomlin update
//
// Elimination steps are permanent *slots*: perm, cperm, rowStep and posStep
// never change between refactorizations, and a separate cyclic triangular
// order (ordSlot/slotOrd, the identity at refactorization) records where
// each slot currently stands in U's triangle. When column q enters the basis
// at position p, the slot kp = posStep[p] has its U column replaced by the
// entering column's *spike* — L̄⁻¹·A_q, the entering FTRAN's intermediate
// after the L solve and the accumulated row etas, stashed by ftranSparse
// before its U phase — and kp rotates to the end of the order. The
// replacement leaves row kp's old entries as a bump below the new diagonal;
// ftUpdate eliminates the bump by solving μᵀ·U_sub = (row kp)ᵀ over the
// columns ordered after kp and records the multipliers as one short row-eta
// transform M = I − e_kp·μᵀ, so B = L̄·U stays factored with
// L̄⁻¹ = M_k·…·M_1·L⁻¹. FTRAN applies the row etas oldest-first between L and U;
// BTRAN applies their transposes newest-first between Uᵀ and Lᵀ. The
// per-pivot state is one row eta whose support is the *eliminated row
// remainder* — typically a handful of entries — so neither solve direction
// pays a pass whose length grows with the pivots since the refactorization.
//
// U's mutable columns live in per-slot slice headers (ucRows/ucVals) into
// the refactorization arena or, once replaced, the spike arena; the
// row-major pattern (rcOff/rcLen/rcCap into rcArena) tracks, per row slot,
// the columns that may contain it. Row lists are *stale-tolerated*: a
// deleted or replaced entry's back-reference is dropped lazily, because a
// symbolic overestimate only costs work, never correctness — the reach
// closures treat them as pattern supersets, and the update filters
// candidates to the live triangle by order. When a spike's eliminated
// diagonal falls below ftPivotTol (relative to the spike's magnitude),
// ftUpdate refuses before mutating anything and the engine refactorizes
// from the post-pivot basis instead, counted in KernelStats.ForcedRefactors.
//
// # Storage
//
// All factor content lives in shared arenas (offset-indexed backing slices)
// owned by the struct and reset, not reallocated, at each refactorization —
// steady-state pivoting and periodic refactorization are allocation-free
// once the arenas have warmed up. (The spike and row-list arenas may grow
// between refactorizations when updates out-fill their headroom; relocated
// regions leak until the next fold.)
type factor struct {
	m int

	// LU of the refactorization-time basis B0.
	perm    []int32   // elimination step -> engine row of the pivot
	cperm   []int32   // elimination step -> basis position eliminated
	rowStep []int32   // engine row -> elimination step (inverse of perm)
	uDiag   []float64 // pivot values, by step

	// L (unit lower triangular) multipliers, column-major by step: column k
	// holds the rows still unclaimed at step k, arena range lOff[k]..lOff[k+1].
	lOff []int32
	lRow []int32 // engine rows
	lVal []float64

	// U above-diagonal entries, column-major by step: column k holds its
	// entries at earlier steps, arena range uOff[k]..uOff[k+1].
	uOff  []int32
	uStep []int32 // earlier elimination steps
	uVal  []float64

	luNNZ int // nonzeros in L+U at the last refactorization

	// Scratch for the solves and the factorization, length m, plus the
	// column-pattern worklist. xwork and swork must be all-zero between
	// uses (every solve path, dense included, restores swork on exit).
	xwork  []float64
	swork  []float64
	patt   []int32
	order  []int32 // column processing order scratch
	counts []int32 // counting-sort scratch for the column ordering

	// Hypersparse solve support (see the kernel section of the package
	// comment). The derived adjacency below is rebuilt by refactorize;
	// the mark array is stamp-versioned so solves never re-zero it.
	posStep []int32 // basis position -> elimination step (inverse of cperm)
	lStep   []int32 // lRow mapped through rowStep: L column adjacency in step space
	urOff   []int32 // row-major U pattern at refactorization (seeds the row lists)
	urAdj   []int32
	lrOff   []int32 // row-major L pattern: step j -> earlier columns holding j's pivot row
	lrAdj   []int32
	mark    []int32 // step-space visit stamps for the reach traversal
	stamp   int32
	reach   []int32 // reach worklist scratch, elimination steps

	// Bit mirrors of the reach and result-support memberships, kept
	// all-zero between uses. They exist purely for sorted emission:
	// sweeping ⌈m/64⌉ words ascending replaces the comparison sorts the
	// bit-identity contract demands (reaches must be processed in
	// elimination-step order, supports returned ascending) at O(m/64 + k)
	// instead of O(k log k). Every exit path restores the all-zero state —
	// sweepBits clears as it emits, fallbacks clear through the list.
	// refactorize sizes both and borrows bitReach as each column's reach,
	// popping every bit before it pivots (the singular bail included).
	bitReach []uint64 // step-space mirror of f.reach, or of a refactorized column's reach
	bitOut   []uint64 // position/row-space mirror of a result support

	// denseRun counts consecutive dense-outcome FTRANs per caller class.
	// Aborting a reach traversal costs real work (the L reach may be fully
	// expanded and solved before the U closure blows the cap), so once a
	// class is in a dense regime the solver stops attempting reaches and
	// only probes periodically; a hyper success resets the run. Pure cost
	// control: either path yields bit-identical results.
	denseRun [ftranClasses]int

	// forceDense routes every solve down the dense kernels — the test hook
	// behind Problem.SetDenseKernels. Both paths are bit-identical by
	// construction (the equivalence suite asserts identical pivot
	// sequences), so flipping this changes cost, never results.
	forceDense bool

	// stats, when set, receives the kernel counters the factor maintains
	// itself (FT updates, spike fill, peak fill). It is fixed for the life
	// of the owning engine state.
	stats *KernelStats

	// Forrest–Tomlin state, rebuilt by initFT at every refactorization.
	ordSlot []int32 // triangular order -> slot (identity at refactorization)
	slotOrd []int32 // slot -> triangular order
	// U's mutable columns, one header per slot: the off-diagonal entries
	// (row slots + values) of the column currently owned by the slot,
	// pointing into the refactorization arena (uStep/uVal) until the column
	// is replaced by a spike, then into the spike arena.
	ucRows  [][]int32
	ucVals  [][]float64
	spkRows []int32
	spkVals []float64
	// Row-major U pattern, per row slot: the columns that may contain the
	// row (stale-tolerated superset; see the package comment). Offset/len/
	// cap per slot into rcArena, with slack so appends rarely relocate.
	rcOff   []int32
	rcLen   []int32
	rcCap   []int32
	rcArena []int32
	// Row etas, oldest first: eta e eliminates row slot retaRow[e] with
	// multipliers retaVal over support slots retaIdx, range
	// retaOff[e]..retaOff[e+1]. Identity etas (empty bumps) are not stored.
	retaRow []int32
	retaOff []int32
	retaIdx []int32
	retaVal []float64
	// The stashed spike of the last entering-column FTRAN: L̄⁻¹·A_q as
	// (slot, value) pairs ascending slot, identical no matter which kernel
	// path captured it. spikeOK arms ftUpdate and is consumed by it.
	spikeInd []int32
	spikeVal []float64
	spikeOK  bool
	// Update-side scratch and fold-policy gauges.
	upCols    []int32 // seed columns of the current bump elimination
	upIdx     []int32 // index of the eliminated row's entry within each
	upProc    []int32 // candidate slots processed (for scratch restore)
	ftUpdates int     // updates applied since the last refactorization
	uNNZ      int     // current off-diagonal U nonzeros (maintained by updates)
}

// FTRAN caller classes for the dense-regime predictor: the entering
// column, the steepest-edge tau solve, and the batched bound-flip solve
// have very different right-hand-side sparsity, so each class tracks its
// own regime (a shared run would flap between a sparse entering stream
// and a dense tau stream and predict neither).
const (
	ftranEnter = iota
	ftranTau
	ftranFlip
	ftranClasses
)

// Dense-regime predictor tuning: a class enters the dense regime after
// hyperRunMin consecutive dense outcomes and then attempts a reach only
// every hyperProbeEvery calls.
const (
	hyperRunMin     = 4
	hyperProbeEvery = 16
)

// Hypersparse path tuning.
const (
	// hyperMinDim: below this dimension the dense kernels win outright and
	// every solve takes the dense path.
	hyperMinDim = 64
	// hyperDenseDiv: a reach traversal aborts to the dense path once the
	// tracked closure exceeds m/hyperDenseDiv (~25% of m), so worst-case
	// right-hand sides never pay index overhead on top of dense work.
	hyperDenseDiv = 4
)

// basisMatrix is what refactorize needs from the engine: the sparse columns
// of the current basis, one per basis position. It is an interface rather
// than a pair of callbacks so that refactorization allocates no closures.
type basisMatrix interface {
	// basisColNNZ reports the nonzero count of the column at position p.
	basisColNNZ(p int) int
	// scatterBasisColumn adds the column at position p into the dense
	// engine-row-indexed accumulator x, appending each row whose value was
	// zero before the add to patt, and returns the extended pattern.
	scatterBasisColumn(p int, x []float64, patt []int32) []int32
}

// singularTol is the smallest pivot magnitude refactorize accepts. A basis
// whose best remaining pivot falls below it is reported as numerically
// singular and the previous representation is kept (the engine's verify /
// cold-fallback layers take it from there).
const singularTol = 1e-11

// Forrest–Tomlin tuning.
const (
	// ftPivotTol is the stability floor of the update: a spike whose
	// eliminated diagonal has magnitude below ftPivotTol·(1 + max|spike|)
	// would poison every later solve, so ftUpdate refuses (mutating
	// nothing) and the engine refactorizes instead.
	ftPivotTol = 1e-10
	// Fold policy: refactorize after maxFTUpdates in-place updates, or
	// when the updated U plus its row etas outgrow ftFillBloat times the
	// refactorization-time factor fill. The solve cost does not grow per
	// pivot, so only fill and accumulated roundoff need bounding — and the
	// update count doubles as the trajectory lever on the massively
	// degenerate covering masters, where small rounding differences steer
	// tie-breaks into different pivot-count basins. Each fold also
	// re-derives the basic values and reduced costs, so it is the engine's
	// periodic refresh too. With this cadence the canonical endurance
	// instances take 1,698 pivots at T = 16384 and 2,905 at T = 32768;
	// cadences of 32 and 64 take 1,762 and 2,890–2,944, with fewer
	// refactorizations and no measured change in wall time.
	maxFTUpdates = 16
	ftFillBloat  = 8
)

// reset prepares the factor for a refactorization at dimension m, reusing
// arena capacity.
func (f *factor) reset(m int) {
	f.m = m
	f.perm = f.perm[:0]
	f.cperm = f.cperm[:0]
	f.rowStep = growI32(f.rowStep, m)
	for i := range f.rowStep {
		f.rowStep[i] = -1
	}
	f.uDiag = f.uDiag[:0]
	f.lOff = growI32(f.lOff, 1)
	f.lOff[0] = 0
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uOff = growI32(f.uOff, 1)
	f.uOff[0] = 0
	f.uStep = f.uStep[:0]
	f.uVal = f.uVal[:0]
	if cap(f.xwork) < m {
		f.xwork = make([]float64, m, m+m/4+16)
		f.swork = make([]float64, m, m+m/4+16)
	} else {
		f.xwork = f.xwork[:m]
		f.swork = f.swork[:m]
		for i := range f.xwork {
			f.xwork[i] = 0
		}
		for i := range f.swork {
			f.swork[i] = 0
		}
	}
	f.patt = f.patt[:0]
}

// growI32 resizes an int32 arena slice to n, reusing capacity.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/4+16)
	}
	return s[:n]
}

// refactorize builds a fresh LU of the basis described by src. It reports
// false when the basis is numerically singular, leaving the factor unusable
// (callers must not solve with it until a refactorization succeeds).
func (f *factor) refactorize(m int, src basisMatrix) bool {
	f.reset(m)
	// Static Markowitz-style ordering: columns by ascending nonzero count,
	// ties by position for determinism. Counting sort — counts are tiny.
	if cap(f.order) < m {
		f.order = make([]int32, m, m+m/4+16)
	}
	order := f.order[:m]
	maxN := 0
	for p := 0; p < m; p++ {
		if c := src.basisColNNZ(p); c > maxN {
			maxN = c
		}
	}
	if cap(f.counts) < maxN+2 {
		f.counts = make([]int32, maxN+2, maxN+maxN/4+18)
	}
	counts := f.counts[:maxN+2]
	for c := range counts {
		counts[c] = 0
	}
	for p := 0; p < m; p++ {
		counts[src.basisColNNZ(p)+1]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	for p := 0; p < m; p++ {
		c := src.basisColNNZ(p)
		order[counts[c]] = int32(p)
		counts[c]++
	}

	// Bit mirrors hold the all-zero invariant between uses, so growth can
	// reallocate without copying the old words.
	if nw := (m + 63) / 64; len(f.bitReach) < nw {
		f.bitReach = make([]uint64, nw+nw/4+8)
		f.bitOut = make([]uint64, len(f.bitReach))
	}
	x, bs := f.xwork, f.bitReach
	for _, p32 := range order {
		p := int(p32)
		k := len(f.perm)
		// Scatter the column, engine-row indexed, and seed the reach with
		// the steps that claimed its rows.
		f.patt = src.scatterBasisColumn(p, x, f.patt[:0])
		lo, hi := k, -1
		for _, r := range f.patt {
			if q := int(f.rowStep[r]); q >= 0 {
				bs[q>>6] |= 1 << (uint(q) & 63)
				lo, hi = min(lo, q), max(hi, q)
			}
		}
		// Apply the completed elimination steps in the column's reach, in
		// step order (see the package comment). A step's update marks the
		// claimed rows of its L column, all at later steps, so the ascending
		// sweep pops them after it; popping clears the mirror as it goes.
		for w := lo >> 6; w <= hi>>6; w++ {
			for bs[w] != 0 {
				b := bits.TrailingZeros64(bs[w])
				bs[w] &^= 1 << uint(b)
				q := w<<6 | b
				zq := x[f.perm[q]]
				if zq == 0 {
					continue
				}
				f.uStep = append(f.uStep, int32(q))
				f.uVal = append(f.uVal, zq)
				for e := f.lOff[q]; e < f.lOff[q+1]; e++ {
					r := f.lRow[e]
					if x[r] == 0 {
						f.patt = append(f.patt, r)
					}
					x[r] -= f.lVal[e] * zq
					if s := int(f.rowStep[r]); s >= 0 {
						bs[s>>6] |= 1 << (uint(s) & 63)
						hi = max(hi, s)
					}
				}
			}
		}
		f.uOff = append(f.uOff, int32(len(f.uStep)))
		// Partial pivoting over the unclaimed rows.
		piv, best := int32(-1), singularTol
		for _, r := range f.patt {
			if f.rowStep[r] >= 0 {
				continue
			}
			if a := math.Abs(x[r]); a > best {
				piv, best = r, a
			}
		}
		if piv < 0 {
			// Singular: clear scratch and bail.
			for _, r := range f.patt {
				x[r] = 0
			}
			return false
		}
		d := x[piv]
		f.perm = append(f.perm, piv)
		f.cperm = append(f.cperm, int32(p))
		f.rowStep[piv] = int32(k)
		f.uDiag = append(f.uDiag, d)
		// Build the L column and zero the scratch in one pass. Zeroing on
		// first visit also neutralizes duplicate pattern entries (a value
		// that cancelled to exactly zero mid-sweep and was re-added).
		for _, r := range f.patt {
			xr := x[r]
			x[r] = 0
			if xr == 0 || f.rowStep[r] >= 0 {
				continue
			}
			f.lRow = append(f.lRow, r)
			f.lVal = append(f.lVal, xr/d)
		}
		f.lOff = append(f.lOff, int32(len(f.lRow)))
	}
	f.luNNZ = len(f.lRow) + len(f.uStep) + m
	f.buildReachAdjacency()
	f.initFT()
	return true
}

// initFT derives the Forrest–Tomlin working state from a fresh LU: identity
// triangular order, per-slot U column headers into the refactorization
// arena, and the growable row lists seeded from the transposed U pattern.
// Runs once per refactorization, O(m + nnz(U)).
func (f *factor) initFT() {
	m := f.m
	f.ordSlot = growI32(f.ordSlot, m)
	f.slotOrd = growI32(f.slotOrd, m)
	for k := 0; k < m; k++ {
		f.ordSlot[k] = int32(k)
		f.slotOrd[k] = int32(k)
	}
	if cap(f.ucRows) < m {
		f.ucRows = make([][]int32, m, m+m/4+16)
		f.ucVals = make([][]float64, m, m+m/4+16)
	} else {
		f.ucRows = f.ucRows[:m]
		f.ucVals = f.ucVals[:m]
	}
	for k := 0; k < m; k++ {
		lo, hi := f.uOff[k], f.uOff[k+1]
		f.ucRows[k] = f.uStep[lo:hi:hi]
		f.ucVals[k] = f.uVal[lo:hi:hi]
	}
	// Row lists: the transposed pattern built by buildReachAdjacency, copied
	// with a little per-row slack so the first spike appends stay in place.
	f.rcOff = growI32(f.rcOff, m)
	f.rcLen = growI32(f.rcLen, m)
	f.rcCap = growI32(f.rcCap, m)
	const rcSlack = 2
	need := len(f.urAdj) + rcSlack*m
	if cap(f.rcArena) < need {
		f.rcArena = make([]int32, 0, need+need/4+16)
	}
	f.rcArena = f.rcArena[:0]
	for r := 0; r < m; r++ {
		lo, hi := f.urOff[r], f.urOff[r+1]
		f.rcOff[r] = int32(len(f.rcArena))
		f.rcLen[r] = hi - lo
		f.rcCap[r] = hi - lo + rcSlack
		f.rcArena = append(f.rcArena, f.urAdj[lo:hi]...)
		for s := 0; s < rcSlack; s++ {
			f.rcArena = append(f.rcArena, 0)
		}
	}
	f.retaRow = f.retaRow[:0]
	if f.retaOff == nil {
		f.retaOff = make([]int32, 1, 64)
	}
	f.retaOff = f.retaOff[:1]
	f.retaOff[0] = 0
	f.retaIdx = f.retaIdx[:0]
	f.retaVal = f.retaVal[:0]
	f.spkRows = f.spkRows[:0]
	f.spkVals = f.spkVals[:0]
	f.uNNZ = len(f.uStep)
	f.ftUpdates = 0
	f.spikeOK = false
}

// rcAppend records that column c (now) contains row slot r, relocating the
// row's list to the arena tail with doubled capacity when it is full (the
// abandoned region leaks until the next refactorization resets the arena).
func (f *factor) rcAppend(r, c int32) {
	if f.rcLen[r] == f.rcCap[r] {
		n := f.rcLen[r]
		newCap := n*2 + 4
		start := int32(len(f.rcArena))
		f.rcArena = append(f.rcArena, f.rcArena[f.rcOff[r]:f.rcOff[r]+n]...)
		for i := n; i < newCap; i++ {
			f.rcArena = append(f.rcArena, 0)
		}
		f.rcOff[r] = start
		f.rcCap[r] = newCap
	}
	f.rcArena[f.rcOff[r]+f.rcLen[r]] = c
	f.rcLen[r]++
}

// buildReachAdjacency derives the pattern structures the hypersparse reach
// traversals need from a fresh LU: the cperm inverse, the L column patterns
// mapped to step space, and row-major (transposed, pattern-only) views of L
// and U for the BTRAN-side closures. Runs once per refactorization, O(m +
// nnz(L+U)).
func (f *factor) buildReachAdjacency() {
	m := f.m
	f.posStep = growI32(f.posStep, m)
	for k := 0; k < m; k++ {
		f.posStep[f.cperm[k]] = int32(k)
	}
	f.lStep = growI32(f.lStep, len(f.lRow))
	for e, r := range f.lRow {
		f.lStep[e] = f.rowStep[r]
	}
	f.urOff, f.urAdj = transposePattern(m, f.uOff, f.uStep, f.urOff, f.urAdj)
	f.lrOff, f.lrAdj = transposePattern(m, f.lOff, f.lStep, f.lrOff, f.lrAdj)
	// Mark arrays track visits by stamp: slots freshly zeroed by growth can
	// never match a bumped stamp, so no per-solve clearing is needed.
	f.mark = growI32(f.mark, m)
	// A fresh factorization drops the row etas, so every class gets a
	// fresh shot at the hyper path.
	f.denseRun = [ftranClasses]int{}
}

// sweepBits rebuilds list as the ascending set bits of bs, clearing bs as
// it sweeps. bs must mirror list's membership exactly; the sweep is the
// sorted-emission replacement for sorting the unordered list.
func sweepBits(bs []uint64, list []int32) []int32 {
	list = list[:0]
	for w, word := range bs {
		if word == 0 {
			continue
		}
		bs[w] = 0
		base := int32(w << 6)
		for word != 0 {
			list = append(list, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return list
}

// setBitList re-marks list's members after an intermediate sweep consumed
// them (the reach is sorted once mid-solve and swept again after closure).
func setBitList(bs []uint64, list []int32) {
	for _, k := range list {
		bs[k>>6] |= 1 << (uint32(k) & 63)
	}
}

// clearBitList restores the all-zero invariant on a fallback path, where
// the accumulated list is abandoned before any clearing sweep runs.
func clearBitList(bs []uint64, list []int32) {
	for _, k := range list {
		bs[k>>6] &^= 1 << (uint32(k) & 63)
	}
}

// transposePattern builds the pattern-only CSR transpose of (off, adj) over
// m nodes into the reusable arenas (tOff, tAdj).
func transposePattern(m int, off, adj []int32, tOff, tAdj []int32) ([]int32, []int32) {
	tOff = growI32(tOff, m+1)
	for j := 0; j <= m; j++ {
		tOff[j] = 0
	}
	for _, j := range adj {
		tOff[j+1]++
	}
	for j := 0; j < m; j++ {
		tOff[j+1] += tOff[j]
	}
	tAdj = growI32(tAdj, len(adj))
	for k := 0; k < m; k++ {
		for e := off[k]; e < off[k+1]; e++ {
			j := adj[e]
			tAdj[tOff[j]] = int32(k)
			tOff[j]++
		}
	}
	for j := m; j > 0; j-- {
		tOff[j] = tOff[j-1]
	}
	tOff[0] = 0
	return tOff, tAdj
}

// newStamp advances the step-space visit stamp, clearing the mark array on
// the int32 wraparound, which a long-lived state reaches after about 2³¹
// solves. The clear covers the whole backing array: entries past len(mark)
// keep the stamps of a larger earlier dimension, and a restarted stamp
// would match them once the dimension grows back.
func (f *factor) newStamp() {
	if f.stamp == math.MaxInt32 {
		clear(f.mark[:cap(f.mark)])
		f.stamp = 0
	}
	f.stamp++
}

// expandReach closes the pre-seeded, pre-marked worklist f.reach over the
// CSR pattern (off, adj), appending newly reached steps. It reports false —
// the dense-fallback signal — once the closure would exceed capN steps.
func (f *factor) expandReach(off, adj []int32, capN int) bool {
	reach, mark, stamp := f.reach, f.mark, f.stamp
	bs := f.bitReach
	for head := 0; head < len(reach); head++ {
		k := reach[head]
		for e := off[k]; e < off[k+1]; e++ {
			s := adj[e]
			if mark[s] != stamp {
				mark[s] = stamp
				if len(reach) >= capN {
					f.reach = reach
					return false
				}
				bs[s>>6] |= 1 << (uint32(s) & 63)
				reach = append(reach, s)
			}
		}
	}
	f.reach = reach
	return true
}

// ftran solves B·x = v in place through the dense kernels: on entry v holds
// a right-hand side indexed by engine row; on return it holds the solution
// indexed by basis position. The hypersparse entry point is ftranSparse;
// this dense chain doubles as its fallback, phase by phase.
func (f *factor) ftran(v []float64) {
	f.ftranDense(v, false)
}

// ftranDense is the dense FTRAN chain: L, then the row etas, then the
// updated U. With capture set (an entering-column solve) it stashes the
// spike — the intermediate between the row etas and the U solve — for the
// ftUpdate that pivot will request.
func (f *factor) ftranDense(v []float64, capture bool) {
	f.ftranLDense(v)
	f.ftranRetasDense(v)
	if capture {
		f.spikeInd = f.spikeInd[:0]
		f.spikeVal = f.spikeVal[:0]
		for k := 0; k < f.m; k++ {
			if sv := v[f.perm[k]]; sv != 0 {
				f.spikeInd = append(f.spikeInd, int32(k))
				f.spikeVal = append(f.spikeVal, sv)
			}
		}
		f.spikeOK = true
	}
	f.ftranUDense(v)
}

// ftranLDense is the dense forward solve through L (engine-row space).
func (f *factor) ftranLDense(v []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		zk := v[f.perm[k]]
		if zk == 0 {
			continue
		}
		for e := f.lOff[k]; e < f.lOff[k+1]; e++ {
			v[f.lRow[e]] -= f.lVal[e] * zk
		}
	}
}

// ftranRetasDense applies the row etas, oldest first: each transform
// M = I − e_r·μᵀ acts on the engine-row-indexed intermediate through perm.
func (f *factor) ftranRetasDense(v []float64) {
	for e := 0; e < len(f.retaRow); e++ {
		s := 0.0
		for q := f.retaOff[e]; q < f.retaOff[e+1]; q++ {
			s += f.retaVal[q] * v[f.perm[f.retaIdx[q]]]
		}
		v[f.perm[f.retaRow[e]]] -= s
	}
}

// ftranUDense is the dense backward solve through the updated U, walked in
// the mutable triangular order through the per-slot column headers; the
// result is gathered into scratch by slot, then scattered to basis
// positions. It restores the swork all-zero invariant on exit.
func (f *factor) ftranUDense(v []float64) {
	m := f.m
	y := f.swork
	for oi := m - 1; oi >= 0; oi-- {
		k := f.ordSlot[oi]
		pv := v[f.perm[k]]
		if pv == 0 {
			y[k] = 0
			continue
		}
		yk := pv / f.uDiag[k]
		y[k] = yk
		rows, vals := f.ucRows[k], f.ucVals[k]
		for e, r := range rows {
			v[f.perm[r]] -= vals[e] * yk
		}
	}
	for k := 0; k < m; k++ {
		v[f.cperm[k]] = y[k]
		y[k] = 0
	}
}

// btran solves Bᵀ·y = v in place through the dense kernels: on entry v is
// indexed by basis position; on return it holds the solution indexed by
// engine row. btranSparse is the hypersparse entry point; these phases
// double as its fallback.
func (f *factor) btran(v []float64) {
	f.btranUTDense(v)
	f.btranRetasOnZ()
	f.btranLTDense(v)
}

// btranUTDense is the dense forward solve through the updated Uᵀ, walked in
// the mutable triangular order through the per-slot column headers,
// gathered into swork (slot space).
func (f *factor) btranUTDense(v []float64) {
	m := f.m
	z := f.swork
	for oi := 0; oi < m; oi++ {
		k := f.ordSlot[oi]
		zk := v[f.cperm[k]]
		rows, vals := f.ucRows[k], f.ucVals[k]
		for e, r := range rows {
			zk -= vals[e] * z[r]
		}
		z[k] = zk / f.uDiag[k]
	}
}

// btranRetasOnZ applies the row-eta transposes, newest first, on the
// slot-space intermediate in swork (between the Uᵀ and Lᵀ phases).
func (f *factor) btranRetasOnZ() {
	z := f.swork
	for e := len(f.retaRow) - 1; e >= 0; e-- {
		zr := z[f.retaRow[e]]
		if zr == 0 {
			continue
		}
		for q := f.retaOff[e]; q < f.retaOff[e+1]; q++ {
			z[f.retaIdx[q]] -= f.retaVal[q] * zr
		}
	}
}

// btranLTDense is the dense backward solve through Lᵀ plus the scatter to
// engine rows. It restores the swork all-zero invariant on exit.
func (f *factor) btranLTDense(v []float64) {
	m := f.m
	z := f.swork
	for k := m - 1; k >= 0; k-- {
		yk := z[k]
		for e := f.lOff[k]; e < f.lOff[k+1]; e++ {
			yk -= f.lVal[e] * z[f.rowStep[f.lRow[e]]]
		}
		z[k] = yk
	}
	for k := 0; k < m; k++ {
		v[f.perm[k]] = z[k]
		z[k] = 0
	}
}

// expandReachUCols closes the pre-seeded, pre-marked worklist f.reach over
// the updated U's per-slot column patterns, setting bits as it appends. It
// reports false once the closure would exceed capN.
func (f *factor) expandReachUCols(capN int) bool {
	reach, mark, stamp := f.reach, f.mark, f.stamp
	bs := f.bitReach
	for head := 0; head < len(reach); head++ {
		for _, s := range f.ucRows[reach[head]] {
			if mark[s] != stamp {
				mark[s] = stamp
				if len(reach) >= capN {
					f.reach = reach
					return false
				}
				bs[s>>6] |= 1 << (uint32(s) & 63)
				reach = append(reach, s)
			}
		}
	}
	f.reach = reach
	return true
}

// expandReachRows closes f.reach over the stale-tolerated row lists — the
// influence direction of Uᵀ (a nonzero at row slot k feeds every column
// that contains k). Stale entries only overestimate the pattern, which the
// numeric pass resolves to exact zeros. Mark-only (no bits: the caller
// sorts by triangular order afterwards); reports false past capN.
func (f *factor) expandReachRows(capN int) bool {
	reach, mark, stamp := f.reach, f.mark, f.stamp
	for head := 0; head < len(reach); head++ {
		k := reach[head]
		lo := f.rcOff[k]
		for _, s := range f.rcArena[lo : lo+f.rcLen[k]] {
			if mark[s] != stamp {
				mark[s] = stamp
				if len(reach) >= capN {
					f.reach = reach
					return false
				}
				reach = append(reach, s)
			}
		}
	}
	f.reach = reach
	return true
}

// sortReachByOrd reorders f.reach (slots, bit-free) ascending by the
// mutable triangular order: slot bits are consumed if still set, order bits
// are set and swept, and the emitted orders map back to slots. Slots stop
// being sorted by triangular position the moment an update rotates the
// order, so the U phases sort by order instead of by slot.
func (f *factor) sortReachByOrd(slotBitsSet bool) {
	if slotBitsSet {
		clearBitList(f.bitReach, f.reach)
	}
	bs := f.bitReach
	for _, k := range f.reach {
		o := f.slotOrd[k]
		bs[o>>6] |= 1 << (uint32(o) & 63)
	}
	f.reach = sweepBits(bs, f.reach)
	for i, o := range f.reach {
		f.reach[i] = f.ordSlot[o]
	}
}

// ftranSparse solves B·x = v like ftran, exploiting a sparse right-hand
// side: vind lists the engine rows where v may be nonzero (order and
// duplicates are irrelevant; a superset of the true support is fine). On
// the hypersparse path the triangular solves visit only the symbolic
// nonzero closure — the Gilbert–Peierls reach of the RHS support over L,
// the row etas and the updated U's column patterns — and the result's
// support comes back as sorted, duplicate-free basis positions appended to
// out, with sparse = true. When a closure exceeds the density threshold (or
// the dimension is tiny, or forceDense is set) the solve completes through
// the dense phase kernels from wherever it is and returns sparse = false
// with out empty. v is a valid dense result either way.
//
// Both paths are arithmetically bit-identical: the reach is processed in
// elimination order — ascending through L, the row etas oldest first,
// descending the triangular order through U — which is exactly the dense
// loop order with its guaranteed-zero contributions elided, so no
// accumulation is ever reordered. That equivalence is what lets the pricing
// layers switch paths per solve without perturbing a single pivot. An
// entering-column solve (class ftranEnter) also stashes the spike — the
// intermediate after the row etas, captured in ascending slot order on
// every path so the update that consumes it is bit-identical no matter
// which kernel ran.
func (f *factor) ftranSparse(v []float64, vind []int32, out []int32, class int) ([]int32, bool) {
	out = out[:0]
	m := f.m
	capture := class == ftranEnter
	if f.forceDense || m < hyperMinDim {
		f.ftranDense(v, capture)
		return out, false
	}
	capN := m / hyperDenseDiv
	// Symbolic reach through L (slots are elimination steps; L is frozen).
	f.newStamp()
	reach := f.reach[:0]
	mark, stamp := f.mark, f.stamp
	for _, r := range vind {
		k := f.rowStep[r]
		if mark[k] != stamp {
			mark[k] = stamp
			f.bitReach[k>>6] |= 1 << (uint32(k) & 63)
			reach = append(reach, k)
		}
	}
	f.reach = reach
	if len(f.reach) > capN || !f.expandReach(f.lOff, f.lStep, capN) {
		clearBitList(f.bitReach, f.reach)
		f.ftranDense(v, capture)
		return out, false
	}
	f.reach = sweepBits(f.bitReach, f.reach)
	setBitList(f.bitReach, f.reach)
	for _, k := range f.reach {
		zk := v[f.perm[k]]
		if zk == 0 {
			continue
		}
		for e := f.lOff[k]; e < f.lOff[k+1]; e++ {
			v[f.lRow[e]] -= f.lVal[e] * zk
		}
	}
	// Row etas, oldest first. An eta whose support misses the closure reads
	// only exact zeros (its dot is +0 and its row untouched), so it is
	// skipped symbolically; a hit computes the full recorded dot — the same
	// ops as the dense pass — and joins its row to the closure.
	reach = f.reach
	for e := 0; e < len(f.retaRow); e++ {
		lo, hi := f.retaOff[e], f.retaOff[e+1]
		hit := false
		for q := lo; q < hi; q++ {
			if mark[f.retaIdx[q]] == stamp {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		s := 0.0
		for q := lo; q < hi; q++ {
			s += f.retaVal[q] * v[f.perm[f.retaIdx[q]]]
		}
		r := f.retaRow[e]
		v[f.perm[r]] -= s
		if mark[r] != stamp {
			mark[r] = stamp
			f.bitReach[r>>6] |= 1 << (uint32(r) & 63)
			reach = append(reach, r)
		}
	}
	f.reach = reach
	if capture {
		// The spike must come out ascending by slot exactly as the dense
		// capture scans it: sort the closure, harvest, re-mark.
		f.reach = sweepBits(f.bitReach, f.reach)
		setBitList(f.bitReach, f.reach)
		f.spikeInd = f.spikeInd[:0]
		f.spikeVal = f.spikeVal[:0]
		for _, k := range f.reach {
			if sv := v[f.perm[k]]; sv != 0 {
				f.spikeInd = append(f.spikeInd, k)
				f.spikeVal = append(f.spikeVal, sv)
			}
		}
		f.spikeOK = true
	}
	// Close over the updated U's column patterns. In a dense-U regime, skip
	// the expansion between probes: the attempt is capN-bounded wasted work
	// whenever it aborts, and by this point the cheap sparse L phase is
	// already banked.
	if f.denseRun[class] >= hyperRunMin && f.denseRun[class]%hyperProbeEvery != 0 {
		f.denseRun[class]++
		clearBitList(f.bitReach, f.reach)
		f.ftranUDense(v)
		return out, false
	}
	if !f.expandReachUCols(capN) {
		f.denseRun[class]++
		clearBitList(f.bitReach, f.reach)
		f.ftranUDense(v)
		return out, false
	}
	f.denseRun[class] = 0
	// Backward solve through the updated U, descending triangular order.
	f.sortReachByOrd(true)
	reach = f.reach
	y := f.swork
	for i := len(reach) - 1; i >= 0; i-- {
		k := reach[i]
		yk := v[f.perm[k]] / f.uDiag[k]
		y[k] = yk
		if yk == 0 {
			continue
		}
		rows, vals := f.ucRows[k], f.ucVals[k]
		for e, r := range rows {
			v[f.perm[r]] -= vals[e] * yk
		}
	}
	// Consume the engine-row entries, then scatter the result to basis
	// positions — two passes, since a position slot may alias a still-
	// unconsumed row slot.
	for _, k := range reach {
		v[f.perm[k]] = 0
	}
	bs := f.bitOut
	for _, k := range reach {
		p := f.cperm[k]
		v[p] = y[k]
		y[k] = 0
		bs[p>>6] |= 1 << (uint32(p) & 63)
		out = append(out, p)
	}
	return sweepBits(bs, out), true
}

// btranSparse solves Bᵀ·y = v like btran for a right-hand side with support
// vind (basis positions; superset and duplicates fine), mirroring
// ftranSparse's contract and fallback: seed the Uᵀ reach from the
// right-hand support, close over the row lists, solve ascending the
// triangular order, apply the row-eta transposes newest first (joining
// their supports to the closure), then close and solve through Lᵀ. The
// result's support comes back as sorted engine rows with sparse = true, or
// the solve completes densely with sparse = false.
func (f *factor) btranSparse(v []float64, vind []int32, out []int32) ([]int32, bool) {
	out = out[:0]
	m := f.m
	if f.forceDense || m < hyperMinDim {
		f.btran(v)
		return out, false
	}
	capN := m / hyperDenseDiv
	f.newStamp()
	reach := f.reach[:0]
	mark, stamp := f.mark, f.stamp
	for _, p := range vind {
		k := f.posStep[p]
		if mark[k] != stamp {
			mark[k] = stamp
			reach = append(reach, k)
		}
	}
	f.reach = reach
	if len(f.reach) > capN || !f.expandReachRows(capN) {
		f.btran(v)
		return out, false
	}
	// Forward solve through Uᵀ ascending the triangular order, consuming
	// the position-space entries as they are read.
	f.sortReachByOrd(false)
	z := f.swork
	for _, k := range f.reach {
		p := f.cperm[k]
		zk := v[p]
		v[p] = 0
		rows, vals := f.ucRows[k], f.ucVals[k]
		for e, r := range rows {
			zk -= vals[e] * z[r]
		}
		z[k] = zk / f.uDiag[k]
	}
	// Row-eta transposes, newest first, on the slot-space intermediate.
	// A row outside the closure holds an exact zero, so its transform is a
	// no-op both numerically and symbolically — the same zr==0 skip the
	// dense pass takes.
	reach = f.reach
	for e := len(f.retaRow) - 1; e >= 0; e-- {
		zr := z[f.retaRow[e]]
		if zr == 0 {
			continue
		}
		for q := f.retaOff[e]; q < f.retaOff[e+1]; q++ {
			j := f.retaIdx[q]
			z[j] -= f.retaVal[q] * zr
			if mark[j] != stamp {
				mark[j] = stamp
				reach = append(reach, j)
			}
		}
	}
	f.reach = reach
	// Close over the Lᵀ pattern (frozen CSR) and solve descending.
	setBitList(f.bitReach, f.reach)
	if !f.expandReach(f.lrOff, f.lrAdj, capN) {
		clearBitList(f.bitReach, f.reach)
		f.btranLTDense(v)
		return out, false
	}
	f.reach = sweepBits(f.bitReach, f.reach)
	reach = f.reach
	for i := len(reach) - 1; i >= 0; i-- {
		k := reach[i]
		yk := z[k]
		for e := f.lOff[k]; e < f.lOff[k+1]; e++ {
			yk -= f.lVal[e] * z[f.rowStep[f.lRow[e]]]
		}
		z[k] = yk
	}
	bs := f.bitOut
	for _, k := range reach {
		r := f.perm[k]
		v[r] = z[k]
		z[k] = 0
		bs[r>>6] |= 1 << (uint32(r) & 63)
		out = append(out, r)
	}
	return sweepBits(bs, out), true
}

// ftUpdate applies the Forrest–Tomlin basis-change update for the entering
// column whose spike the last entering-class FTRAN stashed, replacing the U
// column of the slot that owns basis position pos. The bump row is
// eliminated by a column-oriented sparse solve over the candidates the row
// lists reach, ascending the triangular order; the multipliers become one
// row eta and the slot rotates to the end of the order. When the eliminated
// diagonal falls below the stability tolerance the update reports false
// with the factors untouched — the caller must refactorize from the
// post-pivot basis before the next solve (KernelStats.ForcedRefactors).
func (f *factor) ftUpdate(pos int) bool {
	if !f.spikeOK {
		return false
	}
	f.spikeOK = false
	kp := f.posStep[pos]
	ordP := f.slotOrd[kp]
	m := f.m
	// Scatter the spike for random access (xwork doubles as the
	// slot-indexed spike while no solve is in flight; restored below).
	x := f.xwork
	spikeMax := 0.0
	for i, k := range f.spikeInd {
		x[k] = f.spikeVal[i]
		if a := math.Abs(f.spikeVal[i]); a > spikeMax {
			spikeMax = a
		}
	}
	// Phase 1 (read-only): locate row kp's live entries — the elimination
	// seeds r₀ — among the columns its row list names.
	f.upCols = f.upCols[:0]
	f.upIdx = f.upIdx[:0]
	f.upProc = f.upProc[:0]
	f.newStamp()
	mark, stamp := f.mark, f.stamp
	bs := f.bitReach
	w := f.swork
	lo := f.rcOff[kp]
	for _, j := range f.rcArena[lo : lo+f.rcLen[kp]] {
		if f.slotOrd[j] <= ordP || mark[j] == stamp {
			continue
		}
		for e, r := range f.ucRows[j] {
			if r == kp {
				mark[j] = stamp
				o := f.slotOrd[j]
				bs[o>>6] |= 1 << (uint32(o) & 63)
				w[j] = f.ucVals[j][e]
				f.upCols = append(f.upCols, j)
				f.upIdx = append(f.upIdx, int32(e))
				break
			}
		}
	}
	// Phase 2 (read-only): solve μᵀ·U_sub = r₀ᵀ column by column ascending
	// the triangular order. The worklist is the order-indexed bitset;
	// propagation along a processed column's row list can only set bits at
	// strictly higher orders, which the per-word re-read picks up.
	etaBase := len(f.retaIdx)
	dNew := x[kp]
	nw := (m + 63) / 64
	for wi := 0; wi < nw; wi++ {
		for bs[wi] != 0 {
			b := bits.TrailingZeros64(bs[wi])
			bs[wi] &^= 1 << uint(b)
			j := f.ordSlot[wi<<6|b]
			f.upProc = append(f.upProc, j)
			acc := w[j]
			rows, vals := f.ucRows[j], f.ucVals[j]
			for e, r := range rows {
				if mark[r] == stamp {
					acc -= vals[e] * w[r]
				}
			}
			mu := acc / f.uDiag[j]
			w[j] = mu
			if mu == 0 {
				continue
			}
			f.retaIdx = append(f.retaIdx, j)
			f.retaVal = append(f.retaVal, mu)
			dNew -= mu * x[j]
			jo := f.slotOrd[j]
			jlo := f.rcOff[j]
			for _, j2 := range f.rcArena[jlo : jlo+f.rcLen[j]] {
				if f.slotOrd[j2] <= jo || mark[j2] == stamp {
					continue
				}
				mark[j2] = stamp
				o := f.slotOrd[j2]
				bs[o>>6] |= 1 << (uint32(o) & 63)
			}
		}
	}
	// Restore the scratch invariants before the stability verdict so the
	// bail path leaves the factor exactly as it found it.
	for _, j := range f.upProc {
		w[j] = 0
	}
	for _, k := range f.spikeInd {
		x[k] = 0
	}
	if math.Abs(dNew) <= ftPivotTol*(1+spikeMax) {
		f.retaIdx = f.retaIdx[:etaBase]
		f.retaVal = f.retaVal[:etaBase]
		return false
	}
	// Commit. Delete row kp's entries from the seed columns (compacting
	// each column in place, order preserved)...
	for i, j := range f.upCols {
		e := int(f.upIdx[i])
		rows, vals := f.ucRows[j], f.ucVals[j]
		n := len(rows) - 1
		copy(rows[e:], rows[e+1:])
		copy(vals[e:], vals[e+1:])
		f.ucRows[j] = rows[:n]
		f.ucVals[j] = vals[:n]
	}
	f.uNNZ -= len(f.upCols)
	// ...record the row eta (identity bumps are not stored)...
	if len(f.retaIdx) > etaBase {
		f.retaRow = append(f.retaRow, kp)
		f.retaOff = append(f.retaOff, int32(len(f.retaIdx)))
	}
	// ...replace column kp with the spike (off-diagonal entries into the
	// spike arena, back-references into the row lists, diagonal = the
	// eliminated value) and drop the old column and row...
	f.uNNZ -= len(f.ucRows[kp])
	start := len(f.spkRows)
	for i, k := range f.spikeInd {
		if k == kp {
			continue
		}
		f.spkRows = append(f.spkRows, k)
		f.spkVals = append(f.spkVals, f.spikeVal[i])
		f.rcAppend(k, kp)
	}
	f.ucRows[kp] = f.spkRows[start:len(f.spkRows):len(f.spkRows)]
	f.ucVals[kp] = f.spkVals[start:len(f.spkVals):len(f.spkVals)]
	f.uNNZ += len(f.ucRows[kp])
	f.uDiag[kp] = dNew
	f.rcLen[kp] = 0
	// ...and rotate the slot to the end of the triangular order.
	op := int(ordP)
	copy(f.ordSlot[op:], f.ordSlot[op+1:])
	f.ordSlot[m-1] = kp
	for o := op; o < m; o++ {
		f.slotOrd[f.ordSlot[o]] = int32(o)
	}
	f.ftUpdates++
	if f.stats != nil {
		f.stats.FTUpdates++
		f.stats.FTSpikeNNZ += len(f.spikeInd)
		if pct := f.ftFill() * 100 / f.luNNZ; pct > f.stats.UFillMaxPct {
			f.stats.UFillMaxPct = pct
		}
	}
	return true
}

// ftFill is the current factor fill: L, the updated U (diagonal included),
// and the row etas.
func (f *factor) ftFill() int {
	return len(f.lRow) + f.uNNZ + f.m + len(f.retaIdx)
}

// ftShouldFold reports whether the update state has outgrown the fold
// policy — too many in-place updates or too much fill relative to the
// refactorization-time factors.
func (f *factor) ftShouldFold() bool {
	return f.ftUpdates >= maxFTUpdates || f.ftFill() > ftFillBloat*(f.luNNZ+f.m)
}
