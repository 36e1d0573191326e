package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// faultTally aggregates the warm re-solves of one faultSequence run.
type faultTally struct {
	injected  int // warm re-solves whose fault was injected
	verified  int // warm re-solves that ended in a verified optimum
	fallbacks int // warm re-solves that fell back to a cold solve
	failed    int // warm re-solves that ended non-Optimal
	refactors int
	kernel    KernelStats
}

// fault corrupts a live engine state from its pivotHook, which runs at the
// start of applyPivot.
type fault struct {
	// inject runs at each pivot of a warm re-solve until it reports a fault
	// injected: one fault per warm re-solve.
	inject func(st *revised, row, col int) bool
	// watch, when set, runs at every pivot before inject.
	watch func(st *revised, row, col int)
	// check, when set, runs on the state of each verified warm re-solve.
	check func(t *testing.T, st *revised)
}

// faultSequence solves a random covering master cold, then appends cuts
// and re-solves warm, rounds times, with f's hooks set on the live state
// before each warm re-solve. A nil f runs the same program sequence
// unfaulted, the baseline each fault test compares its counters against.
//
// Every re-solve ends in one of three ways: a verified optimum within 1e-9
// of a cold solve of the same program, a counted cold fallback held to the
// same bound, or a non-Optimal status. A wrong optimum fails the test.
func faultSequence(t *testing.T, seed int64, rounds int, f *fault) faultTally {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Even seeds cut with wide rows, odd seeds with many narrow ones, whose
	// sparse factors keep the bound-flip solves hypersparse; both have at
	// least hyperMinDim rows, so the hypersparse kernels run.
	n, rows, addRow := 60+rng.Intn(40), hyperMinDim+rng.Intn(16), addCoverRow
	if seed%2 == 1 {
		n, rows, addRow = 200, 200, addNarrowRow
	}
	p := coveringProblem(rng, n, 0)
	for r := 0; r < rows; r++ {
		addRow(p, rng, n)
	}
	_, basis, err := p.ResolveFrom(nil)
	if err != nil || basis == nil {
		t.Fatalf("seed %d: cold solve: %v", seed, err)
	}
	var tally faultTally
	for round := 0; round < rounds; round++ {
		for k := 0; k < 1+rng.Intn(4); k++ {
			addRow(p, rng, n)
		}
		injected := false
		if f != nil {
			st := basis.t
			st.pivotHook = func(row, col int) {
				if f.watch != nil {
					f.watch(st, row, col)
				}
				if !injected {
					injected = f.inject(st, row, col)
				}
			}
		}
		sol, next, err := p.ResolveFrom(basis)
		if err != nil {
			t.Fatalf("seed %d round %d: %v", seed, round, err)
		}
		if injected {
			tally.injected++
		}
		tally.refactors += sol.Refactors
		tally.kernel.Accumulate(sol.Kernel)
		if sol.Status != Optimal {
			tally.failed++
			if _, next, err = p.ResolveFrom(nil); err != nil || next == nil {
				t.Fatalf("seed %d round %d: cold restart: %v", seed, round, err)
			}
		} else {
			if sol.ColdFallbacks > 0 {
				tally.fallbacks++
			} else {
				tally.verified++
				if f != nil && f.check != nil {
					f.check(t, next.t)
				}
			}
			cold, err := Solve(p)
			if err != nil || cold.Status != Optimal {
				t.Fatalf("seed %d round %d: cold reference: %v %v", seed, round, err, cold)
			}
			if d := math.Abs(sol.Objective - cold.Objective); !(d <= 1e-9) {
				t.Fatalf("seed %d round %d: wrong optimum %.12g, cold %.12g (fallbacks %d)",
					seed, round, sol.Objective, cold.Objective, sol.ColdFallbacks)
			}
		}
		next.t.pivotHook = nil
		basis = next
	}
	return tally
}

// addNarrowRow appends a covering row over 2 to 4 consecutive columns.
func addNarrowRow(p *Problem, rng *rand.Rand, n int) {
	w := 2 + rng.Intn(3)
	lo := rng.Intn(n - w)
	cols := make([]int, w)
	vals := make([]float64, w)
	for k := range cols {
		cols[k] = lo + k
		vals[k] = float64(1 + rng.Intn(2))
	}
	if err := p.AddSparse(cols, vals, GE, float64(w)); err != nil {
		panic(err)
	}
}

// faultSeeds are the program sequences every fault test replays; 4 seeds of
// 10 rounds give 40 warm re-solves.
var faultSeeds = []int64{11, 12, 13, 14}

// runFaults replays faultSeeds unfaulted and then faulted, and returns both
// aggregates.
func runFaults(t *testing.T, f *fault) (base, got faultTally) {
	t.Helper()
	for _, seed := range faultSeeds {
		b := faultSequence(t, seed, 10, nil)
		g := faultSequence(t, seed, 10, f)
		base.refactors += b.refactors
		base.kernel.Accumulate(b.kernel)
		base.fallbacks += b.fallbacks
		got.injected += g.injected
		got.verified += g.verified
		got.fallbacks += g.fallbacks
		got.failed += g.failed
		got.refactors += g.refactors
		got.kernel.Accumulate(g.kernel)
	}
	if got.injected == 0 {
		t.Fatal("no warm re-solve pivoted, so no fault was injected")
	}
	t.Logf("injected %d: verified %d, fallbacks %d (unfaulted %d), non-optimal %d; refactors %d (unfaulted %d), forced %d (%d), weight resets %d (%d)",
		got.injected, got.verified, got.fallbacks, base.fallbacks, got.failed, got.refactors, base.refactors,
		got.kernel.ForcedRefactors, base.kernel.ForcedRefactors, got.kernel.WeightResets, base.kernel.WeightResets)
	return base, got
}

// TestFaultScaledWeightResets scales the leaving row's pricing weight far
// past the staleness factor. The detector must fire and reset every weight
// from the factors; pricing never affects the optimum, so each re-solve
// still ends verified, with exact weights.
func TestFaultScaledWeightResets(t *testing.T) {
	base, got := runFaults(t, &fault{
		inject: func(st *revised, row, col int) bool {
			st.dseW[row] *= 1e3
			return true
		},
		check: func(t *testing.T, st *revised) { checkWeights(t, st, "after a weight fault") },
	})
	if got.kernel.WeightResets <= base.kernel.WeightResets {
		t.Errorf("%d weight resets, unfaulted %d: the scaled weight went unnoticed",
			got.kernel.WeightResets, base.kernel.WeightResets)
	}
	if got.fallbacks != 0 || got.failed != 0 {
		t.Errorf("a weight fault changed an outcome: %+v", got)
	}
}

// TestFaultPerturbedFactorsCaught scales one L multiplier or one U
// diagonal of the live factors by 1.5, or sets a U diagonal to NaN, in
// turn, so every solve until the next refactorization is wrong. The
// verification layers must catch it: a perturbed factor may not certify an
// optimum. The NaN spreads into basic values, weights and reduced costs,
// which every ordered comparison passes, so it also holds the leaving-row
// choice and the verification to comparisons a NaN fails.
func TestFaultPerturbedFactorsCaught(t *testing.T) {
	frng := rand.New(rand.NewSource(5))
	calls := 0
	base, got := runFaults(t, &fault{inject: func(st *revised, row, col int) bool {
		f := &st.f
		calls++
		if calls%3 == 0 && len(f.lVal) > 0 {
			f.lVal[frng.Intn(len(f.lVal))] *= 1.5
			return true
		}
		// Not the leaving position's slot: the update replaces its column.
		k := (int(f.posStep[row]) + 1 + frng.Intn(f.m-1)) % f.m
		if calls%3 == 1 {
			f.uDiag[k] = math.NaN()
		} else {
			f.uDiag[k] *= 1.5
		}
		return true
	}})
	if got.refactors+got.fallbacks <= base.refactors+base.fallbacks {
		t.Errorf("refactors %d and fallbacks %d, unfaulted %d and %d: the perturbed factors went unnoticed",
			got.refactors, got.fallbacks, base.refactors, base.fallbacks)
	}
}

// TestFaultZeroedSpikeForcesRefactor zeroes the spike the entering FTRAN
// stashed (odd calls), so the Forrest–Tomlin update must refuse on its
// stability test, or loses that FTRAN altogether (even calls): its result
// zeroed, which the weight update must skip rather than divide by, and its
// spike dropped, which the update must refuse. Either way the engine
// refactorizes from the post-pivot basis and re-derives every value.
func TestFaultZeroedSpikeForcesRefactor(t *testing.T) {
	calls := 0
	base, got := runFaults(t, &fault{inject: func(st *revised, row, col int) bool {
		calls++
		if calls%2 == 0 {
			clear(st.w[:st.m])
			st.f.spikeOK = false
			return true
		}
		clear(st.f.spikeVal)
		return true
	}})
	if got.kernel.ForcedRefactors <= base.kernel.ForcedRefactors {
		t.Errorf("%d forced refactorizations, unfaulted %d: the zeroed spike was absorbed",
			got.kernel.ForcedRefactors, base.kernel.ForcedRefactors)
	}
}

// TestFaultDependentColumnBreaksFactor empties the engine's copy of one basic
// structural column, which makes the basis singular for as long as that
// column stays basic (rows appended later keep it singular: their surpluses
// span the new rows). The next refactorization, a fold or the splice of the
// next call, must fail, and the broken state may end only in IterLimit and
// its counted cold fallback. The column's entries come back when it leaves
// the basis, so the fault never outlives its singular basis.
func TestFaultDependentColumnBreaksFactor(t *testing.T) {
	type saved struct {
		st   *revised
		col  int
		rows []int32
		vals []float64
	}
	var held []saved
	restore := func(st *revised, row, col int) {
		held = slices.DeleteFunc(held, func(h saved) bool {
			if h.st != st || st.basis[row] != h.col {
				return false
			}
			st.colRows[h.col], st.colVals[h.col] = h.rows, h.vals
			return true
		})
	}
	base, got := runFaults(t, &fault{watch: restore, inject: func(st *revised, row, col int) bool {
		for p, c := range st.basis {
			if p != row && c < st.n && len(st.colRows[c]) > 0 {
				held = append(held, saved{st, c, st.colRows[c], st.colVals[c]})
				st.colRows[c], st.colVals[c] = nil, nil
				return true
			}
		}
		return false
	}})
	if got.fallbacks <= base.fallbacks {
		t.Errorf("%d fallbacks, unfaulted %d: a singular basis went unnoticed", got.fallbacks, base.fallbacks)
	}
}

// TestBlandRegimeReached keeps one warm repair busy past half its pivot
// budget, where dualIterate hands leaving-row selection to Bland's rule. At
// each of the repair's first half+blandExtra pivots the hook raises the
// right-hand side of one row whose surplus is basic until that surplus is
// −0.25, and moves the basic values by the same amount, x_B += δ·B⁻¹e_r, so
// the state stays the basic solution of the raised program: the dual
// simplex always has a genuinely violated row to repair, and never an
// unrepairable one, since every raised row stays satisfiable. (Hooks must
// not mutate the problem; this one does so on purpose, keeping every value
// consistent.) It raises only rows whose B⁻¹e_r is zero at the leaving
// position, where the pivot in progress already fixed its step. Once the
// hook stops, the repair must end in a verified optimum of the raised
// program, or a counted fallback to one.
func TestBlandRegimeReached(t *testing.T) {
	const blandExtra = 40
	rng := rand.New(rand.NewSource(21))
	n := 120
	p := coveringProblem(rng, n, 30)
	_, basis, err := p.ResolveFrom(nil)
	if err != nil || basis == nil {
		t.Fatalf("cold solve: %v", err)
	}
	for k := 0; k < 3; k++ {
		addCoverRow(p, rng, n)
	}
	// The warm budget ResolveFrom gives a call that appends rows only.
	half := (4*p.NumConstraints() + 400) / 2
	st, pivots, raised := basis.t, 0, 0
	v := make([]float64, p.NumConstraints())
	st.pivotHook = func(row, col int) {
		if pivots++; pivots > half+blandExtra {
			return
		}
		for k := range p.b {
			r := (pivots + k) % len(p.b)
			room := -p.b[r]
			for _, a := range p.rowVals[r] {
				room += a // every upper bound is 1
			}
			if !st.inBasis[st.n+r] {
				continue
			}
			clear(v)
			v[r] = 1
			st.f.ftran(v)
			pos := st.whereBasic[st.n+r]
			d := (st.xB[pos] + 0.25) / -v[pos]
			if v[row] != 0 || !(d > 0) || room < d+0.5 {
				continue
			}
			p.b[r] += d
			for i, vi := range v {
				if vi != 0 {
					st.xB[i] += d * vi
					st.noteDualRow(i)
				}
			}
			raised++
			return
		}
	}
	sol, _, err := p.ResolveFrom(basis)
	if err != nil {
		t.Fatal(err)
	}
	if pivots <= half {
		t.Fatalf("the warm repair made %d pivots, not past half its budget (%d); %d rows raised, fallbacks %d",
			pivots, half, raised, sol.ColdFallbacks)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v after %d warm pivots", sol.Status, pivots)
	}
	cold := mustSolve(t, p)
	if d := math.Abs(sol.Objective - cold.Objective); !(d <= 1e-9) {
		t.Fatalf("wrong optimum %.12g, cold %.12g (fallbacks %d)", sol.Objective, cold.Objective, sol.ColdFallbacks)
	}
	t.Logf("%d warm pivots against a budget of %d, %d rows raised, fallbacks %d",
		pivots, 2*half, raised, sol.ColdFallbacks)
}

// TestVerifyOptimalExits drives each exit of verifyOptimal on an optimal
// state whose values or rows were disturbed after it converged.
func TestVerifyOptimalExits(t *testing.T) {
	solved := func() (*Problem, *Basis, float64) {
		rng := rand.New(rand.NewSource(31))
		p := coveringProblem(rng, 40, 20)
		sol, basis, err := p.ResolveFrom(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("cold solve: %v %v", err, sol)
		}
		return p, basis, sol.Objective
	}
	// A basic structural strictly inside its bounds has reduced cost 0 < c_j,
	// so some row through it is tight: zeroing its value drifts that row
	// below its right-hand side while every basic value stays in bounds.
	drift := func(t *testing.T, st *revised) {
		t.Helper()
		for i, c := range st.basis {
			if c < st.n && st.xB[i] > 1e-3 && st.xB[i] < st.upper[c]-1e-3 {
				st.xB[i] = 0
				if st.consistent(1e-6) {
					t.Fatal("zeroing a basic structural left every row satisfied")
				}
				return
			}
		}
		t.Fatal("no basic structural strictly inside its bounds")
	}
	t.Run("retry heals a drifted value", func(t *testing.T) {
		_, basis, obj := solved()
		st := basis.t
		drift(t, st)
		budget := maxPivots
		if got := st.verifyOptimal(&budget); got != Optimal {
			t.Fatalf("status %v, want the resynced optimum", got)
		}
		x := st.structuralX()
		got := 0.0
		for j, c := range st.cost[:st.n] {
			got += c * x[j]
		}
		if math.Abs(got-obj) > 1e-9 {
			t.Fatalf("objective %v after the retry, want %v", got, obj)
		}
	})
	t.Run("retry out of pivots", func(t *testing.T) {
		_, basis, _ := solved()
		drift(t, basis.t)
		budget := 0
		if got := basis.t.verifyOptimal(&budget); got != IterLimit {
			t.Fatalf("status %v, want IterLimit from a retry with no pivots left", got)
		}
	})
	t.Run("NaN in the factors", func(t *testing.T) {
		// A NaN spreads into every value refreshed from the factors, and it
		// passes every ordered comparison: both checks must still refuse it.
		_, basis, _ := solved()
		st := basis.t
		for k := range st.f.uDiag {
			st.f.uDiag[k] = math.NaN()
		}
		if got := st.checkDualFeasible(); got != IterLimit {
			t.Errorf("checkDualFeasible = %v on NaN reduced costs, want IterLimit", got)
		}
		if st.consistent(1e-6) {
			t.Error("NaN basic values passed verification")
		}
	})
	t.Run("rows edited behind the engine", func(t *testing.T) {
		// Lowering a positive basic structural's coefficient in a tight row
		// changes the caller's rows, which verification reads, but not the
		// engine's copies, which it solves with: the disagreement survives
		// every resync, so verification gives up and the warm re-solve falls
		// back to a cold solve of the edited rows.
		p, basis, _ := solved()
		st := basis.t
		x := st.structuralX()
		edited := false
		for i, cols := range p.rowCols {
			if p.RowSlack(i, x) > 1e-9 {
				continue
			}
			for k, c := range cols {
				if st.inBasis[c] && x[c] > 1e-3 {
					p.rowVals[i][k] /= 4
					edited = true
					break
				}
			}
			if edited {
				break
			}
		}
		if !edited {
			t.Fatal("no tight row through a positive basic structural")
		}
		sol, _, err := p.ResolveFrom(basis)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || sol.ColdFallbacks != 1 {
			t.Fatalf("status %v with %d fallbacks, want a counted fallback to the cold optimum", sol.Status, sol.ColdFallbacks)
		}
		if cold := mustSolve(t, p); math.Abs(sol.Objective-cold.Objective) > 1e-9 {
			t.Fatalf("objective %v, cold %v", sol.Objective, cold.Objective)
		}
	})
}

// TestBasicValueBounds checks how the reported point and its verification
// treat a basic structural near its bounds: within the pivot tolerance
// below zero it reads as 0, while a value further below zero, or above its
// upper bound, passes through for verification to reject.
func TestBasicValueBounds(t *testing.T) {
	p := coveringProblem(rand.New(rand.NewSource(41)), 30, 12)
	_, basis, err := p.ResolveFrom(nil)
	if err != nil || basis == nil {
		t.Fatalf("cold solve: %v", err)
	}
	st := basis.t
	i := slices.IndexFunc(st.basis, func(c int) bool { return c < st.n })
	if i < 0 {
		t.Fatal("no basic structural")
	}
	j := st.basis[i]
	st.xB[i] = -5e-8
	if x := st.structuralX()[j]; x != 0 {
		t.Errorf("x[%d] = %v for a basic value of -5e-8, want 0", j, x)
	}
	for _, v := range []float64{-1e-3, st.upper[j] + 1e-3} {
		st.xB[i] = v
		if x := st.structuralX()[j]; x != v {
			t.Errorf("x[%d] = %v for a basic value of %v, want it unchanged", j, x, v)
		}
		if st.consistent(1e-6) {
			t.Errorf("a basic value of %v passed verification", v)
		}
	}
}
