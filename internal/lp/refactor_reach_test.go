package lp

import (
	"math"
	"math/rand"
	"testing"
)

// refactorizeFullScan is the reference elimination refactorize replaced:
// every column applies every completed step in order, testing each pivot
// row for a nonzero. It builds only what the comparison reads (the LU
// arrays), not the solve-side structures.
func refactorizeFullScan(f *factor, m int, src basisMatrix) bool {
	f.reset(m)
	order := make([]int32, 0, m)
	maxN := 0
	for p := 0; p < m; p++ {
		maxN = max(maxN, src.basisColNNZ(p))
	}
	for c := 0; c <= maxN; c++ {
		for p := 0; p < m; p++ {
			if src.basisColNNZ(p) == c {
				order = append(order, int32(p))
			}
		}
	}
	x := f.xwork
	for _, p32 := range order {
		p := int(p32)
		k := len(f.perm)
		f.patt = src.scatterBasisColumn(p, x, f.patt[:0])
		for q := 0; q < k; q++ {
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
			}
		}
		f.uOff = append(f.uOff, int32(len(f.uStep)))
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
	return true
}

// sameInt32s and sameBits compare slices entry for entry; float entries
// are compared by their bits.
func sameInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkReachFactor refactorizes src with the reach elimination and the
// full-scan reference, each on a factor that has already factorized
// something else, and requires the same verdict, the same LU arrays bit
// for bit, and an all-zero bitReach afterwards. It returns the verdict.
func checkReachFactor(t *testing.T, got, want *factor, m int, src basisMatrix, where string) bool {
	t.Helper()
	ok := got.refactorize(m, src)
	if okRef := refactorizeFullScan(want, m, src); ok != okRef {
		t.Fatalf("%s: reach refactorize ok=%v, full scan ok=%v", where, ok, okRef)
	}
	for _, c := range []struct {
		name string
		same bool
	}{
		{"perm", sameInt32s(got.perm, want.perm)},
		{"cperm", sameInt32s(got.cperm, want.cperm)},
		{"uDiag", sameBits(got.uDiag, want.uDiag)},
		{"lOff", sameInt32s(got.lOff, want.lOff)},
		{"lRow", sameInt32s(got.lRow, want.lRow)},
		{"lVal", sameBits(got.lVal, want.lVal)},
		{"uOff", sameInt32s(got.uOff, want.uOff)},
		{"uStep", sameInt32s(got.uStep, want.uStep)},
		{"uVal", sameBits(got.uVal, want.uVal)},
	} {
		if !c.same {
			t.Fatalf("%s (m=%d): %s differs from the full-scan elimination", where, m, c.name)
		}
	}
	for w, word := range got.bitReach {
		if word != 0 {
			t.Fatalf("%s (m=%d): bitReach word %d = %#x after refactorize, want 0", where, m, w, word)
		}
	}
	for r, v := range got.xwork {
		if v != 0 {
			t.Fatalf("%s (m=%d): xwork[%d] = %g after refactorize, want 0", where, m, r, v)
		}
	}
	return ok
}

// TestRefactorizeReachMatchesFullScan locks the reach-only elimination
// against a scan over every earlier step: random sparse bases on both
// sides of hyperMinDim, bases whose updates cancel an entry to exactly
// zero, a singular basis, and the final bases of warm covering solves with
// more than 64 rows must all factorize to the same LU, bit for bit.
func TestRefactorizeReachMatchesFullScan(t *testing.T) {
	var got, want factor
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{2, 9, 40, hyperMinDim - 1, hyperMinDim, hyperMinDim + 1, 100, 200} {
		for trial := 0; trial < 6; trial++ {
			checkReachFactor(t, &got, &want, m, randBasis(rng, m, rng.Intn(3*m+1)), "randBasis")
		}
	}

	// Step 0 claims row 0 with row 1 in its L column (multiplier 1/2) and
	// step 1 claims row 1. The last column's update through step 0 leaves
	// exactly 0 at row 1, so step 1 is in its reach but must apply nothing.
	// Step 2 is reachable only through step 1 in the second variant.
	for _, c := range []struct {
		a     [][]float64
		uLast int // U entries of the last column: steps 0 and 2, or 0 only
	}{
		{[][]float64{
			{2, 0, 0, 2},
			{1, 1, 0, 1},
			{0, 0.5, 1, 3},
			{0, 0, 1, 1},
		}, 2},
		{[][]float64{
			{2, 0, 0, 2},
			{1, 1, 0, 1},
			{0, 0.5, 1, 0},
			{0, 0, 1, 1},
		}, 1},
	} {
		if !checkReachFactor(t, &got, &want, len(c.a), &denseMatrix{a: c.a}, "cancellation") {
			t.Fatal("cancellation basis reported singular")
		}
		if n := int(got.uOff[4] - got.uOff[3]); n != c.uLast {
			t.Fatalf("cancellation basis: last U column has %d entries, want %d", n, c.uLast)
		}
	}

	// A repeated column: the elimination bails at the copy.
	sing := randBasis(rng, 80, 120)
	for r := range sing.a {
		sing.a[r][79] = sing.a[r][3]
	}
	if checkReachFactor(t, &got, &want, 80, sing, "singular") {
		t.Fatal("basis with a repeated column factorized")
	}

	// Warm covering solves: the engine's own bases, logical and structural
	// columns mixed, past 64 rows.
	bases := 0
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		p := randCoverProblem(rng, 30)
		var basis *Basis
		for c := 0; c < 90; c++ {
			cols, vals, rhs := randCut(rng, p)
			if err := p.AddSparse(cols, vals, GE, rhs); err != nil {
				t.Fatal(err)
			}
			sol, next, err := p.ResolveFrom(basis)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("seed %d cut %d: %v %v", seed, c, err, sol)
			}
			basis = next
			if basis.t.m > hyperMinDim {
				checkReachFactor(t, &got, &want, basis.t.m, basis.t, "warm basis")
				bases++
			}
		}
	}
	if bases < 50 {
		t.Fatalf("only %d warm bases past %d rows compared", bases, hyperMinDim)
	}
}
