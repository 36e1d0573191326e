package lp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// expandRuns is the test-side inverse of compressRuns.
func expandRuns(runs []alphaRun) (cols []int32, vals []float64) {
	for _, rn := range runs {
		for k := int32(0); k < rn.ln; k++ {
			cols = append(cols, rn.lo+k)
			vals = append(vals, rn.val)
		}
	}
	return
}

// TestCompressRunsRoundTrip: the run-compressed mirror of a cut row must
// expand back to exactly the original (cols, vals) pattern — the scatter
// kernels accumulate in run order, so any drift here would silently change
// the float operations the pivot-row kernel performs.
func TestCompressRunsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// Build a sorted, duplicate-free column pattern with plateaus of
		// repeated values — the shape cutFor emits (few distinct levels
		// over long index ranges), plus random gaps and value changes.
		var cols []int32
		var vals []float64
		c := int32(rng.Intn(3))
		v := float64(1 + rng.Intn(4))
		for len(cols) < 1+rng.Intn(64) {
			cols = append(cols, c)
			vals = append(vals, v)
			c += int32(1 + rng.Intn(3)) // gap of 0..2 missing columns
			if rng.Intn(3) == 0 {
				v = float64(1 + rng.Intn(4))
			}
		}
		runs := compressRuns(cols, vals)
		gotCols, gotVals := expandRuns(runs)
		if !slices.Equal(gotCols, cols) || !slices.Equal(gotVals, vals) {
			t.Fatalf("trial %d: round trip mismatch\ncols %v -> %v\nvals %v -> %v",
				trial, cols, gotCols, vals, gotVals)
		}
		// Runs must be maximal: adjacent runs either leave an index gap or
		// change value, otherwise the compression wastes scatter dispatch.
		for i := 1; i < len(runs); i++ {
			prev, cur := runs[i-1], runs[i]
			if prev.lo+prev.ln == cur.lo && prev.val == cur.val {
				t.Fatalf("trial %d: runs %d,%d not maximal: %+v %+v", trial, i-1, i, prev, cur)
			}
		}
	}
	if got := compressRuns(nil, nil); len(got) != 0 {
		t.Fatalf("compressRuns(nil) = %v, want empty", got)
	}
}

// TestSweepBitsSortedEmission: sweepBits must emit exactly the set bits in
// ascending order and leave the bitset all-zero — the invariant the
// hypersparse kernels rely on to reuse the arrays across solves without
// clearing them, and the reason bit emission can replace comparison sorts.
func TestSweepBitsSortedEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(500)
		bs := make([]uint64, (m+63)/64)
		want := map[int32]bool{}
		var list []int32
		for i := 0; i < rng.Intn(64); i++ {
			s := int32(rng.Intn(m))
			if !want[s] {
				want[s] = true
				list = append(list, s)
			}
			bs[s>>6] |= 1 << (uint32(s) & 63)
		}
		out := sweepBits(bs, make([]int32, 0, len(want)))
		if len(out) != len(want) {
			t.Fatalf("trial %d: %d bits emitted, want %d", trial, len(out), len(want))
		}
		for i, s := range out {
			if !want[s] {
				t.Fatalf("trial %d: emitted %d never set", trial, s)
			}
			if i > 0 && out[i-1] >= s {
				t.Fatalf("trial %d: emission not strictly ascending at %d: %v", trial, i, out)
			}
		}
		for w, word := range bs {
			if word != 0 {
				t.Fatalf("trial %d: word %d left nonzero after sweep", trial, w)
			}
		}
		// setBitList re-marks after an intermediate sweep; clearBitList
		// restores all-zero on the fallback paths. Round-trip both.
		setBitList(bs, out)
		clearBitList(bs, list)
		for w, word := range bs {
			if word != 0 {
				t.Fatalf("trial %d: word %d nonzero after set+clear round trip", trial, w)
			}
		}
	}
}

// TestKernelStatsCarriesEveryField gives every KernelStats field a distinct
// value and checks that minus and Accumulate carry each one, so a counter
// added to the struct but left out of either method fails here. UFillMaxPct
// is a high-water mark: minus keeps the minuend's peak and Accumulate takes
// the larger. The ratio helpers report 0 when they have no denominator.
func TestKernelStatsCarriesEveryField(t *testing.T) {
	var a, b KernelStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Int {
			t.Fatalf("field %s is %v; this test knows int counters only", typ.Field(i).Name, typ.Field(i).Type)
		}
		va.Field(i).SetInt(int64(1000 + 7*i))
		vb.Field(i).SetInt(int64(1 + i))
	}
	diff := a.minus(b)
	sum := a
	sum.Accumulate(b)
	vd, vs := reflect.ValueOf(diff), reflect.ValueOf(sum)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		x, y := va.Field(i).Int(), vb.Field(i).Int()
		wantDiff, wantSum := x-y, x+y
		if name == "UFillMaxPct" {
			wantDiff, wantSum = x, max(x, y)
		}
		if got := vd.Field(i).Int(); got != wantDiff {
			t.Errorf("minus: %s = %d, want %d", name, got, wantDiff)
		}
		if got := vs.Field(i).Int(); got != wantSum {
			t.Errorf("Accumulate: %s = %d, want %d", name, got, wantSum)
		}
	}
	var zero KernelStats
	if zero.FtranAvgNNZ() != 0 || zero.BtranAvgNNZ() != 0 || zero.HyperShare() != 0 {
		t.Errorf("ratios of empty stats: %v %v %v, want 0", zero.FtranAvgNNZ(), zero.BtranAvgNNZ(), zero.HyperShare())
	}
	if got := (KernelStats{FtranHyper: 4, FtranHyperNNZ: 10}).FtranAvgNNZ(); got != 2.5 {
		t.Errorf("FtranAvgNNZ = %v, want 2.5", got)
	}
	if got := (KernelStats{BtranHyper: 2, BtranHyperNNZ: 9}).BtranAvgNNZ(); got != 4.5 {
		t.Errorf("BtranAvgNNZ = %v, want 4.5", got)
	}
	if got := (KernelStats{FtranHyper: 1, FtranDense: 1, BtranHyper: 2}).HyperShare(); got != 0.75 {
		t.Errorf("HyperShare = %v, want 0.75", got)
	}
}
