package activetime

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// fuzzHardnessChain serializes gen.Hardness(24, 2) — a 71-job selector
// chain over 72 slots whose master accumulates enough coupled cut rows to
// clear the hypersparse engagement threshold, so the fuzzer starts from an
// input whose triangular solves genuinely run the Gilbert–Peierls
// reach-DFS over near-dense updated factors rather than the
// small-dimension dense fallback.
func fuzzHardnessChain() []byte {
	var buf bytes.Buffer
	if err := gen.Hardness(24, 2).WriteJSON(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzSolveLP drives the whole LP1 pipeline from raw instance bytes: any
// input that decodes and validates must solve without panicking. Two
// oracle tiers bound the work. Small instances (≤ 8 jobs, horizon ≤ 24)
// are cross-checked against the exact rational engine to 1e-6, and both
// engines must agree on infeasibility. Mid-size instances (≤ 96 jobs,
// horizon ≤ 96) are beyond the rational engine's budget but instead must
// satisfy the kernel path-equivalence invariant: the hypersparse and
// forced-dense engines walk the identical pivot sequence to the identical
// objective — the tier exists so fuzzing exercises the reach-DFS on
// near-dense updated factors, which small instances never engage. The seed
// corpus under testdata/fuzz covers the interesting decode shapes;
// `go test -fuzz=FuzzSolveLP` explores from there.
func FuzzSolveLP(f *testing.F) {
	f.Add([]byte(`{"g":2,"jobs":[{"id":0,"release":0,"deadline":4,"length":2}]}`))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":2,"length":2},{"id":1,"release":1,"deadline":3,"length":1}]}`))
	f.Add([]byte(`{"g":3,"jobs":[{"id":0,"release":0,"deadline":6,"length":1},{"id":1,"release":2,"deadline":5,"length":3},{"id":2,"release":1,"deadline":4,"length":2}]}`))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":1,"length":1},{"id":1,"release":0,"deadline":1,"length":1}]}`))
	f.Add(fuzzHardnessChain())
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := core.ReadInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Tier bounds: the exact rational cross-check stays tractable only
		// on tiny instances, the float-vs-float kernel check on mid-size
		// ones, and hostile horizons cannot allocate per-slot state
		// unchecked.
		if len(in.Jobs) > 96 || in.Horizon() > 96 || in.G > 8 {
			return
		}
		small := len(in.Jobs) <= 8 && in.Horizon() <= 24
		res, trace, err := solveTraced(in, false)
		if err == ErrInfeasible {
			if small {
				if _, xerr := SolveLPExact(in); xerr != ErrInfeasible {
					t.Fatalf("float pipeline infeasible, exact pipeline: %v", xerr)
				}
			}
			if _, _, derr := solveTraced(in, true); derr != ErrInfeasible {
				t.Fatalf("hypersparse engine infeasible, dense engine: %v", derr)
			}
			return
		}
		if err != nil {
			t.Fatalf("SolveLP: %v", err)
		}
		if res.Objective < -1e-9 {
			t.Fatalf("negative LP objective %v", res.Objective)
		}
		if small {
			exact, err := SolveLPExact(in)
			if err != nil {
				t.Fatalf("SolveLP optimal but SolveLPExact: %v", err)
			}
			want, _ := exact.Objective.Float64()
			if math.Abs(res.Objective-want) > 1e-6 {
				t.Fatalf("LP objective %.9f, exact %.9f", res.Objective, want)
			}
		}
		dense, denseTrace, err := solveTraced(in, true)
		if err != nil {
			t.Fatalf("hypersparse engine optimal, dense engine: %v", err)
		}
		if dense.Objective != res.Objective {
			t.Fatalf("kernel paths diverged: hypersparse objective %.17g, dense %.17g",
				res.Objective, dense.Objective)
		}
		if len(trace) != len(denseTrace) {
			t.Fatalf("kernel paths diverged: hypersparse %d pivots, dense %d", len(trace), len(denseTrace))
		}
		for i := range trace {
			if trace[i] != denseTrace[i] {
				t.Fatalf("kernel paths diverged at pivot %d: hypersparse (%d,%d), dense (%d,%d)",
					i, trace[i].row, trace[i].col, denseTrace[i].row, denseTrace[i].col)
			}
		}
	})
}
