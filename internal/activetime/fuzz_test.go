package activetime

import (
	"bytes"
	"math"
	"slices"
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

// FuzzMinimalFeasible drives the Theorem 1 closing loop from raw instance
// bytes and a shuffle seed. Any input that decodes and validates must give
// the open set that a per-slot fresh-flow sweep gives in the same order —
// one one-shot CheckFeasible per probe, no interval nodes, no carried flow
// and no skipped intervals — and that set must pass VerifyActive and
// IsMinimalFeasible after exactly one cold max flow. The Theorem 1
// certificate must then succeed, bound the cost, and equal the map-based
// reference's, both on the schedule the loop deals out of its flow and on
// Assign's schedule for the same open set. The size bounds are
// FuzzSolveLP's; the last seed routes the whole demand through one slot,
// whose trial close cancels every routed unit.
func FuzzMinimalFeasible(f *testing.F) {
	f.Add([]byte(`{"g":2,"jobs":[{"id":0,"release":0,"deadline":4,"length":2}]}`), int64(1))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":2,"length":2},{"id":1,"release":1,"deadline":3,"length":1}]}`), int64(2))
	f.Add([]byte(`{"g":3,"jobs":[{"id":0,"release":0,"deadline":6,"length":1},{"id":1,"release":2,"deadline":5,"length":3},{"id":2,"release":1,"deadline":4,"length":2}]}`), int64(3))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":1,"length":1},{"id":1,"release":0,"deadline":1,"length":1}]}`), int64(4))
	f.Add(fuzzHardnessChain(), int64(5))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":1,"length":1}]}`), int64(6))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		in, err := core.ReadInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(in.Jobs) > 96 || in.Horizon() > 96 || in.G > 8 {
			return
		}
		opts := MinimalOptions{Shuffle: true, Seed: seed}
		res, err := MinimalFeasibleStats(in, opts)
		all := AllSlots(in)
		if err == ErrInfeasible {
			if CheckFeasible(in, all) {
				t.Fatal("closing loop reports infeasible, but every window slot open carries all jobs")
			}
			return
		}
		if err != nil {
			t.Fatalf("MinimalFeasibleStats: %v", err)
		}
		isOpen := make(map[core.Time]bool, len(all))
		for _, s := range all {
			isOpen[s] = true
		}
		for _, s := range closeOrder(all, opts) {
			if !isOpen[s] {
				continue
			}
			rest := make([]core.Time, 0, len(all))
			for _, u := range all {
				if isOpen[u] && u != s {
					rest = append(rest, u)
				}
			}
			if CheckFeasible(in, rest) {
				isOpen[s] = false
			}
		}
		var want []core.Time
		for _, s := range all {
			if isOpen[s] {
				want = append(want, s)
			}
		}
		if !slices.Equal(res.Schedule.Open, want) {
			t.Fatalf("closing loop keeps %v open, fresh-flow sweep keeps %v", res.Schedule.Open, want)
		}
		if err := core.VerifyActive(in, res.Schedule); err != nil {
			t.Fatalf("minimal schedule invalid: %v", err)
		}
		if !IsMinimalFeasible(in, res.Schedule.Open) {
			t.Fatal("closing loop's open set is not minimal")
		}
		if res.ColdFlows != 1 {
			t.Fatalf("%d cold flows, want exactly 1", res.ColdFlows)
		}
		assigned, err := Assign(in, res.Schedule.Open)
		if err != nil {
			t.Fatalf("Assign on the minimal open set: %v", err)
		}
		for _, c := range []struct {
			name  string
			sched *core.ActiveSchedule
		}{{"dealt", res.Schedule}, {"Assign's", assigned}} {
			cert, err := certificateMatchesReference(in, c.sched)
			if err != nil {
				t.Fatalf("certificate on the %s schedule: %v", c.name, err)
			}
			if cost := c.sched.Cost(); cost > cert.MassBound+cert.WitnessMass {
				t.Fatalf("certificate on the %s schedule: cost %d > mass bound %d + witness mass %d",
					c.name, cost, cert.MassBound, cert.WitnessMass)
			}
		}
	})
}
