package activetime

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// scalingInstance is the pinned endurance family of the ROADMAP record:
// the large-horizon scaling family at seed 3, with the horizon and job
// density chosen by the caller (n = T/8 canonical, n = T/32 light).
func scalingInstance(T, density int) *gen.RandomConfig {
	return &gen.RandomConfig{N: T / density, Horizon: T, MaxLen: 16, G: 4, Seed: 3}
}

// skipUnlessEndurance is the shared gate of the minutes-long scaling
// tests: they skip in -short runs and under go test's default 10-minute
// deadline, so plain `go test ./...` stays fast and timeout-safe — the CI
// scaling job opts in by raising -timeout, and its hard ceiling doubles as
// each test's budget. budget is the head-room the test wants on the
// deadline clock (generous: the same gate must hold on slow runners and
// under the race detector's instruction-level slowdown).
func skipUnlessEndurance(t *testing.T, budget time.Duration) {
	t.Helper()
	if testing.Short() {
		t.Skip("minutes-long endurance test")
	}
	if d, ok := t.Deadline(); ok && time.Until(d) < budget {
		t.Skipf("needs a raised -timeout with ≥ %v head-room (the CI scaling job passes -timeout 40m)", budget)
	}
}

// checkKernelRegime asserts the tentpole property of the hypersparse
// kernel work on an endurance solve: per-pivot triangular-solve cost
// tracking result nonzeros, not the basis dimension m. All gates are
// deterministic counters — pivot counts and kernel nonzero averages are
// exactly reproducible for a pinned instance — except the final µs-per-
// pivot ceiling, which is a catastrophe backstop (dense-everywhere
// fallback, trajectory explosion) padded far above any plausible runner
// jitter rather than a tight wall-clock gate.
//
// maxPivots is calibrated against the known-good trajectory with head-room
// below the nearest observed bad basin: trajectory-perturbing changes
// (refactorization cadence, float accumulation order) land in basins that
// at least double the pivot count, so a ~5% ceiling separates cleanly.
func checkKernelRegime(t *testing.T, res *LPResult, maxPivots, maxUsPerPivot int, elapsed time.Duration) {
	t.Helper()
	if res.Pivots > maxPivots {
		t.Errorf("pivot trajectory regressed: %d pivots > %d ceiling (bad pricing/ordering basins double the count)",
			res.Pivots, maxPivots)
	}
	if share := res.Kernel.HyperShare(); share < 0.2 {
		t.Errorf("hypersparse kernels carried only %.1f%% of triangular solves; want ≥ 20%% at this scale", 100*share)
	}
	// The surviving cut rows bound the final basis dimension m; a dense
	// pivot-row BTRAN would average m nonzeros, so the hypersparse results
	// staying under m/4 certifies the kernels exploit genuine sparsity.
	if m := res.Cuts - res.Purged; res.Kernel.BtranHyper > 0 {
		if avg := res.Kernel.BtranAvgNNZ(); avg > float64(m)/4 {
			t.Errorf("hypersparse BTRAN results average %.0f nonzeros, above m/4 = %d: kernel cost no longer tracks sparsity",
				avg, m/4)
		}
	}
	usPerPivot := float64(elapsed.Microseconds()) / float64(res.Pivots)
	if usPerPivot > float64(maxUsPerPivot) {
		t.Errorf("%.0f µs/pivot exceeds the %d µs catastrophe ceiling", usPerPivot, maxUsPerPivot)
	}
	t.Logf("kernel regime: %.0f µs/pivot, hyperShare=%.3f ftranAvgNNZ=%.1f btranAvgNNZ=%.1f refills=%d",
		usPerPivot, res.Kernel.HyperShare(), res.Kernel.FtranAvgNNZ(), res.Kernel.BtranAvgNNZ(), res.Kernel.RowRefills)
}

// runCanonicalEndurance is the shared body of the canonical-density
// (n = T/8) endurance tests: solve the pinned scaling instance, check the
// LP optimum against the demand lower bound, require the cut lifecycle to
// be live, gate the largest single warm repair, and gate the hypersparse
// kernel regime (pivot trajectory, kernel counters, catastrophe µs/pivot
// ceiling).
//
// maxWarmPivots bounds the most pivots one warm master re-solve may spend.
// An aged basis stalls the dual simplex long before the total pivot
// count notices: at T = 32768 the Kelley-separation loop spent 6,047
// pivots on one warm repair and then 20,085 on a stalled one that fell
// back cold, while its 96,339 total stayed under its 110,000 ceiling. A
// change that merely moves a stall to another round shows here.
func runCanonicalEndurance(t *testing.T, T, maxPivots, maxWarmPivots, maxUsPerPivot int) {
	in := gen.LargeHorizon(*scalingInstance(T, 8))
	start := time.Now()
	def, err := SolveLP(in)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("SolveLP at T=%d n=T/8: %v", T, err)
	}
	if def.Objective <= 0 {
		t.Fatalf("degenerate LP optimum %v", def.Objective)
	}
	// Independent lower bound: opening fewer than P/g slots cannot host
	// the total demand P, so any valid LP optimum is at least P/g.
	demand := 0.0
	for _, j := range in.Jobs {
		demand += float64(j.Length)
	}
	if lb := demand / float64(in.G); def.Objective < lb-1e-6 {
		t.Fatalf("LP optimum %.6f below the demand bound P/g = %.6f", def.Objective, lb)
	}
	if def.Purged == 0 {
		t.Errorf("cut purging never fired at T=%d; lifecycle policy is dead at scale", T)
	}
	// The warm-start escape hatch must never fire on the canonical
	// trajectory: every round's basis must resolve from where the last
	// round left it. A nonzero count means a cut round handed the simplex
	// a basis it silently abandoned — the exact failure mode the counter
	// exists to surface.
	if def.ColdFallbacks != 0 {
		t.Errorf("warm-start fallback fired %d times at T=%d; verdicts:\n  %s",
			def.ColdFallbacks, T, strings.Join(def.FallbackVerdicts, "\n  "))
	}
	// Healthy Forrest–Goldfarb updates keep every pricing weight exact, so
	// the staleness detector's full reset must not fire either: a reset here
	// means the update arithmetic drifted on the canonical trajectory.
	if def.Kernel.WeightResets != 0 {
		t.Errorf("dual pricing weights were reset %d times at T=%d: the weight updates drifted",
			def.Kernel.WeightResets, T)
	}
	if def.MaxWarmPivots > maxWarmPivots {
		t.Errorf("largest warm repair spent %d pivots at T=%d, above the %d ceiling: the inherited basis is stalling",
			def.MaxWarmPivots, T, maxWarmPivots)
	}
	checkKernelRegime(t, def, maxPivots, maxUsPerPivot, elapsed)
	writeScalingRecord(t, T, len(in.Jobs), def, elapsed)
	t.Logf("T=%d n=%d: obj=%.3f rounds=%d cuts=%d purged=%d pivots=%d max-warm-pivots=%d refactors=%d fallbacks=%d weight-resets=%d in %v",
		T, len(in.Jobs), def.Objective, def.Rounds, def.Cuts, def.Purged, def.Pivots, def.MaxWarmPivots,
		def.Refactors, def.ColdFallbacks, def.Kernel.WeightResets, elapsed.Round(time.Millisecond))
}

// writeScalingRecord appends the endurance run's machine-readable digest to
// the JSON array file named by SCALING_BENCH_JSON, when set — the CI
// scaling job points it at its benchmark artifact so the T = 16384 and
// T = 32768 records ship alongside the paperbench tables. A no-op
// otherwise, so local runs stay artifact-free.
func writeScalingRecord(t *testing.T, T, n int, res *LPResult, elapsed time.Duration) {
	path := os.Getenv("SCALING_BENCH_JSON")
	if path == "" {
		return
	}
	type record struct {
		T          int     `json:"t"`
		N          int     `json:"n"`
		Millis     float64 `json:"millis"`
		Pivots     int     `json:"pivots"`
		MaxWarm    int     `json:"maxWarmPivots"`
		UsPerPivot float64 `json:"usPerPivot"`
		Rounds     int     `json:"rounds"`
		Cuts       int     `json:"cuts"`
		Purged     int     `json:"purged"`
		Refactors  int     `json:"refactors"`
		HyperShare float64 `json:"hyperShare"`
		FtranNNZ   float64 `json:"ftranAvgNnz"`
		BtranNNZ   float64 `json:"btranAvgNnz"`
		Refills    int     `json:"rowRefills"`
		Resets     int     `json:"weightResets"`
	}
	var recs []record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	}
	recs = append(recs, record{
		T: T, N: n,
		Millis:     float64(elapsed.Microseconds()) / 1000,
		Pivots:     res.Pivots,
		MaxWarm:    res.MaxWarmPivots,
		UsPerPivot: float64(elapsed.Microseconds()) / float64(res.Pivots),
		Rounds:     res.Rounds, Cuts: res.Cuts, Purged: res.Purged, Refactors: res.Refactors,
		HyperShare: res.Kernel.HyperShare(),
		FtranNNZ:   res.Kernel.FtranAvgNNZ(),
		BtranNNZ:   res.Kernel.BtranAvgNNZ(),
		Refills:    res.Kernel.RowRefills,
		Resets:     res.Kernel.WeightResets,
	})
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}

// TestSolveLPHorizon16k is the horizon-scale endurance test at the paper's
// canonical job density: a genuine T = 16384, n = T/8 instance of the
// scaling family must solve inside the CI scaling-job budget, which takes
// steepest-edge pricing, the hypersparse FTRAN/BTRAN kernels, cut-row
// working-set pricing and Forrest–Tomlin updates together. The known-good
// trajectory, on the master with one column per elementary interval and
// one surplus per row, spends 1698 pivots over 56 rounds (2503 cuts, 245
// purged, 142 refactors, hypersparse share 0.84, about 1.2 s on a 2-vCPU
// Xeon), none of its warm repairs above 83. The 2280 ceiling is 1.34× those
// pivots, the head-room the T = 32768 run's ceiling keeps, so a pricing or
// ordering change that drops the solve into a worse basin fails. It skips
// under the race detector, where the instruction-level slowdown would
// turn minutes into the better part of an hour —
// TestSolveLPHorizon16kLight is the race-mode endurance run.
func TestSolveLPHorizon16k(t *testing.T) {
	if raceEnabled {
		t.Skip("minutes-long run; the race build exercises TestSolveLPHorizon16kLight instead")
	}
	skipUnlessEndurance(t, 15*time.Minute)
	// Calibration on a 2-vCPU Xeon: ~0.7 ms/pivot, separation included
	// (~0.8 with one master column per slot, ~1.4 with the per-slot
	// separator); the ceiling pads ~10× for slower
	// runners while still catching a dense-everywhere or quadratic-pricing
	// catastrophe.
	runCanonicalEndurance(t, 16384, 2280, 1500, 8000)
}

// TestSolveLPHorizon32k doubles the endurance horizon to T = 32768 at the
// same canonical n = T/8 density — 4096 jobs over 32768 slots — the scale
// the hypersparse kernels and the giant-tier batch cap exist for. Gated
// like the 16k run: deterministic pivot/kernel assertions plus a padded
// catastrophe ceiling, inside the CI scaling job's 40-minute budget.
func TestSolveLPHorizon32k(t *testing.T) {
	if raceEnabled {
		t.Skip("minutes-long run; the race build exercises TestSolveLPHorizon16kLight instead")
	}
	skipUnlessEndurance(t, 30*time.Minute)
	// The known-good trajectory, on the master with one column per
	// elementary interval and one surplus per row, spends 2905 pivots over
	// 48 rounds (4770 cuts, 361 purged, 210 refactors, hypersparse share
	// 0.88, about 2.6 s on a 2-vCPU Xeon) with no fallback, its largest warm
	// repair 132 pivots. The 3900 ceiling was set at 1.14× the 3421 pivots
	// of the per-slot separator, the head-room that the Kelley-separation
	// loop's 110000 ceiling had over its 96339 pivots, and is 1.34× the
	// pivots now; the warm-repair ceiling of 1500 is a quarter of that
	// loop's 6,047-pivot repair before its stall.
	runCanonicalEndurance(t, 32768, 3900, 1500, 15000)
}

// TestSolveLPHorizon16kLight runs at the light n = T/32 density: the full
// 16k horizon, master width and cut lifecycle
// machinery at a density affordable under the race detector, where the
// canonical-density test skips. The purging pipeline must agree with the
// never-purging fixed-batch reference (32 cuts per round). It shares the
// -short/deadline gate of the other endurance tests (rather than a
// hard-coded build-mode skip): the race build's slowdown is exactly what the
// deadline budget absorbs.
func TestSolveLPHorizon16kLight(t *testing.T) {
	skipUnlessEndurance(t, 8*time.Minute)
	in := gen.LargeHorizon(*scalingInstance(16384, 32))
	def, err := SolveLP(in)
	if err != nil {
		t.Fatalf("SolveLP at T=16384: %v", err)
	}
	fixed, err := solveLP(in, lpOptions{batchCap: 32})
	if err != nil {
		t.Fatalf("fixed-batch solveLP at T=16384: %v", err)
	}
	if math.Abs(def.Objective-fixed.Objective) > 1e-6 {
		t.Fatalf("purged LP %.9f != fixed-batch LP %.9f", def.Objective, fixed.Objective)
	}
	if def.Objective <= 0 {
		t.Fatalf("degenerate LP optimum %v", def.Objective)
	}
	if def.Purged == 0 {
		t.Error("cut purging never fired at T=16384; lifecycle policy is dead at scale")
	}
	if def.ColdFallbacks+fixed.ColdFallbacks != 0 {
		t.Errorf("warm-start fallback fired (purged %d, fixed-batch %d); verdicts:\n  %s",
			def.ColdFallbacks, fixed.ColdFallbacks,
			strings.Join(append(def.FallbackVerdicts, fixed.FallbackVerdicts...), "\n  "))
	}
	t.Logf("T=16384 n=%d: obj=%.3f rounds=%d cuts=%d purged=%d pivots=%d refactors=%d",
		len(in.Jobs), def.Objective, def.Rounds, def.Cuts, def.Purged, def.Pivots, def.Refactors)
}
