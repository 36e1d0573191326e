package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/activetime"
	"repro/internal/gen"
)

// E17LPScaling measures the LP1 pipeline at large horizons on the
// laminar/nested scaling family (internal/gen.LargeHorizon): batched
// in-out cut separation (each separation's max flow harvests the global
// minimum cut plus per-deficient-job violators) on the factorized
// revised-simplex master.
//
// At the smallest size, where the exact engine is affordable at all, it
// also solves LP1 with activetime.SolveLPExact and asserts that the float
// optimum equals the exact one (1e-6).
func E17LPScaling(cfg Config) (*Table, error) {
	sizes := []int{128, 256, 512, 1024, 2048}
	exactUpTo := 128 // dense rational tableaus; keep the check tiny
	if cfg.Quick {
		sizes = []int{128, 256}
	}
	tab := &Table{
		ID:    "E17",
		Title: "LP1 pipeline at large horizons",
		Claim: "batched separation solves LP1 in a handful of rounds well past T ~ 1000",
		Columns: []string{"T", "n", "LP", "batch-ms", "batch-rounds", "batch-cuts",
			"batch-pivots"},
		Retired: []string{"single-ms", "single-rounds", "exact-warm-piv", "exact-cold-piv"},
	}
	for _, T := range sizes {
		in := gen.LargeHorizon(gen.RandomConfig{
			N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: cfg.Seed,
		})
		start := time.Now()
		batched, err := activetime.SolveLP(in)
		if err != nil {
			return nil, fmt.Errorf("T=%d batched: %w", T, err)
		}
		batchMS := float64(time.Since(start).Microseconds()) / 1000
		if T <= exactUpTo {
			exact, err := activetime.SolveLPExact(in)
			if err != nil {
				return nil, fmt.Errorf("T=%d exact: %w", T, err)
			}
			wantLP, _ := exact.Objective.Float64()
			if math.Abs(batched.Objective-wantLP) > 1e-6 {
				return nil, fmt.Errorf("T=%d: float LP %.9f != exact LP %.9f", T, batched.Objective, wantLP)
			}
		}
		tab.AddRow(di(T), di(len(in.Jobs)), f3(batched.Objective),
			fmt.Sprintf("%.1f", batchMS), di(batched.Rounds), di(batched.Cuts),
			di(batched.Pivots))
	}
	tab.Notes = append(tab.Notes,
		"family: laminar binary containers + nested window chains, n = T/8 jobs, g = 4",
		"LP: at T <= 128 the float optimum is asserted equal to SolveLPExact's exact one (1e-6)",
		"E18 carries the sweep to T = 4096 with the effort anatomy of the factorized core")
	return tab, nil
}
