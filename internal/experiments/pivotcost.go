package experiments

import (
	"fmt"
	"time"

	"repro/internal/activetime"
	"repro/internal/gen"
)

// E18PivotCost is the pivot-cost scaling study of the factorized simplex
// core: the full LP1 pipeline (SolveLP: adaptive cut batches, purging,
// dual steepest-edge pricing, Forrest–Tomlin updates) on the laminar/nested
// scaling family. For each size it reports the effort anatomy — rounds,
// cuts, purged rows, simplex pivots, refactorizations, the realized
// per-pivot cost — the hypersparse kernel counters, and the Forrest–Tomlin
// update digest (in-place updates, mean spike fill, stability-forced
// refactorizations, peak updated-U fill). The largest size's counters are
// the kernel digest the bench trajectory gates on; the scaling suite
// separately locks the endurance ceilings at T = 16384 and 32768.
func E18PivotCost(cfg Config) (*Table, error) {
	sizes := []int{512, 1024, 2048, 4096}
	if cfg.Quick {
		sizes = []int{256, 512}
	}
	tab := &Table{
		ID:    "E18",
		Title: "Pivot-cost scaling of the LU/FT simplex core",
		Claim: "Forrest–Tomlin updates and hypersparse solves keep per-pivot cost tracking the factors' sparsity as the horizon grows",
		Columns: []string{"T", "n", "LP", "se-ms", "rounds", "cuts", "purged", "se-pivots",
			"refactors", "us/pivot", "hyp%", "ftran-nnz", "btran-nnz", "refills",
			"ft-upd", "spike-nnz", "forced", "ufill%"},
		Retired: []string{"dv-ms", "dv-pivots", "dz-ms", "dz-pivots",
			"fixed32-ms", "fixed32-pivots", "pfi-ms", "pfi-pivots", "pfi-us/pivot"},
	}
	for _, T := range sizes {
		in := gen.LargeHorizon(gen.RandomConfig{
			N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: cfg.Seed,
		})
		start := time.Now()
		def, err := activetime.SolveLP(in)
		if err != nil {
			return nil, fmt.Errorf("T=%d: %w", T, err)
		}
		defMS := float64(time.Since(start).Microseconds()) / 1000
		perPivot := 0.0
		if def.Pivots > 0 {
			perPivot = defMS * 1000 / float64(def.Pivots)
		}
		spikeAvg := 0.0
		if def.Kernel.FTUpdates > 0 {
			spikeAvg = float64(def.Kernel.FTSpikeNNZ) / float64(def.Kernel.FTUpdates)
		}
		tab.AddRow(di(T), di(len(in.Jobs)), f3(def.Objective),
			fmt.Sprintf("%.1f", defMS), di(def.Rounds), di(def.Cuts), di(def.Purged),
			di(def.Pivots), di(def.Refactors), fmt.Sprintf("%.1f", perPivot),
			fmt.Sprintf("%.2f", def.Kernel.HyperShare()),
			fmt.Sprintf("%.1f", def.Kernel.FtranAvgNNZ()),
			fmt.Sprintf("%.1f", def.Kernel.BtranAvgNNZ()),
			di(def.Kernel.RowRefills),
			di(def.Kernel.FTUpdates), fmt.Sprintf("%.1f", spikeAvg),
			di(def.Kernel.ForcedRefactors), di(def.Kernel.UFillMaxPct))
		// The largest size is the headline run whose kernel digest the
		// bench trajectory gates on.
		tab.Kernel = &KernelSummary{
			HyperShare:      def.Kernel.HyperShare(),
			FtranAvgNNZ:     def.Kernel.FtranAvgNNZ(),
			BtranAvgNNZ:     def.Kernel.BtranAvgNNZ(),
			RowRefills:      def.Kernel.RowRefills,
			Pivots:          def.Pivots,
			FTUpdates:       def.Kernel.FTUpdates,
			FTSpikeAvgNNZ:   spikeAvg,
			ForcedRefactors: def.Kernel.ForcedRefactors,
			UFillMaxPct:     def.Kernel.UFillMaxPct,
		}
	}
	tab.Notes = append(tab.Notes,
		"family: laminar binary containers + nested window chains, n = T/8 jobs, g = 4",
		"se-ms/se-pivots: wall time and simplex pivots of SolveLP (dual steepest-edge pricing)",
		"hyp%/ftran-nnz/btran-nnz/refills: hypersparse kernel share, mean result nonzeros per hypersparse FTRAN/BTRAN, dual working-set refill sweeps",
		"ft-upd/spike-nnz/forced/ufill%: Forrest–Tomlin in-place updates, mean spike nonzeros absorbed per update, stability-forced refactorizations, peak updated-U fill vs the refactorization-time factors",
		"BenchmarkSolveLPLargeHorizon records the same pipeline's wall time at T = 1024..4096")
	return tab, nil
}
