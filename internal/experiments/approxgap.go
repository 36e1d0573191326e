package experiments

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/activetime"
	"repro/internal/core"
	"repro/internal/gen"
)

// approxCell is one family × horizon point of the E19 grid.
type approxCell struct {
	family string
	T      int
	make   func(seed int64) *core.Instance
	// unitExact marks families solvable by the polynomial unit-job exact
	// algorithm at every size; other families get branch and bound only at
	// small T.
	unitExact bool
}

// e19Grid enumerates every generator family at horizons up to 32768. Full
// mode is sized for the CI scaling job (the two largest scaling cells
// dominate: one LP solve each at T = 16384 and 32768); Quick keeps one
// small cell per family so the golden schema test stays fast.
func e19Grid(quick bool) []approxCell {
	flexible := func(T int) approxCell {
		return approxCell{family: "flexible", T: T, make: func(seed int64) *core.Instance {
			return gen.RandomFlexible(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 8, Slack: 8, G: 4, Seed: seed})
		}}
	}
	interval := func(T int) approxCell {
		return approxCell{family: "interval", T: T, make: func(seed int64) *core.Instance {
			return gen.RandomInterval(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 8, G: 4, Seed: seed})
		}}
	}
	unit := func(T int) approxCell {
		return approxCell{family: "unit", T: T, unitExact: true, make: func(seed int64) *core.Instance {
			return gen.RandomUnit(gen.RandomConfig{N: T / 4, Horizon: T, Slack: 6, G: 3, Seed: seed})
		}}
	}
	clique := func(T int) approxCell {
		// Clique jobs are rigid intervals through one common point:
		// feasibility needs N <= G.
		return approxCell{family: "clique", T: T, make: func(seed int64) *core.Instance {
			return gen.RandomClique(gen.RandomConfig{N: 4, Horizon: T, MaxLen: T / 4, G: 4, Seed: seed})
		}}
	}
	proper := func(T int) approxCell {
		// The proper generator derives its horizon from N (~2N), so N = T/2.
		return approxCell{family: "proper", T: T, make: func(seed int64) *core.Instance {
			return gen.RandomProper(gen.RandomConfig{N: T / 2, Horizon: T, MaxLen: 6, G: 3, Seed: seed})
		}}
	}
	laminar := func(T int) approxCell {
		// Laminar jobs fill their whole window; g must cover the nesting depth,
		// and one depth-5 laminar tree already demands ~(depth+1)·T units
		// against g·T capacity, so n caps at one tree's worth of jobs — a
		// second root job alone would overflow the horizon.
		return approxCell{family: "laminar", T: T, make: func(seed int64) *core.Instance {
			n := T / 4
			if n > 48 {
				n = 48
			}
			return gen.RandomLaminar(gen.RandomConfig{N: n, Horizon: T, G: 6, Seed: seed})
		}}
	}
	hardness := func(T int) approxCell {
		// Selector-chain reduction gadgets (arXiv 2112.03255); T = 3k.
		return approxCell{family: "hardness", T: T, make: func(seed int64) *core.Instance {
			return gen.Hardness(T/3, 3)
		}}
	}
	scaling := func(T int) approxCell {
		return approxCell{family: "scaling", T: T, make: func(seed int64) *core.Instance {
			return gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: seed})
		}}
	}
	if quick {
		return []approxCell{
			flexible(32), interval(32), unit(32), clique(32),
			proper(32), laminar(32), hardness(24), scaling(64),
		}
	}
	return []approxCell{
		flexible(32), flexible(1024), flexible(8192),
		interval(32), interval(1024), interval(8192),
		unit(32), unit(1024), unit(8192),
		clique(32), clique(256),
		proper(32), proper(1024),
		laminar(32), laminar(512),
		hardness(24), hardness(384), hardness(1536),
		scaling(32), scaling(1024), scaling(4096), scaling(16384), scaling(32768),
	}
}

// exactHorizonCap bounds the branch-and-bound cells: above this horizon the
// search space is out of reach and the row reports bound-relative ratios
// only. Unit-family cells ignore it (their exact solver is polynomial).
const exactHorizonCap = 32

// ApproxSummary is the machine-readable digest of one E19 run: worst-case
// realized approximation ratios plus the counters that prove the post-LP
// pipeline ran incrementally. paperbench exports it into the bench records
// and gates the committed trajectory on it: the ratio bounds are absolute
// (2 for rounding vs LP, 3 for minimal-feasible vs OPT) and the counters
// must not regress between entries.
type ApproxSummary struct {
	MaxRoundedOverLP  float64 `json:"maxRoundedOverLp"`
	MaxMinimalOverLP  float64 `json:"maxMinimalOverLp"`
	MaxMinimalOverOPT float64 `json:"maxMinimalOverOpt"` // 0 when no cell reached an exact optimum
	MaxRoundedOverOPT float64 `json:"maxRoundedOverOpt"` // 0 when no cell reached an exact optimum
	Repairs           int     `json:"repairs"`           // total defensive repairs across cells (expected 0)
	ColdFlows         int     `json:"coldFlows"`         // max per-cell cold flows across rounding and minimal runs
	DroppedMass       float64 `json:"droppedMass"`       // max per-cell unplaced proxy mass
	Cells             int     `json:"cells"`
}

// E19ApproxGap runs the paper's two approximation deliverables — the
// Theorem 2 LP rounding and the Theorem 1 minimal feasible solution — over
// every generator family at horizons up to 32768 and records the realized
// ratios against the LP lower bound and, where an exact optimum is
// reachable (branch and bound at small T, the polynomial unit solver at
// every T), against OPT. Every row re-asserts the theorem bounds and the
// incremental-flow contract (no defensive repairs, no charging-invariant
// trips, at most one cold max-flow per solve); any violation fails the
// experiment rather than printing a bad row.
func E19ApproxGap(cfg Config) (*Table, error) {
	cells := e19Grid(cfg.Quick)
	tab := &Table{
		ID:    "E19",
		Title: "Approximation gap across families and horizons (Theorems 1 and 2 at scale)",
		Claim: "rounded <= 2*LP and minimal <= 3*OPT hold at every horizon the LP engine reaches, with incremental (not from-scratch) feasibility flows",
		Columns: []string{"family", "T", "n", "LP", "rounded", "minimal", "OPT",
			"rnd/LP", "min/LP", "min/OPT", "rnd-ms", "min-aug", "flow-checks", "cold"},
	}
	sum := &ApproxSummary{}
	for _, c := range cells {
		in := c.make(cfg.Seed)
		res, err := activetime.RoundLP(in)
		if err == activetime.ErrInfeasible {
			tab.AddRow(c.family, di(c.T), di(len(in.Jobs)), "infeasible",
				"-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s T=%d: RoundLP: %w", c.family, c.T, err)
		}
		if verr := core.VerifyActive(in, res.Schedule); verr != nil {
			return nil, fmt.Errorf("%s T=%d: rounded schedule invalid: %v", c.family, c.T, verr)
		}
		rndLP := float64(res.Opened) / res.LPValue
		if float64(res.Opened) > 2*res.LPValue+1e-6 {
			return nil, fmt.Errorf("%s T=%d: opened %d > 2*LP %.6f", c.family, c.T, res.Opened, res.LPValue)
		}
		if res.InvariantViolated {
			return nil, fmt.Errorf("%s T=%d: 2*LP charging invariant violated", c.family, c.T)
		}
		if res.Repairs != 0 {
			return nil, fmt.Errorf("%s T=%d: rounding needed %d defensive repairs", c.family, c.T, res.Repairs)
		}
		if res.ColdFlows > 1 {
			return nil, fmt.Errorf("%s T=%d: rounding ran %d cold flows (incremental contract broken)", c.family, c.T, res.ColdFlows)
		}
		minres, err := activetime.MinimalFeasibleStats(in, activetime.MinimalOptions{
			Strategy: activetime.CloseRightToLeft,
		})
		if err != nil {
			return nil, fmt.Errorf("%s T=%d: MinimalFeasible: %w", c.family, c.T, err)
		}
		if minres.ColdFlows > 1 {
			return nil, fmt.Errorf("%s T=%d: minimal-feasible ran %d cold flows (incremental contract broken)", c.family, c.T, minres.ColdFlows)
		}
		minCost := float64(minres.Schedule.Cost())
		minLP := minCost / res.LPValue
		optCell, minOPT := "-", "-"
		var opt float64
		haveOPT := false
		if c.unitExact {
			ex, exErr := activetime.SolveUnitExact(in)
			if exErr != nil {
				return nil, fmt.Errorf("%s T=%d: SolveUnitExact: %w", c.family, c.T, exErr)
			}
			opt, haveOPT = float64(ex.Cost()), true
		} else if c.T <= exactHorizonCap {
			ex, exErr := activetime.SolveExact(in, activetime.ExactOptions{MaxNodes: 2_000_000})
			switch {
			case errors.Is(exErr, activetime.ErrSearchBudget):
				// OPT unreachable here: report bound-relative ratios only.
			case exErr != nil:
				return nil, fmt.Errorf("%s T=%d: SolveExact: %w", c.family, c.T, exErr)
			default:
				opt, haveOPT = float64(ex.Cost()), true
			}
		}
		if haveOPT {
			optCell = d(int64(opt))
			mo := minCost / opt
			ro := float64(res.Opened) / opt
			minOPT = f3(mo)
			if mo > 3+1e-9 {
				return nil, fmt.Errorf("%s T=%d: minimal %d > 3*OPT %d", c.family, c.T, int(minCost), int(opt))
			}
			sum.MaxMinimalOverOPT = math.Max(sum.MaxMinimalOverOPT, mo)
			sum.MaxRoundedOverOPT = math.Max(sum.MaxRoundedOverOPT, ro)
		}
		sum.MaxRoundedOverLP = math.Max(sum.MaxRoundedOverLP, rndLP)
		sum.MaxMinimalOverLP = math.Max(sum.MaxMinimalOverLP, minLP)
		sum.Repairs += res.Repairs
		if cf := res.ColdFlows; cf > sum.ColdFlows {
			sum.ColdFlows = cf
		}
		if cf := minres.ColdFlows; cf > sum.ColdFlows {
			sum.ColdFlows = cf
		}
		sum.DroppedMass = math.Max(sum.DroppedMass, res.DroppedMass)
		sum.Cells++
		tab.AddRow(c.family, di(c.T), di(len(in.Jobs)), f3(res.LPValue),
			di(res.Opened), d(int64(minCost)), optCell,
			f3(rndLP), f3(minLP), minOPT,
			f2(res.SweepMillis+res.ShiftMillis+res.VerifyMillis+res.AssignMillis+res.LPMillis),
			di(minres.FlowAugments), di(res.FlowChecks), di(res.ColdFlows+minres.ColdFlows))
	}
	tab.Approx = sum
	tab.Notes = append(tab.Notes,
		"rnd-ms includes the LP solve; min-aug is MinimalFeasible's Dinic continuation count (deterministic, unlike wall time)",
		"OPT: branch and bound at T <= 32, polynomial unit-job exact solver at every T for the unit family",
		"every row asserts rounded <= 2*LP, Repairs == 0, InvariantViolated == false, minimal <= 3*OPT, and at most one cold flow per solve",
		"cold = from-zero max-flow solves across the rounding sweep and the minimal-feasible closing loop (flow-carrying contract)")
	return tab, nil
}
