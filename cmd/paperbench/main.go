// Command paperbench regenerates every experiment table of the
// reproduction (E1-E20: one per figure/claim of the paper plus the
// large-horizon scaling, approximation-gap and live-delta records; the
// index is experiments.All in internal/experiments).
//
// Usage:
//
//	paperbench [-quick] [-only E5 | -only E18,E19] [-seed 7] [-bench-json out.json] [-merge-bench traj.json -label pr7] [-merge-from records.json]
//
// With -bench-json, per-experiment wall times are also written to the given
// path as a JSON array (one object per experiment: id, name, millis, rows,
// columns — the table's column headers, so downstream bench tooling can pin
// the effort columns it parses — and, for experiments that report them, a
// kernel digest of deterministic simplex-kernel counters, an
// approximation digest of realized theorem-bound ratios, and a delta
// digest of live-session re-solve counters), feeding the machine-readable
// benchmark trajectory. The golden test in this package locks the schema.
//
// With -merge-bench, the run's records are appended to a committed
// benchmark-trajectory file as a new labelled entry, after gating: every
// record's approximation digest must satisfy the absolute theorem bounds
// (rounded/LP <= 2, minimal/OPT <= 3, zero repairs, at most one cold flow
// per solve), every delta digest must show delta-vs-cold agreement to 1e-6
// with zero warm-start fallbacks and a >= 5x headline arrival pivot ratio
// at T >= 4096, and against the latest existing entry the experiment set
// must not shrink, no experiment may lose table columns, the kernel
// digest's hypersparse share must not collapse, and the approximation and
// delta counters must not regress. Wall times are recorded but deliberately not gated — they
// are machine-dependent; the gated metrics are the deterministic ones.
// With -merge-from, the records of a previous run's -bench-json output are
// merged instead of running the experiments — the same gates apply; only
// the hours-long recomputation is skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
}

// benchRecord is one experiment's machine-readable timing. Its JSON schema
// (keys, experiment IDs/names, table columns, kernel digest keys) is pinned
// by the golden test; renaming a key or an effort column is a breaking
// change for downstream bench tooling and must update the golden file
// deliberately.
type benchRecord struct {
	ID      string                     `json:"id"`
	Name    string                     `json:"name"`
	Millis  float64                    `json:"millis"`
	Rows    int                        `json:"rows"`
	Columns []string                   `json:"columns"`
	Kernel  *experiments.KernelSummary `json:"kernel,omitempty"`
	Approx  *experiments.ApproxSummary `json:"approx,omitempty"`
	Delta   *experiments.DeltaSummary  `json:"delta,omitempty"`
}

// trajectoryEntry is one labelled run in the committed benchmark
// trajectory (BENCH_TRAJECTORY.json at the repo root).
type trajectoryEntry struct {
	Label   string        `json:"label"`
	Records []benchRecord `json:"records"`
}

type trajectory struct {
	Entries []trajectoryEntry `json:"entries"`
}

// mergeTrajectory appends records as a new entry to the trajectory at
// path, gating first against the latest existing entry. A regression
// returns an error without touching the file.
func mergeTrajectory(path, label string, records []benchRecord) error {
	var traj trajectory
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &traj); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, r := range records {
		if err := checkApprox(r); err != nil {
			return fmt.Errorf("bench trajectory gate: %w", err)
		}
		if err := checkDelta(r); err != nil {
			return fmt.Errorf("bench trajectory gate: %w", err)
		}
	}
	if n := len(traj.Entries); n > 0 {
		if err := checkNonRegression(traj.Entries[n-1], records); err != nil {
			return fmt.Errorf("bench trajectory regression vs entry %q: %w", traj.Entries[n-1].Label, err)
		}
	}
	traj.Entries = append(traj.Entries, trajectoryEntry{Label: label, Records: records})
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trajectory: %w", err)
	}
	return nil
}

// checkNonRegression enforces the monotone gates between the previous
// trajectory entry and the new records, over the experiments the new run
// produced (a -only run gates just that experiment): none of those may
// have disappeared conceptually — they are present by construction — but
// each must keep every table column it ever had and must not collapse its
// kernel digest. Experiments in prev that the new run did not execute are
// left alone, so partial (-only) runs compose with full ones.
func checkNonRegression(prev trajectoryEntry, records []benchRecord) error {
	prevByID := make(map[string]benchRecord, len(prev.Records))
	for _, r := range prev.Records {
		prevByID[r.ID] = r
	}
	for _, r := range records {
		p, ok := prevByID[r.ID]
		if !ok {
			continue // new experiment: trivially non-regressing
		}
		have := make(map[string]bool, len(r.Columns))
		for _, c := range r.Columns {
			have[c] = true
		}
		for _, c := range p.Columns {
			if !have[c] {
				return fmt.Errorf("%s dropped column %q", r.ID, c)
			}
		}
		if p.Kernel != nil {
			if r.Kernel == nil {
				return fmt.Errorf("%s dropped its kernel digest", r.ID)
			}
			// Halving band, not a fixed offset: kernel retunes move the
			// share a little, but a representation change moves it a lot
			// without losing anything — switching the basis from the
			// product-form eta file to Forrest–Tomlin updates took the E18
			// headline share 0.618 -> 0.408 (spike fill densifies the
			// updated-U reach) at a ~4x wall-clock win. Losing the
			// hypersparse path entirely still zeroes the share, which no
			// band survives; the endurance gates pin the absolute floor.
			if r.Kernel.HyperShare < p.Kernel.HyperShare/2 {
				return fmt.Errorf("%s hypersparse share collapsed: %.3f -> %.3f",
					r.ID, p.Kernel.HyperShare, r.Kernel.HyperShare)
			}
			// Forrest–Tomlin non-collapse: once a headline run maintains its
			// basis with in-place updates, a later run silently degrading to
			// per-pivot refactorization (updates -> 0) or resurrecting the
			// eta-dot pass the representation eliminated must not merge.
			if p.Kernel.FTUpdates > 0 && r.Kernel.FTUpdates == 0 {
				return fmt.Errorf("%s Forrest–Tomlin updates collapsed: %d -> 0 (per-pivot refactorization?)",
					r.ID, p.Kernel.FTUpdates)
			}
			if p.Kernel.FTUpdates > 0 && p.Kernel.EtaDotOps == 0 && r.Kernel.EtaDotOps > 0 {
				return fmt.Errorf("%s eta-dot pass resurfaced on the FT default: %d entries traversed",
					r.ID, r.Kernel.EtaDotOps)
			}
		}
		if p.Approx != nil && r.Approx == nil {
			return fmt.Errorf("%s dropped its approximation digest", r.ID)
		}
		if p.Delta != nil && r.Delta == nil {
			return fmt.Errorf("%s dropped its delta digest", r.ID)
		}
		if p.Delta != nil && r.Delta != nil {
			// The fallback counter is an absolute contract (checkDelta pins
			// it at zero), but gate it against the previous entry too so the
			// absolute gate can never be loosened without this one going off.
			if r.Delta.ColdFallbacks > p.Delta.ColdFallbacks {
				return fmt.Errorf("%s warm-start fallbacks regressed: %d -> %d",
					r.ID, p.Delta.ColdFallbacks, r.Delta.ColdFallbacks)
			}
			// Once the headline cell runs at the full horizon, a later entry
			// shrinking it would quietly disarm the >= 5x ratio gate.
			if r.Delta.HeadlineT < p.Delta.HeadlineT {
				return fmt.Errorf("%s headline horizon shrank: %d -> %d (disarms the pivot-ratio gate)",
					r.ID, p.Delta.HeadlineT, r.Delta.HeadlineT)
			}
		}
		if p.Approx != nil && r.Approx != nil {
			// The incremental-flow counters are absolute contracts, but also
			// gate them against the previous entry so a creeping regression
			// (more repairs, more cold flows) cannot ratchet in.
			if r.Approx.Repairs > p.Approx.Repairs {
				return fmt.Errorf("%s repairs regressed: %d -> %d", r.ID, p.Approx.Repairs, r.Approx.Repairs)
			}
			if r.Approx.ColdFlows > p.Approx.ColdFlows {
				return fmt.Errorf("%s cold flows regressed: %d -> %d", r.ID, p.Approx.ColdFlows, r.Approx.ColdFlows)
			}
		}
	}
	return nil
}

// checkApprox enforces the absolute theorem-bound gates on a record's
// approximation digest (no previous entry needed: the bounds come from the
// paper, not from history): realized rounded/LP at most 2 + eps (Theorem 2),
// minimal-feasible/OPT at most 3 (Theorem 1), no defensive repairs, at most
// one cold flow per solve, and no unaccounted proxy mass.
func checkApprox(r benchRecord) error {
	a := r.Approx
	if a == nil {
		return nil
	}
	const eps = 1e-6
	if a.MaxRoundedOverLP > 2+eps {
		return fmt.Errorf("%s rounded/LP ratio %.6f exceeds the Theorem 2 bound 2", r.ID, a.MaxRoundedOverLP)
	}
	if a.MaxMinimalOverOPT > 3+eps {
		return fmt.Errorf("%s minimal/OPT ratio %.6f exceeds the Theorem 1 bound 3", r.ID, a.MaxMinimalOverOPT)
	}
	if a.Repairs != 0 {
		return fmt.Errorf("%s ran %d defensive repairs (expected 0)", r.ID, a.Repairs)
	}
	if a.ColdFlows > 1 {
		return fmt.Errorf("%s ran %d cold flows per solve (incremental contract allows 1)", r.ID, a.ColdFlows)
	}
	if a.DroppedMass > 0.5 {
		return fmt.Errorf("%s dropped %.6f proxy mass (breaks the charging audit)", r.ID, a.DroppedMass)
	}
	return nil
}

// checkDelta enforces the absolute gates on a record's live-session delta
// digest: every delta re-solve must match its cold twin to 1e-6, the
// warm-start fallback counter must be exactly zero (a nonzero count means
// the simplex silently abandoned a live basis), and at the full headline
// horizon the arrival re-solve must be at least 5x cheaper in pivots than
// solving cold — the tentpole claim of the delta machinery.
func checkDelta(r benchRecord) error {
	d := r.Delta
	if d == nil {
		return nil
	}
	if d.MaxObjDelta > 1e-6 {
		return fmt.Errorf("%s delta re-solves diverged %.3e from cold optima (tolerance 1e-6)", r.ID, d.MaxObjDelta)
	}
	if d.ColdFallbacks != 0 {
		return fmt.Errorf("%s fired %d warm-start fallbacks (must be 0: fallbacks are counted, never silent)", r.ID, d.ColdFallbacks)
	}
	if d.HeadlineT >= 4096 && d.HeadlineAddRatio < 5 {
		return fmt.Errorf("%s headline arrival re-solve only %.2fx cheaper than cold at T=%d (want >= 5x)",
			r.ID, d.HeadlineAddRatio, d.HeadlineT)
	}
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run reduced sweeps")
	only := fs.String("only", "", "run only the listed experiment IDs (comma-separated, e.g. E5 or E18,E19)")
	seed := fs.Int64("seed", 7, "random seed for workload generation")
	benchJSON := fs.String("bench-json", "", "write per-experiment wall times as JSON to this path")
	mergeBench := fs.String("merge-bench", "", "append this run to the benchmark-trajectory JSON at the given path (gated, see package doc)")
	label := fs.String("label", "", "entry label for -merge-bench (required with it)")
	mergeFrom := fs.String("merge-from", "", "merge the records in this -bench-json file instead of running experiments (requires -merge-bench; every merge gate still applies)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mergeBench != "" && *label == "" {
		return fmt.Errorf("-merge-bench requires -label")
	}
	if *mergeFrom != "" {
		// Replay path: the experiments already ran (their -bench-json output
		// is the input here), so only the merge — with its full gate set —
		// happens. Useful when a multi-hour run passed every absolute gate
		// but a trajectory calibration needed fixing before the merge.
		if *mergeBench == "" {
			return fmt.Errorf("-merge-from requires -merge-bench")
		}
		data, err := os.ReadFile(*mergeFrom)
		if err != nil {
			return err
		}
		var records []benchRecord
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("parsing %s: %w", *mergeFrom, err)
		}
		return mergeTrajectory(*mergeBench, *label, records)
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	runners := experiments.All()
	if *only != "" {
		runners = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			r, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			runners = append(runners, r)
		}
		if len(runners) == 0 {
			return fmt.Errorf("-only %q names no experiments", *only)
		}
	}
	var records []benchRecord
	err := experiments.RunEach(cfg, stdout, runners,
		func(r experiments.Runner, tab *experiments.Table, elapsed time.Duration) {
			records = append(records, benchRecord{
				ID:      r.ID,
				Name:    r.Name,
				Millis:  float64(elapsed.Microseconds()) / 1000,
				Rows:    len(tab.Rows),
				Columns: tab.Columns,
				Kernel:  tab.Kernel,
				Approx:  tab.Approx,
				Delta:   tab.Delta,
			})
		})
	if err != nil {
		return err
	}
	if *benchJSON != "" {
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*benchJSON, data, 0o644); err != nil {
			return fmt.Errorf("writing bench json: %w", err)
		}
	}
	if *mergeBench != "" {
		if err := mergeTrajectory(*mergeBench, *label, records); err != nil {
			return err
		}
	}
	return nil
}
