// Command activesim solves one active-time instance from a JSON file and
// prints the schedule and its certificates.
//
// Usage:
//
//	activesim -in instance.json [-algo minimal|lp-round|unit-exact|exact] [-order ltr|rtl] [-gantt]
//
// The instance format is the one produced by instgen and documented in
// internal/core: {"g": 2, "jobs": [{"id":0,"release":0,"deadline":4,"length":2}, ...]}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/activetime"
	"repro/internal/core"
	"repro/internal/render"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "activesim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("activesim", flag.ContinueOnError)
	path := fs.String("in", "", "instance JSON file (required)")
	algo := fs.String("algo", "minimal", "minimal | lp-round | unit-exact | exact")
	order := fs.String("order", "rtl", "closing order for minimal: ltr | rtl")
	gantt := fs.Bool("gantt", false, "draw ASCII Gantt charts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-in is required")
	}
	strategy, ok := map[string]activetime.CloseStrategy{
		"ltr": activetime.CloseLeftToRight,
		"rtl": activetime.CloseRightToLeft,
	}[*order]
	if !ok {
		return fmt.Errorf("unknown -order %q (want ltr or rtl)", *order)
	}
	in, err := core.LoadInstance(*path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "instance %s: %d jobs, g=%d, horizon=%d, mass=%d\n",
		in.Name, len(in.Jobs), in.G, in.Horizon(), in.TotalLength())

	var sched *core.ActiveSchedule
	switch *algo {
	case "minimal":
		sched, err = activetime.MinimalFeasible(in, activetime.MinimalOptions{Strategy: strategy})
	case "lp-round":
		var res *activetime.RoundingResult
		res, err = activetime.RoundLP(in)
		if err == nil {
			sched = res.Schedule
			fmt.Fprintf(stdout, "LP optimum %.4f; opened %d slots (<= 2*LP: %v); flow checks %d; proxies %d\n",
				res.LPValue, res.Opened, float64(res.Opened) <= 2*res.LPValue+1e-6,
				res.FlowChecks, res.ProxyCarries)
		}
	case "unit-exact":
		sched, err = activetime.SolveUnitExact(in)
	case "exact":
		sched, err = activetime.SolveExact(in, activetime.ExactOptions{})
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}
	if err := core.VerifyActive(in, sched); err != nil {
		return fmt.Errorf("produced schedule failed verification: %w", err)
	}
	fmt.Fprintf(stdout, "active time: %d slots\n", sched.Cost())
	if *gantt {
		render.Instance(stdout, in, render.Options{})
		render.ActiveSchedule(stdout, in, sched, render.Options{})
	}
	fmt.Fprintln(stdout, sched)
	load := sched.Load()
	for _, t := range sched.Open {
		fmt.Fprintf(stdout, "  slot %3d: %d/%d units\n", t, load[t], in.G)
	}
	return nil
}
