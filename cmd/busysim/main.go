// Command busysim solves one busy-time instance from a JSON file and prints
// the bundling with lower-bound certificates.
//
// Usage:
//
//	busysim -in instance.json [-algo greedytracking|firstfit|paircover|exact|preemptive|preemptive-inf]
//	        [-span heuristic|exact]   span minimizer used when jobs are flexible
//	        [-gantt]                  draw ASCII Gantt charts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/busytime"
	"repro/internal/core"
	"repro/internal/render"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "busysim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("busysim", flag.ContinueOnError)
	path := fs.String("in", "", "instance JSON file (required)")
	algo := fs.String("algo", "greedytracking",
		"greedytracking | firstfit | paircover | byrelease | exact | preemptive | preemptive-inf")
	gantt := fs.Bool("gantt", false, "draw ASCII Gantt charts")
	span := fs.String("span", "heuristic", "span minimizer for flexible jobs: heuristic | exact")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-in is required")
	}
	sm, ok := map[string]busytime.SpanMinimizer{
		"heuristic": busytime.HeuristicSpan{},
		"exact":     busytime.ExactSpan{},
	}[*span]
	if !ok {
		return fmt.Errorf("unknown -span %q (want heuristic or exact)", *span)
	}
	in, err := core.LoadInstance(*path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "instance %s: %d jobs, g=%d, mass=%d, interval=%v, class=%s\n",
		in.Name, len(in.Jobs), in.G, in.TotalLength(), in.AllInterval(),
		busytime.SpecialCase(in))

	if *gantt {
		render.Instance(stdout, in, render.Options{})
	}
	switch *algo {
	case "preemptive", "preemptive-inf":
		return runPreemptive(stdout, in, *algo == "preemptive-inf", *gantt)
	}

	intervalAlgo := map[string]busytime.IntervalAlgorithm{
		"greedytracking": func(i *core.Instance) (*core.BusySchedule, error) {
			return busytime.GreedyTracking(i, busytime.GTOptions{})
		},
		"firstfit":  busytime.FirstFit,
		"paircover": busytime.PairCover,
		"byrelease": busytime.GreedyByRelease,
		"exact": func(i *core.Instance) (*core.BusySchedule, error) {
			return busytime.SolveExactInterval(i, busytime.ExactOptions{})
		},
	}[*algo]
	if intervalAlgo == nil {
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	var sched *core.BusySchedule
	if in.AllInterval() {
		sched, err = intervalAlgo(in)
	} else {
		sched, err = busytime.SolveFlexible(in, sm, intervalAlgo)
	}
	if err != nil {
		return err
	}
	if err := core.VerifyBusy(in, sched); err != nil {
		return fmt.Errorf("produced schedule failed verification: %w", err)
	}
	cost, err := sched.Cost(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "busy time: %d over %d machines\n", cost, len(sched.Bundles))
	if *gantt {
		if err := render.BusySchedule(stdout, in, sched, render.Options{}); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "lower bounds: mass/g=%.2f", busytime.MassBound(in))
	if in.AllInterval() {
		fmt.Fprintf(stdout, ", span=%d, demand profile=%d",
			busytime.SpanBound(in), busytime.DemandProfileBound(in))
	}
	fmt.Fprintln(stdout)
	for bi := range sched.Bundles {
		b := &sched.Bundles[bi]
		bt, _ := b.BusyTime(in)
		fmt.Fprintf(stdout, "  machine %d (busy %d):", bi, bt)
		for _, pl := range b.Placements {
			j, _ := in.JobByID(pl.JobID)
			fmt.Fprintf(stdout, " J%d@[%d,%d)", pl.JobID, pl.Start, pl.Start+j.Length)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func runPreemptive(stdout io.Writer, in *core.Instance, unbounded, gantt bool) error {
	var sched *core.PreemptiveSchedule
	var err error
	verifyAgainst := in
	if unbounded {
		sched, err = busytime.PreemptiveUnbounded(in)
		verifyAgainst = in.Clone()
		verifyAgainst.G = len(in.Jobs)
	} else {
		sched, err = busytime.PreemptiveBounded(in)
	}
	if err != nil {
		return err
	}
	if err := core.VerifyPreemptive(verifyAgainst, sched); err != nil {
		return fmt.Errorf("produced schedule failed verification: %w", err)
	}
	optInf, err := busytime.PreemptiveUnboundedValue(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "preemptive busy time: %d over %d machines (OPT_inf=%d, mass/g=%.2f)\n",
		sched.Cost(), len(sched.Machines), optInf, busytime.MassBound(in))
	if gantt {
		render.PreemptiveSchedule(stdout, in, sched, render.Options{})
	}
	for mi := range sched.Machines {
		m := &sched.Machines[mi]
		fmt.Fprintf(stdout, "  machine %d (busy %d):", mi, m.BusyTime())
		for _, p := range m.Pieces {
			fmt.Fprintf(stdout, " J%d%v", p.JobID, p.Span)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
