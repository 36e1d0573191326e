// Package activetime implements the active-time scheduling algorithms of
// Chang, Khuller and Mukherjee (SPAA 2014), Sections 2-3: scheduling jobs
// with integral release times, deadlines and lengths on a single machine
// that can work on at most g jobs per slot, preemption allowed at integer
// boundaries, minimizing the number of active slots.
//
// The package provides:
//
//   - one flow-carrying network for the paper's Gfeas (Fig. 2), gfeas, on
//     elementary intervals: the integral checker behind CheckFeasible,
//     Assign and the closing loops, and the float separator behind SolveLP
//     and RoundLP's sweep, are that network with open-slot counts or master
//     values as its interval capacities;
//   - MinimalFeasible, the 3-approximation of Theorem 1 (any minimal
//     feasible set of slots);
//   - SolveLP, the optimal value of the LP relaxation LP1, computed by
//     Benders-style cut generation with in-out min-cut separation;
//   - RoundLP, the LP-rounding 2-approximation of Theorem 2 (right-shifted
//     solution, per-deadline rounding with proxy slots);
//   - SolveUnitExact, an exact polynomial algorithm for unit-length jobs
//     (the role played by Chang-Gabow-Khuller [2] in the paper), via
//     interval multicover solved as a difference-constraint system;
//   - SolveExact, an exact branch-and-bound baseline for small instances.
package activetime

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ErrInfeasible is returned when the instance admits no feasible schedule
// even with every slot active.
var ErrInfeasible = errors.New("activetime: instance is infeasible")

// AllSlots returns every slot covered by at least one job window, sorted.
// Slots outside all windows can never be useful.
func AllSlots(in *core.Instance) []core.Time {
	covered := windowSlots(in.Jobs)
	var out []core.Time
	for t, ok := range covered {
		if ok {
			out = append(out, core.Time(t))
		}
	}
	return out
}

// windowSlots marks, by slot index, the slots covered by at least one job
// window; its length is one past the last deadline. Slots start at 1, so
// index 0 is never covered; a window reaching below slot 1 (a negative
// release, which Validate rejects) is cut there.
func windowSlots(jobs []core.Job) []bool {
	covered := make([]bool, lastWindowSlot(jobs)+1)
	for _, j := range jobs {
		for t := max(j.FirstSlot(), 1); t <= j.LastSlot(); t++ {
			covered[t] = true
		}
	}
	return covered
}

// lastWindowSlot returns the last slot of any job window, 0 for no jobs.
func lastWindowSlot(jobs []core.Job) core.Time {
	var last core.Time
	for _, j := range jobs {
		last = max(last, j.LastSlot())
	}
	return last
}

// CheckFeasible reports whether all jobs of the instance can be scheduled
// using only the given open slots: one max flow from zero on a newly built
// feasChecker. Slots outside every job window, and repeats, change nothing.
func CheckFeasible(in *core.Instance, open []core.Time) bool {
	return newFeasChecker(in, open).feasible()
}

// feasChecker answers repeated "does this slot set carry all jobs?"
// max-flow queries over one Gfeas network whose interval values are
// open-slot counts. Every job is always on; only slots toggle, with setSlot
// and trialCloseSlot, which re-capacitate just the slot's interval. It is
// the package's one integral Gfeas network: CheckFeasible and Assign run
// one solve on a new checker, and the closing loops and the exact search
// probe one checker many times.
//
// Interval I carries its open-slot count k: job → I capacity k, I → sink
// capacity g·k. This network carries all jobs exactly when the per-slot
// Gfeas does. Summing a per-slot flow over each interval gives an interval
// flow. Conversely, take an integral interval flow routing f_{j,I} ≤ k
// units of job j into I, with Σ_j f_{j,I} ≤ g·k, and deal its units
// round-robin over I's k open slots, job by job and slot after slot: no
// job's f_{j,I} consecutive units reach one slot twice, and no slot gets
// more than ⌈Σ_j f_{j,I} / k⌉ ≤ g units. So every verdict matches the
// per-slot network's.
//
// schedule turns a flow that meets the demand into a per-slot schedule by
// exactly this deal, so a closing loop that ends on a feasible open set
// already holds its schedule.
//
// The checker keeps the routed flow across every toggle (see gfeas), so a
// query lets Dinic augment only the difference, from the jobs a toggle
// shorted. A trial close whose interval already fits its routed flow with
// one slot fewer cancels nothing and needs no solve at all. The
// minimal-feasible closing loop and the exact search's DFS toggles
// therefore never recompute a flow from scratch: coldFlows counts the
// solves that start from zero routed flow which no repair drained (exactly
// one, the first query) and is the counter the scaling gates pin.
type feasChecker struct {
	gfeas[int64]
	slotOpen []bool // index t: slot t is open
	flow     int64  // flow currently routed (always a valid flow)
	drained  bool   // flow is zero because repairs cancelled every unit
	// Counters for the incremental-flow gates: augments is the number of
	// Dinic continuation calls, coldFlows how many of them started from zero
	// routed flow that was not drained, freeCloses the trial closes answered
	// without any solve.
	augments, coldFlows, freeCloses int
}

// newFeasChecker builds the checker in the state every caller starts from:
// all jobs on, the given slots open, no flow routed. Slots outside every
// job window, and repeats, change nothing. It counts the open slots per
// interval first, so each arc is added at its final capacity.
func newFeasChecker(in *core.Instance, open []core.Time) *feasChecker {
	lay := newIvalLayout(in.Jobs, nil)
	slotOpen := make([]bool, len(lay.slotIval))
	count := make([]int64, len(lay.ivals))
	for _, t := range open {
		if k := lay.ival(t); k >= 0 && !slotOpen[t] {
			slotOpen[t] = true
			count[k]++
		}
	}
	return &feasChecker{gfeas: newGfeas(in, lay, count, 0), slotOpen: slotOpen}
}

// setSlot opens or closes a slot, updating its interval's count and
// re-capacitating the interval while preserving the routed flow, and
// reports whether anything changed. A slot already in that state changes
// nothing, nor does one outside every job window: it can never carry work,
// so its state cannot change feasibility.
func (fc *feasChecker) setSlot(t core.Time, open bool) bool {
	k := fc.ival(t)
	if k < 0 || fc.slotOpen[t] == open {
		return false
	}
	fc.slotOpen[t] = open
	if open {
		fc.val[k]++
	} else {
		fc.val[k]--
	}
	if d := fc.recap([]int32{k}); d > 0 {
		// A repair that cancels every routed unit — a trial close of the
		// one slot that carries the whole demand — leaves the flow
		// drained, not cold: the next solve reroutes just the cancelled
		// units, as every other continuation does.
		fc.flow -= d
		fc.drained = fc.flow == 0
	}
	return true
}

// feasible reports whether the jobs fit in the open slots. The routed flow
// can never exceed the demand, so a flow already at total is maximal and
// the query costs nothing; otherwise Dinic continues from the kept flow's
// residual state and augments only the difference.
func (fc *feasChecker) feasible() bool {
	if fc.flow != fc.total {
		if fc.flow == 0 && !fc.drained {
			fc.coldFlows++
		}
		fc.augments++
		fc.flow += fc.solve()
		fc.drained = fc.drained && fc.flow == 0
	}
	return fc.flow == fc.total
}

// trialCloseSlot attempts to close slot t, assuming the current flow is
// maximal and meets the demand (the closing loops' invariant). When the
// slot's interval already fits its routed flow with one slot fewer — at
// most g·(k−1) units on the sink arc and at most k−1 on every job arc — the
// close cancels nothing, the max flow survives verbatim and the close is
// free: no solve at all. Otherwise Dinic reroutes just the cancelled units;
// if they cannot be rerouted the slot is reopened and the max flow restored
// before returning false, so the invariant holds on exit either way.
// Closing a slot that is closed or outside every window succeeds and
// changes nothing.
func (fc *feasChecker) trialCloseSlot(t core.Time) bool {
	if !fc.setSlot(t, false) {
		return true
	}
	if fc.flow == fc.total {
		fc.freeCloses++
		return true
	}
	if fc.feasible() {
		return true
	}
	fc.setSlot(t, true)
	fc.feasible() // re-augment through the reopened slot; restores flow == total
	return false
}

// schedule deals the routed flow out to the open slots, which is the
// round-robin argument of the type's comment made concrete. It walks the
// intervals in slot order; within one it takes the job arcs in job order
// and deals each arc's f ≤ k units over the interval's k open slots in
// ascending order, continuing where the previous job stopped. So a job's
// units land in distinct slots, and no slot gets more than g. The walk
// appends the wrapped-around part of a job's turn first, so every job's
// slot list comes out ascending. The routed flow must meet the demand, as it
// does after a feasible verdict and between the closing loops' probes;
// anything else is a bug in the caller.
func (fc *feasChecker) schedule() (*core.ActiveSchedule, error) {
	if fc.flow != fc.total {
		return nil, fmt.Errorf("activetime: dealing a flow of %d units for a demand of %d (bug)", fc.flow, fc.total)
	}
	var nOpen int64
	for _, c := range fc.val {
		nOpen += c
	}
	jobs := fc.in.Jobs
	open := make([]core.Time, 0, nOpen)
	slots := carve[core.Time](len(jobs), func(i int) int { return int(jobs[i].Length) })
	for t := 0; t < len(fc.slotIval); {
		k := fc.slotIval[t]
		if k < 0 {
			t++
			continue
		}
		lo := len(open)
		for ; t < len(fc.slotIval) && fc.slotIval[t] == k; t++ {
			if fc.slotOpen[t] {
				open = append(open, core.Time(t))
			}
		}
		ival := open[lo:]
		next := 0
		for _, a := range fc.ivalArcs[k] {
			f := int(fc.net.Flow(a.id))
			if f == 0 { // always so in an interval with no open slot
				continue
			}
			wrap := max(next+f-len(ival), 0)
			slots[a.job] = append(append(slots[a.job], ival[:wrap]...), ival[next:next+f-wrap]...)
			next = (next + f) % len(ival)
		}
	}
	assign := make(map[int][]core.Time, len(jobs))
	for i, j := range jobs {
		assign[j.ID] = slots[i]
	}
	return &core.ActiveSchedule{Open: open, Assign: assign}, nil
}

// Assign computes an integral assignment of all jobs to the given open
// slots, or ErrInfeasible. It runs one max flow from zero on a newly built
// feasChecker and deals that flow out to the slots with schedule. It is
// the schedule path of RoundLP, SolveExact and SolveUnitExact; the
// minimal-feasible closing loop deals its schedule out of the flow it
// already carries instead. The schedule opens the given slots, sorted, even
// those that carry no work: the open set is the caller's solution. An
// instance that fails Validate, or a slot given twice, is an error.
func Assign(in *core.Instance, open []core.Time) (*core.ActiveSchedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sorted := append([]core.Time(nil), open...)
	core.SortSlots(sorted)
	for k := 1; k < len(sorted); k++ {
		if sorted[k] == sorted[k-1] {
			return nil, fmt.Errorf("activetime: slot %d is open twice", sorted[k])
		}
	}
	fc := newFeasChecker(in, sorted)
	if !fc.feasible() {
		return nil, ErrInfeasible
	}
	sched, err := fc.schedule()
	if err != nil {
		return nil, err
	}
	sched.Open = sorted
	return sched, nil
}

// CloseStrategy determines the order in which MinimalFeasible attempts to
// close slots.
type CloseStrategy int

// Closing orders.
const (
	// CloseLeftToRight attempts earliest slots first.
	CloseLeftToRight CloseStrategy = iota
	// CloseRightToLeft attempts latest slots first; this tends to produce
	// right-shifted solutions.
	CloseRightToLeft
)

// MinimalOptions configures MinimalFeasible.
type MinimalOptions struct {
	Strategy CloseStrategy
	// First, if non-empty, lists slots to attempt closing before the rest;
	// gadget experiments use it to steer toward adversarial minimal
	// solutions (e.g. Figure 3).
	First []core.Time
	// Seed shuffles the order (after First) when Shuffle is true.
	Shuffle bool
	Seed    int64
}

// MinimalResult is a minimal feasible schedule plus the flow-effort
// counters of the closing loop. ColdFlows is the number of max-flow solves
// that started from zero routed flow — exactly 1 on any feasible instance,
// schedule included, and the quantity the scaling gates pin (wall time is
// too noisy on the bench box; a from-scratch regression shows up here as
// O(T) cold flows).
type MinimalResult struct {
	Schedule *core.ActiveSchedule
	// Probes is the number of trial-closed slots (= |AllSlots|).
	Probes int
	// FreeCloses counts probes answered without any flow solve because the
	// slot's elementary interval already fit its routed flow with one open
	// slot fewer. A probe answered "keep open" because its interval failed
	// an earlier close counts neither here nor in FlowAugments.
	FreeCloses int
	// FlowAugments counts Dinic continuation calls (incremental re-solves),
	// each started from the shorted jobs' supply arcs.
	FlowAugments int
	// ColdFlows counts flow solves that started from zero routed flow,
	// other than a trial close's re-solve after cancelling every routed
	// unit (possible only when one slot carries the whole demand). The
	// schedule is dealt out of the carried flow, so a sweep runs exactly
	// one.
	ColdFlows int
}

// MinimalFeasible computes a minimal feasible solution (Definition 4):
// starting from every useful slot open, it closes slots in the configured
// order as long as the instance stays feasible. By Theorem 1, the result
// has at most 3*OPT active slots.
func MinimalFeasible(in *core.Instance, opts MinimalOptions) (*core.ActiveSchedule, error) {
	res, err := MinimalFeasibleStats(in, opts)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// MinimalFeasibleStats is MinimalFeasible plus the incremental-flow
// counters. The closing loop carries one max flow across all trial closes:
// each probe either closes a slot for free, when its elementary interval
// already fits its routed flow with one slot fewer, or cancels the excess
// along length-3 flow paths and asks Dinic to reroute just the cancelled
// units (reopening and re-augmenting on failure). That continuation starts
// from the supply arcs of the jobs the cancel shorted, usually one or two,
// not from all n, and routes the same flow as one that scans them all. The
// closing decisions are identical to recomputing a fresh per-slot max flow
// per probe — the max-flow value depends neither on which maximal flow is
// currently routed nor on grouping slots into intervals — so the open set
// is the one a loop that solves each probe from zero would reach. The
// per-slot assignment is dealt out of the flow the loop ends with
// (feasChecker.schedule), not recomputed by Assign.
//
// Once a close in an interval fails, every later probe of a slot in that
// interval keeps it open without a flow. The loop only ever closes slots,
// so a later probe asks about an open set with no more open slots in any
// interval than the one that failed, and feasibility is monotone in the
// per-interval counts.
func MinimalFeasibleStats(in *core.Instance, opts MinimalOptions) (*MinimalResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	open := AllSlots(in)
	fc := newFeasChecker(in, open)
	if !fc.feasible() {
		return nil, ErrInfeasible
	}
	stuck := make([]bool, len(fc.ivals)) // per interval: a close there failed
	probes := 0
	for _, t := range closeOrder(open, opts) {
		k := fc.ival(t)
		if k < 0 || !fc.slotOpen[t] {
			continue
		}
		probes++
		if !stuck[k] && !fc.trialCloseSlot(t) {
			stuck[k] = true
		}
	}
	sched, err := fc.schedule()
	if err != nil {
		return nil, err
	}
	return &MinimalResult{
		Schedule:     sched,
		Probes:       probes,
		FreeCloses:   fc.freeCloses,
		FlowAugments: fc.augments,
		ColdFlows:    fc.coldFlows,
	}, nil
}

// IsMinimalFeasible reports whether the open set is feasible and no single
// slot can be closed while preserving feasibility. Like the closing loop it
// carries one max flow across the per-slot probes instead of recomputing,
// and it probes each elementary interval only until one of its slots fails
// to close: every failed probe reopens its slot, so all probes ask about
// the same open set, in which the slots of one interval are
// interchangeable.
func IsMinimalFeasible(in *core.Instance, open []core.Time) bool {
	fc := newFeasChecker(in, open)
	if !fc.feasible() {
		return false
	}
	stuck := make([]bool, len(fc.ivals))
	for _, t := range open {
		k := fc.ival(t)
		if k >= 0 && stuck[k] {
			continue
		}
		if fc.trialCloseSlot(t) {
			return false
		}
		stuck[k] = true // k >= 0: a slot outside every window always closes
	}
	return true
}

func closeOrder(open []core.Time, opts MinimalOptions) []core.Time {
	rest := make([]core.Time, 0, len(open))
	inFirst := make(map[core.Time]bool, len(opts.First))
	for _, t := range opts.First {
		inFirst[t] = true
	}
	for _, t := range open {
		if !inFirst[t] {
			rest = append(rest, t)
		}
	}
	switch {
	case opts.Shuffle:
		rng := newRand(opts.Seed)
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	case opts.Strategy == CloseRightToLeft:
		for i, j := 0, len(rest)-1; i < j; i, j = i+1, j-1 {
			rest[i], rest[j] = rest[j], rest[i]
		}
	}
	return append(append([]core.Time(nil), opts.First...), rest...)
}
