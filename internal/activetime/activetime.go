// Package activetime implements the active-time scheduling algorithms of
// Chang, Khuller and Mukherjee (SPAA 2014), Sections 2-3: scheduling jobs
// with integral release times, deadlines and lengths on a single machine
// that can work on at most g jobs per slot, preemption allowed at integer
// boundaries, minimizing the number of active slots.
//
// The package provides:
//
//   - a max-flow feasibility oracle over the paper's network Gfeas (Fig. 2);
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
	"repro/internal/flow"
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

// gfeasDegrees counts the arcs each node of a Gfeas network holds, reverse
// arcs included, so that flow.NewNetworkDegrees can carve every adjacency
// list out of one exactly sized array. Every Gfeas network has the source →
// job → slot → sink shape and its numbering: source 0, job i at node 1+i,
// nNodes slot nodes after the jobs, the sink last. Networks differ only in
// which slots get a node, which slotNode gives by slot, with 0 (the source)
// for a slot that has none. Both production builders, feasChecker and the
// LP separator, take their nodes from newIvalLayout: one node per
// elementary interval. The test oracles give each slot its own node. A
// slot node holds its sink arc and one arc per job whose window covers it;
// a job node holds its supply arc and one arc per distinct node along its
// window. Windows are cut at slot 1, as windowSlots cuts them.
func gfeasDegrees(jobs []core.Job, slotNode []int, nNodes int) []int {
	n := len(jobs)
	deg := make([]int, 2+n+nNodes)
	deg[0] = n
	for v := 1 + n; v <= n+nNodes; v++ {
		deg[v] = 1
	}
	deg[1+n+nNodes] = nNodes
	for i, j := range jobs {
		deg[1+i]++
		prev := 0
		for t := max(j.FirstSlot(), 1); t <= j.LastSlot(); t++ {
			v := slotNode[t]
			if v != 0 && v != prev {
				deg[1+i]++
				deg[v]++
			}
			prev = v
		}
	}
	return deg
}

// ivalLayout groups the window slots of a job set into elementary
// intervals: maximal runs of window slots that no release or deadline
// splits, so that every slot of a run lies in the same job windows. Both
// Gfeas builders, feasChecker and the LP separator, number their nodes by
// it: source 0, job i at 1+i, interval k at 1+n+k in slot order, the sink
// last. A Session's separator cuts the runs further, at the bounds of its
// master's atoms.
type ivalLayout struct {
	slotIval []int32 // index t: slot t's interval, -1 outside every window
	slotNode []int   // index t: slot t's interval node, 0 outside every window
	nIvals   int
	deg      []int // the network's arc counts (gfeasDegrees)
}

// newIvalLayout computes the elementary intervals of the jobs' windows and
// the arc counts of the network on them. With atomCol, a Session's map from
// slot to master column (see Session), a window slot also starts an
// interval where atomCol changes, so the intervals are the atoms that some
// window covers; nil adds no cuts. Its slot indices run to the last window
// slot.
func newIvalLayout(jobs []core.Job, atomCol []int32) ivalLayout {
	covered := windowSlots(jobs)
	// cut[t]: some window starts at slot t or ends at slot t-1, or an atom
	// starts at slot t. A window slot starts a new interval exactly there;
	// the first slot after a gap is always a window start.
	cut := make([]bool, len(covered)+1)
	for _, j := range jobs {
		if lo, hi := max(j.FirstSlot(), 1), j.LastSlot(); lo <= hi {
			cut[lo], cut[hi+1] = true, true
		}
	}
	for t := 1; t < min(len(covered), len(atomCol)); t++ {
		cut[t] = cut[t] || atomCol[t] != atomCol[t-1]
	}
	l := ivalLayout{slotIval: make([]int32, len(covered)), slotNode: make([]int, len(covered))}
	for t, ok := range covered {
		l.slotIval[t] = -1
		if ok {
			if cut[t] {
				l.nIvals++
			}
			l.slotIval[t] = int32(l.nIvals - 1)
			l.slotNode[t] = len(jobs) + l.nIvals
		}
	}
	l.deg = gfeasDegrees(jobs, l.slotNode, l.nIvals)
	return l
}

// carve returns n empty lists, list k with room for count(k) entries, all
// cut from one array. A list appended past its room moves to its own array
// and leaves its neighbours' entries intact.
func carve[T any](n int, count func(k int) int) [][]T {
	total := 0
	for k := 0; k < n; k++ {
		total += count(k)
	}
	all := make([]T, total)
	lists := make([][]T, n)
	for k := range lists {
		c := count(k)
		lists[k], all = all[:0:c], all[c:]
	}
	return lists
}

// CheckFeasible reports whether all jobs of the instance can be scheduled
// using only the given open slots: one max flow from zero on a newly built
// feasChecker. Slots outside every job window, and repeats, change nothing.
func CheckFeasible(in *core.Instance, open []core.Time) bool {
	return newFeasChecker(in, open).feasible()
}

// feasChecker answers repeated "does this slot set carry all jobs?"
// max-flow queries over one persistent network. Every job is always on;
// only slots toggle, with setSlot and trialCloseSlot, which re-capacitate
// just the arcs of the slot's interval. It is the package's one integral
// Gfeas builder: CheckFeasible and Assign run one solve on a new checker,
// and the closing loops and the exact search probe one checker many times.
//
// The network is Gfeas with its slots grouped into elementary intervals:
// maximal runs of window slots that no release or deadline splits, so that
// every slot of a run lies in the same job windows. Each interval I has one
// node and carries its open-slot count k: job → I capacity k, I → sink
// capacity g·k. This network carries all jobs exactly when the per-slot
// Gfeas does. Summing a per-slot flow over each interval gives an interval
// flow. Conversely, take an integral interval flow routing f_{j,I} ≤ k
// units of job j into I, with Σ_j f_{j,I} ≤ g·k, and deal its units
// round-robin over I's k open slots, job by job and slot after slot: no
// job's f_{j,I} consecutive units reach one slot twice, and no slot gets
// more than ⌈Σ_j f_{j,I} / k⌉ ≤ g units. So every verdict matches the
// per-slot network's, on far fewer nodes and arcs.
//
// schedule turns a flow that meets the demand into a per-slot schedule by
// exactly this deal, so a closing loop that ends on a feasible open set
// already holds its schedule.
//
// The checker is flow-carrying: the max flow routed by earlier queries
// survives every mutation. Capacity increases keep their flow verbatim
// (SetCapacityKeepFlow); capacity decreases clamp the flow and cancel the
// excess along the rest of each affected source→job→interval→sink path
// (PushBack) — cheap because every path in this bipartite network has
// length 3 — leaving a valid sub-maximal flow from which feasible() lets
// Dinic augment only the difference. A trial close whose interval already
// fits its routed flow with one slot fewer cancels nothing and needs no
// solve at all. The minimal-feasible closing loop and the exact search's
// DFS toggles therefore never recompute a flow from scratch: coldFlows
// counts the solves that start from zero routed flow which no repair
// drained (exactly one, the first query) and is the counter the scaling
// gates pin.
//
// A continuation starts from the jobs a repair shorted, not from all n
// supply arcs. The build lists every job, and every PushBack on a supply
// arc puts the job on the short list, once; feasible() hands the list to
// MaxFrom, whose phases then walk only those source arcs, and empties it
// once the flow meets the demand, when every supply arc is saturated. A
// solve that falls short keeps the list: the deficient jobs are on it.
// Since no Dinic path re-enters the source, a supply arc off the list stays
// saturated through a solve, so the list always covers every supply arc
// with residual capacity, as MaxFrom requires.
type feasChecker struct {
	g         int
	jobs      []core.Job
	net       *flow.Network[int64]
	src, sink int
	jobEdges  []flow.EdgeID[int64] // per job: source → job
	slotIval  []int32              // index t: slot t's interval, -1 outside every window
	slotOpen  []bool               // index t: slot t is open
	ivals     []elemInterval       // per interval, in slot order
	ivalArcs  [][]jobArc[int64]    // per interval: its incoming job arcs, in job order
	total     int64                // sum of the job lengths
	flow      int64                // flow currently routed (always a valid flow)
	drained   bool                 // flow is zero because repairs cancelled every unit
	short     []flow.EdgeID[int64] // supply arcs of the shorted jobs, each once (cap n)
	listed    []uint64             // per job: == epoch while its supply arc is on short
	epoch     uint64               // bumped whenever short is emptied
	// Counters for the incremental-flow gates: augments is the number of
	// Dinic continuation calls, coldFlows how many of them started from zero
	// routed flow that was not drained, freeCloses the trial closes answered
	// without any solve.
	augments, coldFlows, freeCloses int
}

// elemInterval is one elementary interval: its open-slot count k and its
// sink arc, of capacity g·k.
type elemInterval struct {
	open int64
	sink flow.EdgeID[int64]
}

// jobArc is one job → interval arc with its job, so that excess cancelled
// on it can be cancelled on the job's supply arc too.
type jobArc[C flow.Capacity] struct {
	job int32
	id  flow.EdgeID[C]
}

// newFeasChecker builds the persistent network in the state every caller
// starts from: all jobs on, the given slots open, and every job on the
// short list, since no flow is routed yet. Slots outside every job window,
// and repeats, change nothing. It counts the open slots per interval first,
// so each arc is added at its final capacity. Its nodes are numbered by
// newIvalLayout. The network's arcs and the ivalArcs lists are each
// carved out of one exactly sized array, so the build makes the same number
// of allocations at any horizon.
func newFeasChecker(in *core.Instance, open []core.Time) *feasChecker {
	jobs := in.Jobs
	lay := newIvalLayout(jobs, nil)
	fc := &feasChecker{
		g:        in.G,
		jobs:     jobs,
		net:      flow.NewNetworkDegrees[int64](lay.deg, 0),
		src:      0,
		sink:     len(lay.deg) - 1,
		jobEdges: make([]flow.EdgeID[int64], len(jobs)),
		short:    make([]flow.EdgeID[int64], 0, len(jobs)),
		listed:   make([]uint64, len(jobs)),
		epoch:    1,
		slotIval: lay.slotIval,
		slotOpen: make([]bool, len(lay.slotIval)),
		ivals:    make([]elemInterval, lay.nIvals),
		ivalArcs: carve[jobArc[int64]](lay.nIvals, func(k int) int { return lay.deg[1+len(jobs)+k] - 1 }),
	}
	for _, t := range open {
		fc.markSlot(t, true)
	}
	for k := range fc.ivals {
		iv := &fc.ivals[k]
		iv.sink = fc.net.AddEdge(1+len(jobs)+k, fc.sink, int64(fc.g)*iv.open)
	}
	for i, j := range jobs {
		fc.jobEdges[i] = fc.net.AddEdge(fc.src, 1+i, j.Length)
		fc.total += j.Length
		fc.shorten(int32(i))
		prev := int32(-1)
		for t := max(j.FirstSlot(), 1); t <= j.LastSlot(); t++ {
			if k := lay.slotIval[t]; k != prev {
				a := jobArc[int64]{int32(i), fc.net.AddEdge(1+i, lay.slotNode[t], fc.ivals[k].open)}
				fc.ivalArcs[k] = append(fc.ivalArcs[k], a)
				prev = k
			}
		}
	}
	return fc
}

// ival returns slot t's interval, or -1 for a slot outside every job window
// (slot 0, a gap between windows, or past the last deadline), which has no
// node in the network.
func (fc *feasChecker) ival(t core.Time) int32 {
	if t < 0 || int(t) >= len(fc.slotIval) {
		return -1
	}
	return fc.slotIval[t]
}

// markSlot records slot t as open or closed in its interval's count and
// returns the interval, or -1 when nothing changed: the slot lies outside
// every window, or is already in that state.
func (fc *feasChecker) markSlot(t core.Time, open bool) int32 {
	k := fc.ival(t)
	if k < 0 || fc.slotOpen[t] == open {
		return -1
	}
	fc.slotOpen[t] = open
	if open {
		fc.ivals[k].open++
	} else {
		fc.ivals[k].open--
	}
	return k
}

// setSlot opens or closes a slot, preserving the routed flow. Slots outside
// every job window are ignored: they can never carry work, so their state
// cannot change feasibility.
func (fc *feasChecker) setSlot(t core.Time, open bool) {
	if k := fc.markSlot(t, open); k >= 0 {
		fc.resize(k)
	}
}

// resize re-capacitates interval k's arcs to its open count c, preserving
// the routed flow: every job arc to c, the sink arc to g·c. On a shrink it
// first clamps each job arc, cancelling the excess on the job's supply arc
// and on the sink arc, then clamps the sink arc, cancelling its excess
// across the interval's job arcs in job order and on their supply arcs.
func (fc *feasChecker) resize(k int32) {
	iv := &fc.ivals[k]
	for _, a := range fc.ivalArcs[k] {
		if ex := fc.net.SetCapacityKeepFlow(a.id, iv.open); ex > 0 {
			fc.pushBackSupply(a.job, ex)
			fc.net.PushBack(iv.sink, ex)
			fc.cancel(ex)
		}
	}
	ex := fc.net.SetCapacityKeepFlow(iv.sink, int64(fc.g)*iv.open)
	for _, a := range fc.ivalArcs[k] {
		if ex == 0 {
			break
		}
		f := min(fc.net.Flow(a.id), ex)
		if f <= 0 {
			continue
		}
		fc.net.PushBack(a.id, f)
		fc.pushBackSupply(a.job, f)
		fc.cancel(f)
		ex -= f
	}
}

// pushBackSupply cancels d units on job i's supply arc and puts the job on
// the short list.
func (fc *feasChecker) pushBackSupply(i int32, d int64) {
	fc.net.PushBack(fc.jobEdges[i], d)
	fc.shorten(i)
}

// shorten puts job i's supply arc on the short list unless it is there.
func (fc *feasChecker) shorten(i int32) {
	if fc.listed[i] != fc.epoch {
		fc.listed[i] = fc.epoch
		fc.short = append(fc.short, fc.jobEdges[i])
	}
}

// feasible reports whether the jobs fit in the open slots. The routed flow
// can never exceed the demand, so a flow already at total is maximal and
// the query costs nothing; otherwise Dinic continues from the kept flow's
// residual state, starting from the shorted jobs, and augments only the
// difference. A flow that meets the demand saturates every supply arc, so
// the short list is emptied then.
func (fc *feasChecker) feasible() bool {
	if fc.flow != fc.total {
		if fc.flow == 0 && !fc.drained {
			fc.coldFlows++
		}
		fc.augments++
		fc.flow += fc.net.MaxFrom(fc.src, fc.sink, fc.short)
		fc.drained = fc.drained && fc.flow == 0
		if fc.flow != fc.total {
			return false
		}
	}
	fc.short = fc.short[:0]
	fc.epoch++
	return true
}

// cancel books d routed units cancelled by a repair. A repair that cancels
// every routed unit — a trial close of the one slot that carries the whole
// demand — leaves the flow drained, not cold: the next solve reroutes just
// the cancelled units, as every other continuation does.
func (fc *feasChecker) cancel(d int64) {
	fc.flow -= d
	fc.drained = fc.flow == 0
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
	k := fc.markSlot(t, false)
	if k < 0 {
		return true
	}
	fc.resize(k)
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
	for _, iv := range fc.ivals {
		nOpen += iv.open
	}
	open := make([]core.Time, 0, nOpen)
	slots := carve[core.Time](len(fc.jobs), func(i int) int { return int(fc.jobs[i].Length) })
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
	assign := make(map[int][]core.Time, len(fc.jobs))
	for i, j := range fc.jobs {
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
// matches the historical from-scratch loop's. The per-slot assignment does
// not: it is dealt out of the flow the loop ends with
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
