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
//     Benders-style cut generation with min-cut separation;
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
// list out of one exactly sized array. The three builders (feasibleFlow,
// feasChecker and the LP separator) share the source → job → slot → sink
// shape and its numbering: source 0, job i at node 1+i, nSlots slot nodes
// after the jobs, the sink last. They differ only in which slots get a
// node, which slotNode gives by slot, with 0 (the source) for a slot that
// has none. A slot node holds its sink arc and one arc per job whose window
// covers it; a job node holds its supply arc and one arc per window slot
// with a node. Windows are cut at slot 1, as windowSlots cuts them.
func gfeasDegrees(jobs []core.Job, slotNode []int, nSlots int) []int {
	n := len(jobs)
	deg := make([]int, 2+n+nSlots)
	deg[0] = n
	for v := 1 + n; v <= n+nSlots; v++ {
		deg[v] = 1
	}
	deg[1+n+nSlots] = nSlots
	for i, j := range jobs {
		deg[1+i]++
		for t := max(j.FirstSlot(), 1); t <= j.LastSlot(); t++ {
			if v := slotNode[t]; v != 0 {
				deg[1+i]++
				deg[v]++
			}
		}
	}
	return deg
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

// feasibleFlow runs the Gfeas max-flow for the given jobs restricted to the
// given open slots. It returns the flow value and, if extract is true, the
// resulting integral assignment.
//
// The package deliberately keeps three builders of the Gfeas topology:
// feasibleFlow (one-shot, smallest network over just the open slots, and
// the only one that extracts assignments), feasChecker (persistent int64
// network over every window slot, re-capacitated per query), and the LP
// separator in lp.go (persistent float64 network with y-scaled
// capacities). They share the node numbering and arc counts
// (gfeasDegrees), not the build: collapsing the one-shot path onto
// feasChecker would pay for the full-universe build plus a toggle pass
// where constructing the trimmed network directly suffices.
func feasibleFlow(g int, jobs []core.Job, open []core.Time, extract bool) (int64, map[int][]core.Time) {
	// Nodes: 0 = source, 1..len(jobs) = jobs, then open slots, then sink.
	// slotNode is indexed by slot up to the last window slot, so an open
	// slot outside every window gets a node with only its sink arc; a slot
	// listed twice gets two nodes, and the jobs use the last.
	slotNode := make([]int, lastWindowSlot(jobs)+1)
	for k, t := range open {
		if t >= 1 && int(t) < len(slotNode) {
			slotNode[t] = 1 + len(jobs) + k
		}
	}
	deg := gfeasDegrees(jobs, slotNode, len(open))
	n := flow.NewNetworkDegrees[int64](deg, 0)
	src, sink := 0, len(deg)-1
	for k := range open {
		n.AddEdge(1+len(jobs)+k, sink, int64(g))
	}
	type jobEdge struct {
		job  int // index into jobs
		slot core.Time
		id   flow.EdgeID[int64]
	}
	var jes []jobEdge
	if extract {
		arcs := 0
		for i := range jobs {
			arcs += deg[1+i] - 1
		}
		jes = make([]jobEdge, 0, arcs)
	}
	var total int64
	for i, j := range jobs {
		n.AddEdge(src, 1+i, j.Length)
		total += j.Length
		for t := max(j.FirstSlot(), 1); t <= j.LastSlot(); t++ {
			if node := slotNode[t]; node != 0 {
				id := n.AddEdge(1+i, node, 1)
				if extract {
					jes = append(jes, jobEdge{i, t, id})
				}
			}
		}
	}
	got := n.Max(src, sink)
	if !extract || got != total {
		return got, nil
	}
	assign := make(map[int][]core.Time, len(jobs))
	for _, je := range jes {
		if n.Flow(je.id) > 0 {
			assign[jobs[je.job].ID] = append(assign[jobs[je.job].ID], je.slot)
		}
	}
	for id := range assign {
		core.SortSlots(assign[id])
	}
	return got, assign
}

// CheckFeasible reports whether all jobs of the instance can be scheduled
// using only the given open slots. It builds a one-shot network; callers
// that probe many slot sets against the same jobs (the minimal-feasible
// closing loop, the exact search) use the reusable feasChecker instead,
// which re-capacitates one persistent network.
func CheckFeasible(in *core.Instance, open []core.Time) bool {
	got, _ := feasibleFlow(in.G, in.Jobs, open, false)
	return got == in.TotalLength()
}

// feasChecker answers repeated "does this slot set carry these jobs?"
// max-flow queries over one persistent Gfeas network. The network spans
// every slot inside some job window; slots and jobs start switched off
// (capacity 0) and are toggled with setSlot/setJob, which only re-capacitate
// the affected edge.
//
// The checker is flow-carrying: the max flow routed by earlier queries
// survives every mutation. Capacity increases keep their flow verbatim
// (SetCapacityKeepFlow); capacity decreases clamp the flow and cancel the
// excess along the rest of each affected source→job→slot→sink path
// (PushBack) — cheap because every path in this bipartite network has
// length 3 — leaving a valid sub-maximal flow from which feasible() lets
// Dinic augment only the difference. The minimal-feasible closing loop and
// the exact search's DFS toggles therefore never recompute a flow from
// scratch: coldFlows counts the from-zero solves (exactly one, the first
// query) and is the counter the scaling gates pin.
type feasChecker struct {
	g         int
	jobs      []core.Job
	net       *flow.Network[int64]
	src, sink int
	jobEdges  []flow.EdgeID[int64]
	slotEdges []flow.EdgeID[int64] // index t: slot t → sink (window slots only)
	slotIn    [][]jobSlotRef       // index t: incoming job→slot edges; empty outside every window
	jobWins   [][]jobWinRef        // per job, its window edges with slot times
	total     int64                // sum of lengths of switched-on jobs
	flow      int64                // flow currently routed (always a valid flow)
	// Counters for the incremental-flow gates: augments is the number of
	// Dinic continuation calls, coldFlows how many of them started from zero
	// routed flow, freeCloses the trial closes answered without any solve.
	augments, coldFlows, freeCloses int
}

// jobSlotRef locates one job→slot edge from the slot side, with the job
// index needed to cancel excess on the job's supply edge.
type jobSlotRef struct {
	job int32
	id  flow.EdgeID[int64]
}

// jobWinRef locates one job→slot edge from the job side, with the slot time
// needed to cancel excess on the slot's sink edge.
type jobWinRef struct {
	t  core.Time
	id flow.EdgeID[int64]
}

// newFeasChecker builds the persistent network with all jobs and all slots
// switched off. Slot nodes follow the jobs in ascending slot order; only
// slots inside some job window get one. The network's arcs, the slotIn
// lists and the jobWins lists are each carved out of one exactly sized
// array.
func newFeasChecker(g int, jobs []core.Job) *feasChecker {
	universe := windowSlots(jobs)
	slotNode := make([]int, len(universe))
	nSlots := 0
	for t, ok := range universe {
		if ok {
			slotNode[t] = 1 + len(jobs) + nSlots
			nSlots++
		}
	}
	deg := gfeasDegrees(jobs, slotNode, nSlots)
	fc := &feasChecker{
		g:         g,
		jobs:      jobs,
		net:       flow.NewNetworkDegrees[int64](deg, 0),
		src:       0,
		sink:      len(deg) - 1,
		jobEdges:  make([]flow.EdgeID[int64], len(jobs)),
		slotEdges: make([]flow.EdgeID[int64], len(universe)),
		slotIn: carve[jobSlotRef](len(universe), func(t int) int {
			if v := slotNode[t]; v != 0 {
				return deg[v] - 1
			}
			return 0
		}),
		jobWins: carve[jobWinRef](len(jobs), func(i int) int { return deg[1+i] - 1 }),
	}
	for t, v := range slotNode {
		if v != 0 {
			fc.slotEdges[t] = fc.net.AddEdge(v, fc.sink, 0)
		}
	}
	for i, j := range jobs {
		fc.jobEdges[i] = fc.net.AddEdge(fc.src, 1+i, 0)
		for t := max(j.FirstSlot(), 1); t <= j.LastSlot(); t++ {
			id := fc.net.AddEdge(1+i, slotNode[t], 1)
			fc.jobWins[i] = append(fc.jobWins[i], jobWinRef{t, id})
			fc.slotIn[t] = append(fc.slotIn[t], jobSlotRef{int32(i), id})
		}
	}
	return fc
}

// slotEdge returns slot t's sink edge; ok is false for a slot outside every
// job window (slot 0, a gap between windows, or past the last deadline),
// which has no node in the network.
func (fc *feasChecker) slotEdge(t core.Time) (id flow.EdgeID[int64], ok bool) {
	if t < 0 || int(t) >= len(fc.slotIn) || len(fc.slotIn[t]) == 0 {
		return id, false
	}
	return fc.slotEdges[t], true
}

// setSlot opens or closes a slot (capacity g or 0 on its sink edge),
// preserving the routed flow; closing a slot that carries flow cancels the
// excess along the slot's incoming job edges and their supply edges. Slots
// outside every job window are ignored: they can never carry work, so their
// state cannot change feasibility.
func (fc *feasChecker) setSlot(t core.Time, open bool) {
	id, ok := fc.slotEdge(t)
	if !ok {
		return
	}
	var c int64
	if open {
		c = int64(fc.g)
	}
	if fc.net.Capacity(id) == c {
		return
	}
	ex := fc.net.SetCapacityKeepFlow(id, c)
	for _, ref := range fc.slotIn[t] {
		if ex == 0 {
			break
		}
		f := fc.net.Flow(ref.id)
		if f <= 0 {
			continue
		}
		if f > ex {
			f = ex
		}
		fc.net.PushBack(ref.id, f)
		fc.net.PushBack(fc.jobEdges[ref.job], f)
		fc.flow -= f
		ex -= f
	}
}

// setJob switches a job's demand on or off and keeps the demand total in
// step, preserving the routed flow (switching a flow-carrying job off
// cancels its flow along the window edges and their sink edges). Toggling an
// already-switched job is a no-op.
func (fc *feasChecker) setJob(i int, on bool) {
	var c int64
	if on {
		c = fc.jobs[i].Length
	}
	if fc.net.Capacity(fc.jobEdges[i]) == c {
		return
	}
	ex := fc.net.SetCapacityKeepFlow(fc.jobEdges[i], c)
	for _, ref := range fc.jobWins[i] {
		if ex == 0 {
			break
		}
		f := fc.net.Flow(ref.id)
		if f <= 0 {
			continue
		}
		if f > ex {
			f = ex
		}
		fc.net.PushBack(ref.id, f)
		fc.net.PushBack(fc.slotEdges[ref.t], f)
		fc.flow -= f
		ex -= f
	}
	if on {
		fc.total += fc.jobs[i].Length
	} else {
		fc.total -= fc.jobs[i].Length
	}
}

// feasible reports whether the switched-on jobs fit in the open slots. The
// routed flow can never exceed the switched-on demand, so a flow already at
// total is maximal and the query costs nothing; otherwise Dinic continues
// from the kept flow's residual state and augments only the difference.
func (fc *feasChecker) feasible() bool {
	if fc.flow == fc.total {
		return true
	}
	if fc.flow == 0 {
		fc.coldFlows++
	}
	fc.augments++
	fc.flow += fc.net.Max(fc.src, fc.sink)
	return fc.flow == fc.total
}

// trialCloseSlot attempts to close slot t, assuming the current flow is
// maximal and meets the demand (the closing loops' invariant). When the
// slot carries no flow the max flow survives verbatim and the close is free
// — no solve at all. Otherwise the close is repaired and Dinic reroutes
// just the cancelled units; if they cannot be rerouted the slot is reopened
// and the max flow restored before returning false, so the invariant holds
// on exit either way.
func (fc *feasChecker) trialCloseSlot(t core.Time) bool {
	id, ok := fc.slotEdge(t)
	if !ok {
		return true // outside every window: closing cannot affect feasibility
	}
	if fc.net.Flow(id) == 0 {
		fc.net.SetCapacityKeepFlow(id, 0)
		fc.freeCloses++
		return true
	}
	fc.setSlot(t, false)
	if fc.feasible() {
		return true
	}
	fc.setSlot(t, true)
	fc.feasible() // re-augment through the reopened slot; restores flow == total
	return false
}

// fullChecker builds a feasChecker with every job switched on and the given
// slots open — the starting state of the slot-closing loops.
func fullChecker(in *core.Instance, open []core.Time) *feasChecker {
	fc := newFeasChecker(in.G, in.Jobs)
	for i := range in.Jobs {
		fc.setJob(i, true)
	}
	for _, t := range open {
		fc.setSlot(t, true)
	}
	return fc
}

// Assign computes an integral assignment of all jobs to the given open
// slots, or ErrInfeasible.
func Assign(in *core.Instance, open []core.Time) (*core.ActiveSchedule, error) {
	got, assign := feasibleFlow(in.G, in.Jobs, open, true)
	if got != in.TotalLength() || assign == nil {
		return nil, ErrInfeasible
	}
	sorted := append([]core.Time(nil), open...)
	core.SortSlots(sorted)
	// Drop open slots that carry no work? No: the open set is the solution;
	// callers minimize it themselves. Keep as given.
	return &core.ActiveSchedule{Open: sorted, Assign: assign}, nil
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
// and the quantity the scaling gates pin (wall time is too noisy on the
// bench box; a from-scratch regression shows up here as O(T) cold flows).
type MinimalResult struct {
	Schedule *core.ActiveSchedule
	// Probes is the number of trial-closed slots (= |AllSlots|).
	Probes int
	// FreeCloses counts probes answered without any flow solve because the
	// slot carried no flow.
	FreeCloses int
	// FlowAugments counts Dinic continuation calls (incremental re-solves).
	FlowAugments int
	// ColdFlows counts flow solves that started from zero routed flow.
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
// each probe either closes a zero-flow slot for free, or cancels the
// closed slot's length-3 flow paths and asks Dinic to reroute just the
// cancelled units (reopening and re-augmenting on failure). The closing
// decisions are identical to recomputing a fresh max flow per probe — the
// max-flow value does not depend on which maximal flow is currently routed
// — so the produced schedule matches the historical from-scratch loop.
func MinimalFeasibleStats(in *core.Instance, opts MinimalOptions) (*MinimalResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	open := AllSlots(in)
	fc := fullChecker(in, open)
	if !fc.feasible() {
		return nil, ErrInfeasible
	}
	order := closeOrder(open, opts)
	isOpen := make([]bool, open[len(open)-1]+1) // index t: slot t
	for _, t := range open {
		isOpen[t] = true
	}
	probes := 0
	for _, t := range order {
		if t < 0 || int(t) >= len(isOpen) || !isOpen[t] {
			continue
		}
		probes++
		if fc.trialCloseSlot(t) {
			isOpen[t] = false
		}
	}
	current := make([]core.Time, 0, len(open))
	for _, t := range open {
		if isOpen[t] {
			current = append(current, t)
		}
	}
	sched, err := Assign(in, current)
	if err != nil {
		return nil, fmt.Errorf("activetime: minimal solution lost feasibility: %w", err)
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
// carries one max flow across the per-slot probes instead of recomputing.
func IsMinimalFeasible(in *core.Instance, open []core.Time) bool {
	fc := fullChecker(in, open)
	if !fc.feasible() {
		return false
	}
	for _, t := range open {
		if fc.trialCloseSlot(t) {
			return false
		}
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
