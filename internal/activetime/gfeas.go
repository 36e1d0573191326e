package activetime

import (
	"repro/internal/core"
	"repro/internal/flow"
)

// ivalLayout groups the window slots of a job set into elementary
// intervals: maximal runs of window slots that no release or deadline
// splits, so that every slot of a run lies in the same job windows. Gfeas
// numbers its nodes by it: source 0, job i at 1+i, interval k at 1+n+k in
// slot order, the sink last. A Session's separator cuts the runs further,
// at the bounds of its master's atoms. Every window is a contiguous run of
// intervals (span).
type ivalLayout struct {
	slotIval []int32        // index t: slot t's interval, -1 outside every window
	ivals    []elemInterval // per interval, in slot order
	deg      []int          // per node: its arcs, reverse arcs included
}

// elemInterval is one elementary interval: its slots lo..hi and its master column
// col (see newMaster).
type elemInterval struct{ lo, hi, col int32 }

// newIvalLayout computes the elementary intervals of the jobs' windows and
// the arc counts of the network on them. With atomCol, a Session's map from
// slot to master column (see Session), a window slot also starts an
// interval where atomCol changes, so the intervals are the atoms that some
// window covers, each on its atom's column; nil adds no cuts and puts
// interval k on column k. Its slot indices run to the last window slot.
// Windows are cut at slot 1, as windowSlots cuts them.
//
// An interval node holds its sink arc and one arc per job whose window
// covers it; a job node holds its supply arc and one arc per interval of
// its window; the source holds n arcs and the sink one per interval.
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
	l := ivalLayout{slotIval: make([]int32, len(covered))}
	m := 0
	for t, ok := range covered {
		if ok && cut[t] {
			m++
		}
	}
	l.ivals = make([]elemInterval, 0, m)
	for t, ok := range covered {
		l.slotIval[t] = -1
		if !ok {
			continue
		}
		if cut[t] {
			col := int32(len(l.ivals))
			if atomCol != nil {
				col = atomCol[t]
			}
			l.ivals = append(l.ivals, elemInterval{lo: int32(t), col: col})
		}
		k := len(l.ivals) - 1
		l.ivals[k].hi = int32(t)
		l.slotIval[t] = int32(k)
	}
	n := len(jobs)
	l.deg = make([]int, 2+n+m)
	l.deg[0], l.deg[1+n+m] = n, m
	for k := range l.ivals {
		l.deg[1+n+k] = 1
	}
	for i, j := range jobs {
		first, last := l.span(j)
		l.deg[1+i] = int(2 + last - first)
		for k := first; k <= last; k++ {
			l.deg[1+n+int(k)]++
		}
	}
	return l
}

// span returns the first and last interval of job j's window, with
// first > last for a window that holds no slot from 1 on.
func (l *ivalLayout) span(j core.Job) (first, last int32) {
	lo, hi := max(j.FirstSlot(), 1), j.LastSlot()
	if lo > hi {
		return 0, -1
	}
	return l.slotIval[lo], l.slotIval[hi]
}

// ival returns slot t's interval, or -1 for a slot outside every job window
// (slot 0, a gap between windows, or past the last deadline), which has no
// node in the network.
func (l *ivalLayout) ival(t core.Time) int32 {
	if t < 0 || int(t) >= len(l.slotIval) {
		return -1
	}
	return l.slotIval[t]
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

// gfeas is the paper's feasibility network Gfeas (Fig. 2) on elementary
// intervals, carrying its flow from one solve to the next. Interval I has
// one node and a value v_I: each job → I arc has capacity v_I and the
// I → sink arc g·v_I. The closing loops' checker (feasChecker) sets v_I to
// I's open-slot count, the LP separator (separator) to the master's Y_I.
// Either way the network decides what the per-slot network decides, on far
// fewer nodes and arcs (see the two types).
//
// The flow survives re-capacitation (recap): a capacity that rises keeps
// its flow, and one that falls below its flow cancels the excess along the
// rest of each source → job → interval → sink path, which is cheap because
// every path has length 3. The flow is then valid again, and solve lets
// Dinic route only the difference, starting from the supply arcs on the
// short list. It holds the supply arcs whose residual is above eps, each
// once: the build lists every job, a cancel lists a job whose residual it
// lifts above eps, and a solve, which never raises a source arc's residual,
// drops the arcs it leaves at eps or below. So every arc MaxFrom is not
// handed has residual at most eps, as it requires, and the flow equals a
// solve that lists every supply arc, on every arc.
type gfeas[C flow.Capacity] struct {
	ivalLayout
	in        *core.Instance
	net       *flow.Network[C]
	src, sink int
	g, eps    C
	total     C                // sum of the job lengths
	supply    []flow.EdgeID[C] // index i: source → job i
	val       []C              // per interval: the value its arcs carry
	sinkArcs  []flow.EdgeID[C] // per interval: interval → sink
	ivalArcs  [][]jobArc[C]    // per interval: its incoming job arcs, in job order
	short     []flow.EdgeID[C] // the supply arcs with residual above eps
}

// jobArc is one job → interval arc with its job, so that excess cancelled
// on it can be cancelled on the job's supply arc too.
type jobArc[C flow.Capacity] struct {
	job int32
	id  flow.EdgeID[C]
}

// newGfeas builds the network on lay with interval k at value val[k] (every
// value 0 for a nil val), no flow routed and every job on the short list.
// It adds every sink arc, then each job's supply arc followed by its arcs
// to the intervals of its window in slot order. The network's arcs and the
// ivalArcs lists are each carved out of one exactly sized array, so the
// build makes the same number of allocations at any horizon.
func newGfeas[C flow.Capacity](in *core.Instance, lay ivalLayout, val []C, eps C) gfeas[C] {
	n, m := len(in.Jobs), len(lay.ivals)
	if val == nil {
		val = make([]C, m)
	}
	nw := gfeas[C]{
		ivalLayout: lay,
		in:         in,
		net:        flow.NewNetworkDegrees[C](lay.deg, eps),
		sink:       len(lay.deg) - 1,
		g:          C(in.G),
		eps:        eps,
		supply:     make([]flow.EdgeID[C], n),
		val:        val,
		sinkArcs:   make([]flow.EdgeID[C], m),
		ivalArcs:   carve[jobArc[C]](m, func(k int) int { return lay.deg[1+n+k] - 1 }),
	}
	for k := range lay.ivals {
		nw.sinkArcs[k] = nw.net.AddEdge(1+n+k, nw.sink, nw.g*val[k])
	}
	for i, j := range in.Jobs {
		nw.supply[i] = nw.net.AddEdge(nw.src, 1+i, C(j.Length))
		nw.total += C(j.Length)
		first, last := lay.span(j)
		for k := first; k <= last; k++ {
			a := jobArc[C]{int32(i), nw.net.AddEdge(1+i, 1+n+int(k), val[k])}
			nw.ivalArcs[k] = append(nw.ivalArcs[k], a)
		}
	}
	nw.short = append(make([]flow.EdgeID[C], 0, n), nw.supply...)
	return nw
}

// recap re-capacitates the intervals on moved, in ascending order, to
// their values, keeping the routed flow: first every job arc of each to
// v_I, then each sink arc to g·v_I, skipping a sink arc whose capacity did
// not change. A job arc clamped below its flow cancels the excess on the
// job's supply arc and the interval's sink arc; a sink arc clamped below
// its flow cancels its excess across the interval's job arcs in job order
// and on their supply arcs. It lists each job it lifts off saturation and
// returns the units it cancelled.
func (nw *gfeas[C]) recap(moved []int32) (cancelled C) {
	for _, k := range moved {
		for _, a := range nw.ivalArcs[k] {
			if ex := nw.net.SetCapacityKeepFlow(a.id, nw.val[k]); ex > 0 {
				nw.pushBack(a.job, ex)
				nw.net.PushBack(nw.sinkArcs[k], ex)
				cancelled += ex
			}
		}
	}
	for _, k := range moved {
		c := nw.g * nw.val[k]
		if c == nw.net.Capacity(nw.sinkArcs[k]) {
			continue
		}
		ex := nw.net.SetCapacityKeepFlow(nw.sinkArcs[k], c)
		for _, a := range nw.ivalArcs[k] {
			if ex <= 0 {
				break
			}
			f := min(nw.net.Flow(a.id), ex)
			if f <= 0 {
				continue
			}
			nw.net.PushBack(a.id, f)
			nw.pushBack(a.job, f)
			cancelled += f
			ex -= f
		}
	}
	return cancelled
}

// pushBack cancels d units on job i's supply arc, and lists the arc when
// that lifts its residual above eps.
func (nw *gfeas[C]) pushBack(i int32, d C) {
	id := nw.supply[i]
	if r := nw.net.Residual(id); r <= nw.eps && r+d > nw.eps {
		nw.short = append(nw.short, id)
	}
	nw.net.PushBack(id, d)
}

// solve continues the max flow from the listed supply arcs and returns the
// units it routed; the list then keeps only the arcs whose residual is
// still above eps.
func (nw *gfeas[C]) solve() C {
	f := nw.net.MaxFrom(nw.src, nw.sink, nw.short)
	keep := nw.short[:0]
	for _, id := range nw.short {
		if nw.net.Residual(id) > nw.eps {
			keep = append(keep, id)
		}
	}
	nw.short = keep
	return f
}
