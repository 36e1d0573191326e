package activetime

import (
	"repro/internal/core"
	"repro/internal/flow"
)

// feasibleFlow is the per-slot oracle for feasChecker: it runs the Gfeas
// max flow for the given jobs restricted to the given open slots on a
// one-shot network with one node per open slot, no interval nodes and no
// carried flow. It returns the flow value and, if extract is true, the
// resulting integral assignment.
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

// perSlotFeasible reports whether the per-slot oracle carries all of the
// instance's jobs in the open slots.
func perSlotFeasible(in *core.Instance, open []core.Time) bool {
	got, _ := feasibleFlow(in.G, in.Jobs, open, false)
	return got == in.TotalLength()
}

// perSlotSeparation is the per-slot oracle for the LP separator: the
// fractional Gfeas network with one node per slot 1..T, job → slot
// capacity y_t and slot → sink g·y_t (y index t-1: slot t), solved from
// zero. It returns the max-flow value and the jobs on the source side of
// the global minimum cut.
func perSlotSeparation(in *core.Instance, y []float64) (float64, []bool) {
	jobs := in.Jobs
	T := int(in.Horizon())
	slotNode := make([]int, T+1)
	for t := 1; t <= T; t++ {
		slotNode[t] = len(jobs) + t
	}
	deg := gfeasDegrees(jobs, slotNode, T)
	n := flow.NewNetworkDegrees[float64](deg, 1e-12)
	src, sink := 0, len(deg)-1
	for t := 1; t <= T; t++ {
		n.AddEdge(slotNode[t], sink, float64(in.G)*y[t-1])
	}
	for i, j := range jobs {
		n.AddEdge(src, 1+i, float64(j.Length))
		for t := max(j.FirstSlot(), 1); t <= j.LastSlot(); t++ {
			n.AddEdge(1+i, slotNode[t], y[t-1])
		}
	}
	value := n.Max(src, sink)
	side := n.MinCutSource(src)
	A := make([]bool, len(jobs))
	for i := range A {
		A[i] = side[1+i]
	}
	return value, A
}
