// Package flow implements Dinic's maximum-flow algorithm on directed graphs,
// generic over integer and floating-point capacities.
//
// The active-time algorithms use it in two ways: with int64 capacities for
// the feasibility network Gfeas of the paper (Figure 2), where integrality
// of maximum flow turns a fractional assignment question into an integral
// schedule; and with float64 capacities as the separation oracle of the
// Benders-style cut-generation procedure that solves the active-time LP
// (capacities y_t and g·y_t are fractional there). The busy-time flow-cover
// 2-approximation also routes integral 2-unit flows through a job DAG.
//
// # Reuse contract
//
// Networks are built once and re-solved many times. Max mutates residual
// capacities, so between solves the caller restores state with Reset (every
// edge back to its reference capacity, all flow discarded) and/or
// SetCapacity (one edge re-capacitated with its flow cleared, becoming the
// new reference that later Resets restore). The common pattern — the
// cut-generation separation oracle and the minimal-feasible closing loop —
// builds the network once per call and only touches the y-dependent
// capacities each round. Topology may also grow between solves:
// AddNode/AddEdge never renumber existing nodes or invalidate EdgeIDs, a
// new edge joins carrying zero flow with its given reference capacity, and
// the traversal scratch resizes on the next Max — the live-session
// separation network splices arriving jobs and slots into a solved network
// this way and lets Max route just the new demand. Nodes and edges cannot
// be removed; detaching a node means re-capacitating its edges to zero
// (with SetCapacityKeepFlow + PushBack repairs when flow is routed through
// it). All traversal scratch (BFS queue, DFS path stack, level and iterator
// arrays) is owned by the Network and reused, so a Reset+Max cycle performs
// no allocations.
//
// A continuation whose caller knows which arcs of the source can still carry
// flow runs MaxFrom instead of Max, handing it those arcs; every arc of s it
// leaves out must be saturated. Dinic's paths never re-enter the source, so
// a solve only lowers source-arc residuals: a caller that lists each source
// arc it re-capacitated upwards or pushed flow back on, and drops the list
// once a solve saturates every source arc, meets the contract without
// inspecting the rest. Listing a saturated arc is harmless. The
// minimal-feasible checker keeps such a list of the jobs its repairs
// shorted.
//
// A network whose shape is known before it is built takes its arc counts
// up front: NewNetworkDegrees carves every adjacency list out of one array
// sized by the counts (an edge counts once at each endpoint), so the build
// allocates once instead of at every list growth. The counts are room, not
// a limit: a node that receives more arcs than its room moves to its own
// array on that AddEdge and leaves its neighbours' arcs in place, which is
// how growth reaches nodes that were built full. AddEdge places arcs in call
// order either way, so a network built with counts holds the same arcs in
// the same order as one built with NewNetwork from the same calls, and
// every Max routes the same flow on every edge.
//
// # Cost of a phase
//
// A Dinic phase pays for the region up to the sink, not the whole residual
// graph: its BFS stops as soon as it labels the sink, so it scans only the
// adjacency entries met until then, and it resets level and iterator
// entries only for the nodes the previous phase labelled. A continuation
// that reroutes a few units along short paths therefore stays cheap on a
// network with thousands of slot nodes. The flow routed is the same, on
// every edge, as full-labelling Dinic's: nodes at or past the sink's level
// lie on no shortest augmenting path, so labelling them changes no path the
// blocking flow finds.
//
// Under Max, every phase's BFS and blocking flow also walk all deg(s) arcs
// of the source, saturated or not. Under MaxFrom they walk only the listed
// arcs, so a phase costs the listed arcs plus the region it labels. On a
// bipartite network whose source has one arc per job, a continuation after
// a repair that shorted one or two jobs skips the other n − 2 supply arcs
// in every phase. The flow is the same on every edge: a saturated source
// arc labels no node and starts no path, whichever list it is on.
package flow

import "slices"

// Capacity is the constraint satisfied by capacity types. It is restricted
// to the exact types int64 and float64 (not named variants) so that internal
// type switches are exhaustive.
type Capacity interface {
	int64 | float64
}

// edge is a directed arc with residual capacity cap; rev indexes the reverse
// arc in adj[to]. orig is the reference capacity restored by Reset (zero for
// the implicit reverse arcs, so Reset also discards flow).
type edge[C Capacity] struct {
	to, rev   int
	cap, orig C
}

// EdgeID identifies an edge added with AddEdge so its capacity can be
// updated with SetCapacity and the flow through it recovered after Max.
type EdgeID[C Capacity] struct {
	from, idx int
}

// Network is a flow network. Create networks with NewNetwork or
// NewNetworkDegrees; the zero value has no nodes.
type Network[C Capacity] struct {
	adj   [][]edge[C]
	eps   C // capacities <= eps are treated as exhausted (0 for int64)
	level []int
	iter  []int
	queue []int
	path  []int // DFS stack of nodes on the current augmenting path
}

// NewNetwork returns an empty network with n nodes. For float64 capacities,
// eps should be a small positive tolerance (e.g. 1e-12); for int64 pass 0.
func NewNetwork[C Capacity](n int, eps C) *Network[C] {
	return &Network[C]{adj: make([][]edge[C], n), eps: eps}
}

// NewNetworkDegrees returns an empty network with len(deg) nodes whose
// adjacency lists are carved out of one array: node u gets room for deg[u]
// arcs, counting the reverse arcs AddEdge gives it. A network built with
// exact counts thus costs one arc allocation instead of one per list growth.
// The counts size the lists without limiting them: a node given more arcs
// than its room moves to its own array and leaves its neighbours' arcs
// intact.
func NewNetworkDegrees[C Capacity](deg []int, eps C) *Network[C] {
	g := NewNetwork[C](len(deg), eps)
	total := 0
	for _, d := range deg {
		total += d
	}
	arcs := make([]edge[C], total)
	for u, d := range deg {
		g.adj[u], arcs = arcs[:0:d], arcs[d:]
	}
	return g
}

// NumNodes returns the number of nodes in the network.
func (g *Network[C]) NumNodes() int { return len(g.adj) }

// AddNode appends a node and returns its index.
func (g *Network[C]) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds a directed edge from u to v with the given capacity (clamped
// at zero) and returns an identifier usable with SetCapacity and, after
// running Max, with Flow and Residual.
func (g *Network[C]) AddEdge(u, v int, cap C) EdgeID[C] {
	if cap < 0 {
		cap = 0
	}
	a := edge[C]{to: v, rev: len(g.adj[v]), cap: cap, orig: cap}
	b := edge[C]{to: u, rev: len(g.adj[u]), cap: 0, orig: 0}
	g.adj[u] = append(g.adj[u], a)
	g.adj[v] = append(g.adj[v], b)
	return EdgeID[C]{from: u, idx: len(g.adj[u]) - 1}
}

// Reset restores every edge to its reference capacity, discarding all flow
// routed by previous Max calls. Reference capacities are those given to
// AddEdge, as later amended by SetCapacity.
func (g *Network[C]) Reset() {
	for u := range g.adj {
		for i := range g.adj[u] {
			e := &g.adj[u][i]
			e.cap = e.orig
		}
	}
}

// SetCapacity sets the edge's reference capacity to c (clamped at zero) and
// clears any flow through it: the forward residual becomes c and the paired
// reverse residual returns to its own reference (zero for reverse arcs
// created by AddEdge). Subsequent Resets restore the edge to c.
func (g *Network[C]) SetCapacity(id EdgeID[C], c C) {
	if c < 0 {
		c = 0
	}
	e := &g.adj[id.from][id.idx]
	e.cap, e.orig = c, c
	r := &g.adj[e.to][e.rev]
	r.cap = r.orig
}

// Capacity returns the edge's current reference capacity.
func (g *Network[C]) Capacity(id EdgeID[C]) C {
	return g.adj[id.from][id.idx].orig
}

// SetCapacityKeepFlow sets the edge's reference capacity to c (clamped at
// zero) while preserving the flow currently routed through it, unlike
// SetCapacity, which discards that flow. When the current flow exceeds c it
// is clamped down to c, and the excess — returned to the caller — leaves
// the network momentarily violating flow conservation at the edge's
// endpoints: the caller must cancel the same amount along the rest of each
// affected path (PushBack) before running Max again. This is the primitive
// behind incremental re-capacitation: a separation oracle that keeps its
// max flow across rounds only repairs the edges whose capacity shrank below
// their flow and lets Max augment the difference, instead of rebuilding the
// whole flow from zero.
func (g *Network[C]) SetCapacityKeepFlow(id EdgeID[C], c C) (excess C) {
	if c < 0 {
		c = 0
	}
	e := &g.adj[id.from][id.idx]
	flow := e.orig - e.cap
	if flow > c {
		excess = flow - c
		flow = c
	}
	e.orig = c
	e.cap = c - flow
	g.adj[e.to][e.rev].cap = g.adj[e.to][e.rev].orig + flow
	return excess
}

// PushBack removes d units of flow from the edge (its forward residual
// grows by d, the paired reverse residual shrinks by d), without touching
// reference capacities. Like SetCapacityKeepFlow's clamping it breaks flow
// conservation locally; the caller is responsible for cancelling the same d
// along the rest of the path, which is cheap when it knows the path
// structure (the bipartite separation network's paths all have length 3).
func (g *Network[C]) PushBack(id EdgeID[C], d C) {
	e := &g.adj[id.from][id.idx]
	e.cap += d
	r := &g.adj[e.to][e.rev]
	r.cap -= d
	if r.cap < 0 {
		r.cap = 0
	}
}

// Flow returns the amount of flow currently routed through the edge.
func (g *Network[C]) Flow(id EdgeID[C]) C {
	e := &g.adj[id.from][id.idx]
	return e.orig - e.cap
}

// Residual returns the remaining capacity of the edge.
func (g *Network[C]) Residual(id EdgeID[C]) C {
	return g.adj[id.from][id.idx].cap
}

// ensureScratch sizes the reusable traversal buffers to the node count. A
// fresh level array starts all −1 (unlabelled) with an empty queue, the
// state bfs expects: it clears only the nodes the previous pass queued.
func (g *Network[C]) ensureScratch() {
	if n := len(g.adj); len(g.level) < n {
		g.level = make([]int, n)
		for i := range g.level {
			g.level[i] = -1
		}
		g.iter = make([]int, n)
		g.queue = make([]int, 0, n)
		g.path = make([]int, 0, n)
	}
}

// bfs labels nodes with their residual distance from s and reports whether
// t is reachable. It labels level 1 from the source arcs the solve walks —
// every arc of s, or only from's — and stops as soon as it labels t: every
// augmenting path of the phase has exactly level[t] edges, so no node at
// level ≥ level[t] other than t lies on one, and the blocking flow walks the
// same edges in the same order whether or not those nodes carry a label.
// Only the nodes the previous pass queued are cleared first; every other
// node already holds −1.
func (g *Network[C]) bfs(s, t int, from []EdgeID[C], all bool) bool {
	adj, level, eps := g.adj, g.level, g.eps
	for _, v := range g.queue {
		level[v] = -1
	}
	queue := append(g.queue[:0], s)
	level[s] = 0
	src, n := adj[s], len(from)
	if all {
		n = len(src)
	}
	for k := 0; k < n; k++ {
		a := k
		if !all {
			a = from[k].idx
		}
		if e := &src[a]; e.cap > eps && level[e.to] < 0 {
			level[e.to] = 1
			queue = append(queue, e.to)
			if e.to == t {
				g.queue = queue
				return true
			}
		}
	}
	for head := 1; head < len(queue); head++ {
		u := queue[head]
		next := level[u] + 1
		for _, e := range adj[u] {
			if e.cap > eps && level[e.to] < 0 {
				level[e.to] = next
				queue = append(queue, e.to)
				if e.to == t {
					g.queue = queue
					return true
				}
			}
		}
	}
	g.queue = queue
	return false
}

// augment finds one augmenting path from the level-1 node v to t in the
// current level graph and pushes its bottleneck along it, using an explicit
// stack instead of recursion. limit is the residual of the source arc that
// reached v: it caps the bottleneck, and the caller pushes the same amount
// on that arc. It returns the amount pushed, or 0 when v turns out to be a
// dead end. Per-node edge iterators (g.iter) persist across calls within a
// phase, giving the standard O(VE) blocking-flow bound.
func (g *Network[C]) augment(v, t int, limit C) C {
	adj, level, iter, eps := g.adj, g.level, g.iter, g.eps
	path := g.path[:0]
	for u := v; u != t; {
		arcs, i, next := adj[u], iter[u], level[u]+1
		for ; i < len(arcs); i++ {
			if e := &arcs[i]; e.cap > eps && level[e.to] == next {
				break
			}
		}
		iter[u] = i
		if i < len(arcs) {
			path = append(path, u)
			u = arcs[i].to
			continue
		}
		level[u] = -2 // dead end; skip for the rest of this phase
		if len(path) == 0 {
			g.path = path
			return 0
		}
		u = path[len(path)-1]
		path = path[:len(path)-1]
		iter[u]++ // move past the dead edge
	}
	bottle := limit
	for _, u := range path {
		if c := adj[u][iter[u]].cap; c < bottle {
			bottle = c
		}
	}
	for _, u := range path {
		e := &adj[u][iter[u]]
		e.cap -= bottle
		adj[e.to][e.rev].cap += bottle
	}
	g.path = path
	return bottle
}

// Max computes the maximum flow from s to t, mutating the residual network.
// It may be called repeatedly: each call continues from the current residual
// state, so callers wanting a fresh solve use Reset (and/or SetCapacity)
// first.
//
// A phase costs the adjacency entries its BFS scans until it labels t, plus
// a reset of the nodes the previous phase labelled, then one blocking flow
// over those nodes; nodes the BFS never reached are not touched. The routed
// flow equals, edge for edge, that of textbook Dinic with a full BFS labelling
// of the residual graph: both find the same augmenting paths in the same
// order.
func (g *Network[C]) Max(s, t int) C {
	return g.maxFrom(s, t, nil, true)
}

// MaxFrom is Max for a continuation that knows which arcs of s may still
// carry flow: from lists them, and every arc of s that it does not list must
// be saturated. Each phase's BFS and its level-1 DFS then walk only the
// listed arcs, in adjacency order, instead of all deg(s) of them, and the
// routed flow equals Max's on every edge. A list may hold saturated arcs
// too; an empty one on a saturated source routes nothing. MaxFrom sorts
// from in place.
func (g *Network[C]) MaxFrom(s, t int, from []EdgeID[C]) C {
	slices.SortFunc(from, func(a, b EdgeID[C]) int { return a.idx - b.idx })
	return g.maxFrom(s, t, from, false)
}

// maxFrom is Dinic for Max (all set: every arc of s) and MaxFrom (only
// from's arcs, sorted). A phase's blocking flow takes the source arcs in
// adjacency order and augments along each one while it has residual and its
// head is a live level-1 node. An arc of s that is saturated when a solve
// starts stays saturated: Dinic's paths never re-enter s, so no push raises
// a source arc's residual.
func (g *Network[C]) maxFrom(s, t int, from []EdgeID[C], all bool) C {
	if s == t {
		return 0
	}
	g.ensureScratch()
	adj, level, iter, eps := g.adj, g.level, g.iter, g.eps
	src, n := adj[s], len(from)
	if all {
		n = len(src)
	}
	var total C
	for g.bfs(s, t, from, all) {
		for _, v := range g.queue {
			iter[v] = 0
		}
		for k := 0; k < n; k++ {
			a := k
			if !all {
				a = from[k].idx
			}
			e := &src[a]
			for e.cap > eps && level[e.to] == 1 {
				f := g.augment(e.to, t, e.cap)
				if f == 0 {
					break
				}
				e.cap -= f
				adj[e.to][e.rev].cap += f
				total += f
			}
		}
	}
	return total
}

// MinCutSource returns the set of nodes reachable from s in the residual
// network after Max has been run; this is the source side of a minimum cut.
func (g *Network[C]) MinCutSource(s int) []bool {
	return g.ReachableFrom(s, -1)
}

// ReachableFrom returns the set of nodes reachable from start along
// residual edges after Max has been run, never expanding through blocked
// (pass -1 to disable blocking). The blocked node is reported as true so
// the walk skips it, but none of its outgoing edges are followed. The
// batched Benders separation uses this to harvest one Hall-style violator
// per deficient job: reachability from the job's node with the source
// blocked, since every deficient job reaches the source over its
// unsaturated supply edge and unrestricted reachability would collapse
// every per-job set onto the global minimum cut.
func (g *Network[C]) ReachableFrom(start, blocked int) []bool {
	seen := make([]bool, len(g.adj))
	if blocked >= 0 {
		seen[blocked] = true
	}
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if e.cap > g.eps && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}

// PathEdge labels an edge for path decomposition.
type PathEdge[C Capacity] struct {
	ID    EdgeID[C]
	Label int // caller-defined payload (e.g. job index, or -1 for skip arcs)
}

// DecomposePaths decomposes the flow currently carried by the given edges
// into unit paths from s to t on a DAG and returns, per path, the labels of
// the edges used (in path order). It requires integral per-edge flow values
// (the int64 instantiation, or float flows that are near-integral) and a
// graph in which the tracked edges form a DAG from s to t; both hold for the
// busy-time flow-cover construction that uses it.
func (g *Network[C]) DecomposePaths(s, t int, edges []PathEdge[C]) [][]int {
	type arc struct {
		to    int
		label int
		left  int64
	}
	out := make(map[int][]*arc)
	var units int64
	for _, pe := range edges {
		f := g.Flow(pe.ID)
		n := int64(float64(f) + 0.5) // exact for int64; rounds float flow
		if n <= 0 {
			continue
		}
		a := &arc{to: g.adj[pe.ID.from][pe.ID.idx].to, label: pe.Label, left: n}
		out[pe.ID.from] = append(out[pe.ID.from], a)
		if pe.ID.from == s {
			units += n
		}
	}
	var paths [][]int
	for u := 0; int64(u) < units; u++ {
		var labels []int
		cur := s
		for cur != t {
			var next *arc
			for _, a := range out[cur] {
				if a.left > 0 {
					next = a
					break
				}
			}
			if next == nil {
				// Flow conservation violated (should not happen): abandon path.
				labels = nil
				break
			}
			next.left--
			labels = append(labels, next.label)
			cur = next.to
		}
		if labels != nil {
			paths = append(paths, labels)
		}
	}
	return paths
}
