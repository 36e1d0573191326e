package flow

import (
	"fmt"
	"math/rand"
	"testing"
)

// refMax is textbook full-labelling Dinic, the reference Max and MaxFrom
// must match edge for edge: every phase's BFS labels the whole residual
// region reachable from s (refBFS), level and iter are reset for every
// node, and each augmenting path is found by one DFS from s over every arc
// of s (refAugment). It shares no traversal code with Max, so a mismatch
// can come from the sink-bounded BFS, the partial resets or the blocking
// flow's walk of the source arcs.
func refMax[C Capacity](g *Network[C], s, t int) C {
	if s == t {
		return 0
	}
	g.ensureScratch()
	var total C
	for refBFS(g, s, t) {
		for i := range g.adj {
			g.iter[i] = 0
		}
		for {
			f := refAugment(g, s, t)
			if f <= g.eps {
				break
			}
			total += f
		}
	}
	return total
}

// refAugment finds one augmenting path from s to t in the level graph with
// an explicit DFS stack and pushes its bottleneck; it returns 0 once s is a
// dead end.
func refAugment[C Capacity](g *Network[C], s, t int) C {
	path := g.path[:0]
	u := s
	for {
		if u == t {
			var bottle C
			for k, v := range path {
				c := g.adj[v][g.iter[v]].cap
				if k == 0 || c < bottle {
					bottle = c
				}
			}
			for _, v := range path {
				e := &g.adj[v][g.iter[v]]
				e.cap -= bottle
				g.adj[e.to][e.rev].cap += bottle
			}
			g.path = path
			return bottle
		}
		advanced := false
		for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
			e := &g.adj[u][g.iter[u]]
			if e.cap > g.eps && g.level[e.to] == g.level[u]+1 {
				path = append(path, u)
				u = e.to
				advanced = true
				break
			}
		}
		if !advanced {
			g.level[u] = -2
			if u == s {
				g.path = path
				return 0
			}
			u = path[len(path)-1]
			path = path[:len(path)-1]
			g.iter[u]++
		}
	}
}

func refBFS[C Capacity](g *Network[C], s, t int) bool {
	level := g.level
	for i := range g.adj {
		level[i] = -1
	}
	queue := append(g.queue[:0], s)
	level[s] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range g.adj[u] {
			if e.cap > g.eps && level[e.to] < 0 {
				level[e.to] = level[u] + 1
				queue = append(queue, e.to)
			}
		}
	}
	g.queue = queue
	return level[t] >= 0
}

// twins holds three networks built from the same AddNode/AddEdge calls:
// got runs Max, short runs MaxFrom and want runs refMax. want is built with
// NewNetwork as the calls come; got and short are built with
// NewNetworkDegrees once the initial topology is complete (build), from
// counts that may fit their arcs exactly, fall short or leave room to
// spare. Every later mutation is applied to all three (nets); an EdgeID
// names the same edge in each.
type twins[C Capacity] struct {
	got, want, short *Network[C]
	eps              C
	plan             []plannedArc[C] // arcs added before build, replayed into got and short
}

type plannedArc[C Capacity] struct {
	u, v int
	c    C
	id   EdgeID[C]
}

// room says how the counts got is built from relate to its arcs.
type room int

const (
	exactRoom room = iota // every node's count is its arc count
	shortRoom             // some nodes are one arc short and move mid-build
	spareRoom             // every node has up to two arcs to spare
)

func newTwins[C Capacity](n int, eps C) *twins[C] {
	return &twins[C]{want: NewNetwork[C](n, eps), eps: eps}
}

// nets lists the networks every mutation is applied to: want, then got and
// short once they are built.
func (tw *twins[C]) nets() []*Network[C] {
	if tw.got == nil {
		return []*Network[C]{tw.want}
	}
	return []*Network[C]{tw.want, tw.got, tw.short}
}

func (tw *twins[C]) addNode() int {
	for _, g := range tw.nets()[1:] {
		g.AddNode()
	}
	return tw.want.AddNode()
}

func (tw *twins[C]) addEdge(u, v int, c C) EdgeID[C] {
	id := tw.want.AddEdge(u, v, c)
	if tw.got == nil {
		tw.plan = append(tw.plan, plannedArc[C]{u, v, c, id})
	}
	for _, g := range tw.nets()[1:] {
		g.AddEdge(u, v, c)
	}
	return id
}

// build counts each node's arcs in want, adjusts the counts as r says and
// replays the arcs added so far into NewNetworkDegrees networks, which must
// hand out the same EdgeIDs.
func (tw *twins[C]) build(t *testing.T, r room, rng *rand.Rand) {
	t.Helper()
	deg := make([]int, len(tw.want.adj))
	for u, arcs := range tw.want.adj {
		deg[u] = len(arcs)
		switch {
		case r == shortRoom && deg[u] > 0 && rng.Intn(3) == 0:
			deg[u]--
		case r == spareRoom:
			deg[u] += rng.Intn(3)
		}
	}
	tw.got, tw.short = NewNetworkDegrees(deg, tw.eps), NewNetworkDegrees(deg, tw.eps)
	for _, g := range tw.nets()[1:] {
		for _, a := range tw.plan {
			if id := g.AddEdge(a.u, a.v, a.c); id != a.id {
				t.Fatalf("arc %d→%d: NewNetworkDegrees gave %+v, NewNetwork %+v", a.u, a.v, id, a.id)
			}
		}
	}
	tw.plan = nil
}

// max runs refMax on want, Max on got and MaxFrom with the given list on
// short, then requires the same value and the same residual and reference
// capacity on every arc, reverse arcs included.
func (tw *twins[C]) max(t *testing.T, label string, s, sink int, from []EdgeID[C]) {
	t.Helper()
	want := refMax(tw.want, s, sink)
	tw.same(t, label+": Max", tw.got, tw.got.Max(s, sink), want)
	tw.same(t, label+": MaxFrom", tw.short, tw.short.MaxFrom(s, sink, from), want)
}

// same requires g to have routed the value want and to match want's
// network arc for arc.
func (tw *twins[C]) same(t *testing.T, label string, g *Network[C], got, want C) {
	t.Helper()
	if got != want {
		t.Fatalf("%s = %v, full-labelling Dinic = %v", label, got, want)
	}
	sameArcs(t, label, g, tw.want)
}

// sameArcs requires two networks to hold the same arcs with the same
// residual and reference capacities, reverse arcs included.
func sameArcs[C Capacity](t *testing.T, label string, g, want *Network[C]) {
	t.Helper()
	for u := range g.adj {
		if len(g.adj[u]) != len(want.adj[u]) {
			t.Fatalf("%s: node %d has %d arcs, %d under full-labelling Dinic", label, u, len(g.adj[u]), len(want.adj[u]))
		}
		for i, e := range g.adj[u] {
			if r := want.adj[u][i]; e != r {
				t.Fatalf("%s: arc %d[%d] is %+v, %+v under full-labelling Dinic", label, u, i, e, r)
			}
		}
	}
}

// shortList draws the source arcs a MaxFrom solve is handed: every supply
// arc with residual capacity, which includes each arc a shrink cancelled
// flow on, each raised arc and each new one, plus about half of the
// saturated ones, in shuffled order.
func shortList[C Capacity](rng *rand.Rand, g *Network[C], supply []EdgeID[C]) []EdgeID[C] {
	var from []EdgeID[C]
	for _, id := range supply {
		if g.Residual(id) > g.eps || rng.Intn(2) == 0 {
			from = append(from, id)
		}
	}
	rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
	return from
}

// randCap draws a capacity in [0, 8): integral for int64, fractional for
// float64.
func randCap[C Capacity](rng *rand.Rand) C {
	var c C
	switch p := any(&c).(type) {
	case *int64:
		*p = int64(rng.Intn(8))
	case *float64:
		*p = 8 * rng.Float64()
	}
	return c
}

// midEdge is a left→right edge of a bipartite network with the indexes of
// the supply and demand edges on its length-3 paths.
type midEdge[C Capacity] struct {
	id          EdgeID[C]
	left, right int
}

// bipartite builds src(0) → left → right → sink, the shape of the
// feasibility and separation networks, and returns the sink and the
// supply, demand and middle edges.
func bipartite[C Capacity](rng *rand.Rand, tw *twins[C], nLeft, nRight int) (sink int, supply, demand []EdgeID[C], middle []midEdge[C]) {
	sink = 1 + nLeft + nRight
	for r := 0; r < nRight; r++ {
		demand = append(demand, tw.addEdge(1+nLeft+r, sink, randCap[C](rng)))
	}
	for l := 0; l < nLeft; l++ {
		supply = append(supply, tw.addEdge(0, 1+l, randCap[C](rng)))
		for r := 0; r < nRight; r++ {
			if rng.Intn(3) == 0 {
				middle = append(middle, midEdge[C]{tw.addEdge(1+l, 1+nLeft+r, randCap[C](rng)), l, r})
			}
		}
	}
	return sink, supply, demand, middle
}

// layered builds a network of layers×width nodes between src(0) and the
// sink, with forward arcs to the next layer and a few backward and
// layer-skipping arcs, so phases see cycles, dead ends and nodes past the
// sink's level. It returns the sink and the source's arcs.
func layered[C Capacity](rng *rand.Rand, tw *twins[C], layers, width int) (sink int, supply []EdgeID[C]) {
	sink = 1 + layers*width
	node := func(l, w int) int { return 1 + l*width + w }
	for w := 0; w < width; w++ {
		supply = append(supply, tw.addEdge(0, node(0, w), randCap[C](rng)))
		tw.addEdge(node(layers-1, w), sink, randCap[C](rng))
	}
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			u := node(l, w)
			if l+1 < layers {
				for k := 0; k < 2; k++ {
					tw.addEdge(u, node(l+1, rng.Intn(width)), randCap[C](rng))
				}
			}
			switch rng.Intn(4) {
			case 0:
				if l > 0 {
					tw.addEdge(u, node(l-1, rng.Intn(width)), randCap[C](rng))
				}
			case 1:
				if l+2 < layers {
					tw.addEdge(u, node(l+2, rng.Intn(width)), randCap[C](rng))
				}
			}
		}
	}
	return sink, supply
}

// TestMaxMatchesFullLabelling is the identity behind the sink-bounded
// phases, the source-arc list and counted construction: on seeded random
// bipartite and layered networks, with int64 and float64 capacities, Max on
// a NewNetworkDegrees network routes exactly the flow of full-labelling
// Dinic on a NewNetwork network, on every arc — from scratch, after Reset,
// after capacity shrinks repaired with SetCapacityKeepFlow + PushBack, after
// capacity raises, and after AddNode/AddEdge growth, where the level
// scratch is reallocated. A third copy runs every solve through MaxFrom,
// handed the source arcs that may carry flow plus random saturated ones in
// shuffled order, and must route the same flow; handed no arcs on a
// saturated source, it must route nothing and change nothing. The counts are exact, one arc short at random nodes or spare,
// by seed (seed mod 3). A node given more arcs than its room, mid-build or
// by growth reaching the full source and right nodes, must move without
// touching its neighbours' arcs.
func TestMaxMatchesFullLabelling(t *testing.T) {
	t.Run("int64", func(t *testing.T) { checkMaxIdentity[int64](t, 0) })
	t.Run("float64", func(t *testing.T) { checkMaxIdentity[float64](t, 1e-12) })
}

func checkMaxIdentity[C Capacity](t *testing.T, eps C) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, roomRng := room(seed%3), rand.New(rand.NewSource(^seed))
		listRng := rand.New(rand.NewSource(seed + 1<<20))

		// Layered: from scratch, then again after Reset.
		layers, width := 3+rng.Intn(5), 2+rng.Intn(8)
		lt := newTwins[C](2+layers*width, eps)
		lsink, lsupply := layered(rng, lt, layers, width)
		lt.build(t, r, roomRng)
		lt.max(t, fmt.Sprintf("seed %d layered", seed), 0, lsink, shortList(listRng, lt.short, lsupply))
		for _, g := range lt.nets() {
			g.Reset()
		}
		lt.max(t, fmt.Sprintf("seed %d layered after Reset", seed), 0, lsink, shortList(listRng, lt.short, lsupply))

		// Bipartite, continued across shrinks, raises and growth.
		nLeft, nRight := 2+rng.Intn(10), 2+rng.Intn(10)
		bt := newTwins[C](2+nLeft+nRight, eps)
		sink, supply, demand, middle := bipartite(rng, bt, nLeft, nRight)
		bt.build(t, r, roomRng)
		// solve hands MaxFrom the list drawn from the state before it.
		solve := func(label string) { bt.max(t, label, 0, sink, shortList(listRng, bt.short, supply)) }
		solve(fmt.Sprintf("seed %d bipartite", seed))
		for round := 0; round < 4; round++ {
			label := fmt.Sprintf("seed %d bipartite round %d", seed, round)
			// Shrink some middle edges below their flow and cancel the
			// excess along the rest of each length-3 path.
			for _, m := range middle {
				if rng.Intn(3) != 0 {
					continue
				}
				c := randCap[C](rng) / 2
				for _, g := range bt.nets() {
					if ex := g.SetCapacityKeepFlow(m.id, c); ex > 0 {
						g.PushBack(supply[m.left], ex)
						g.PushBack(demand[m.right], ex)
					}
				}
			}
			solve(label + " after shrinks")
			// Raise a few supply and demand edges, keeping their flow.
			for _, id := range append(append([]EdgeID[C](nil), supply...), demand...) {
				if rng.Intn(4) == 0 {
					c := bt.got.Capacity(id) + randCap[C](rng)
					for _, g := range bt.nets() {
						g.SetCapacityKeepFlow(id, c)
					}
				}
			}
			solve(label + " after raises")
			// Grow: a new left node wired to random right nodes (resizing
			// the scratch), plus a fresh middle edge between old nodes.
			l := bt.addNode()
			supply = append(supply, bt.addEdge(0, l, randCap[C](rng)))
			for r := 0; r < nRight; r++ {
				if rng.Intn(2) == 0 {
					bt.addEdge(l, 1+nLeft+r, randCap[C](rng))
				}
			}
			bt.addEdge(1+rng.Intn(nLeft), 1+nLeft+rng.Intn(nRight), randCap[C](rng))
			solve(label + " after growth")
		}
		// Saturate the source by cutting every supply arc to its flow: no
		// list at all must then route nothing and leave every arc as it is.
		for _, id := range supply {
			for _, g := range bt.nets() {
				g.SetCapacityKeepFlow(id, g.Flow(id))
			}
		}
		if f := bt.short.MaxFrom(0, sink, nil); f != 0 {
			t.Fatalf("seed %d: MaxFrom with no arcs on a saturated source routed %v", seed, f)
		}
		sameArcs(t, fmt.Sprintf("seed %d MaxFrom with no arcs", seed), bt.short, bt.want)
	}
}
