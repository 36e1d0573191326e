package flow

import (
	"fmt"
	"math/rand"
	"testing"
)

// refMax is full-labelling Dinic, the reference Max must match edge for
// edge: every phase's BFS labels the whole residual region reachable from s
// (refBFS), and level and iter are reset for every node. It shares augment
// with Max, so a mismatch can only come from the sink-bounded BFS or the
// partial resets.
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
			f := g.augment(s, t)
			if f <= g.eps {
				break
			}
			total += f
		}
	}
	return total
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

// twins holds two networks built from the same AddNode/AddEdge calls: got
// runs Max, want runs refMax. want is built with NewNetwork as the calls
// come; got is built with NewNetworkDegrees once the initial topology is
// complete (build), from counts that may fit its arcs exactly, fall short or
// leave room to spare. Every later mutation is applied to both; an EdgeID
// names the same edge in either.
type twins[C Capacity] struct {
	got, want *Network[C]
	eps       C
	plan      []plannedArc[C] // arcs added before build, replayed into got
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

func (tw *twins[C]) addNode() int {
	if tw.got != nil {
		tw.got.AddNode()
	}
	return tw.want.AddNode()
}

func (tw *twins[C]) addEdge(u, v int, c C) EdgeID[C] {
	id := tw.want.AddEdge(u, v, c)
	if tw.got == nil {
		tw.plan = append(tw.plan, plannedArc[C]{u, v, c, id})
	} else {
		tw.got.AddEdge(u, v, c)
	}
	return id
}

// build counts each node's arcs in want, adjusts the counts as r says and
// replays the arcs added so far into a NewNetworkDegrees network, which
// must hand out the same EdgeIDs.
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
	tw.got = NewNetworkDegrees(deg, tw.eps)
	for _, a := range tw.plan {
		if id := tw.got.AddEdge(a.u, a.v, a.c); id != a.id {
			t.Fatalf("arc %d→%d: NewNetworkDegrees gave %+v, NewNetwork %+v", a.u, a.v, id, a.id)
		}
	}
	tw.plan = nil
}

// max runs Max on one twin and refMax on the other, then requires the same
// value and the same residual and reference capacity on every arc, reverse
// arcs included.
func (tw *twins[C]) max(t *testing.T, label string, s, sink int) {
	t.Helper()
	got, want := tw.got.Max(s, sink), refMax(tw.want, s, sink)
	if got != want {
		t.Fatalf("%s: Max = %v, full-labelling Dinic = %v", label, got, want)
	}
	for u := range tw.got.adj {
		if len(tw.got.adj[u]) != len(tw.want.adj[u]) {
			t.Fatalf("%s: node %d has %d arcs under Max, %d under full-labelling Dinic", label, u, len(tw.got.adj[u]), len(tw.want.adj[u]))
		}
		for i, e := range tw.got.adj[u] {
			if r := tw.want.adj[u][i]; e != r {
				t.Fatalf("%s: arc %d[%d] is %+v under Max, %+v under full-labelling Dinic", label, u, i, e, r)
			}
		}
	}
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
// sink's level.
func layered[C Capacity](rng *rand.Rand, tw *twins[C], layers, width int) (sink int) {
	sink = 1 + layers*width
	node := func(l, w int) int { return 1 + l*width + w }
	for w := 0; w < width; w++ {
		tw.addEdge(0, node(0, w), randCap[C](rng))
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
	return sink
}

// TestMaxMatchesFullLabelling is the identity behind the sink-bounded
// phases and counted construction: on seeded random bipartite and layered
// networks, with int64 and float64 capacities, Max on a NewNetworkDegrees
// network routes exactly the flow of full-labelling Dinic on a NewNetwork
// network, on every arc — from scratch, after Reset, after capacity shrinks
// repaired with SetCapacityKeepFlow + PushBack, after capacity raises, and
// after AddNode/AddEdge growth, where the level scratch is reallocated. The
// counts are exact, one arc short at random nodes or spare, by seed (seed
// mod 3). A node given more arcs than its room, mid-build or by growth
// reaching the full source and right nodes, must move without touching its
// neighbours' arcs.
func TestMaxMatchesFullLabelling(t *testing.T) {
	t.Run("int64", func(t *testing.T) { checkMaxIdentity[int64](t, 0) })
	t.Run("float64", func(t *testing.T) { checkMaxIdentity[float64](t, 1e-12) })
}

func checkMaxIdentity[C Capacity](t *testing.T, eps C) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, roomRng := room(seed%3), rand.New(rand.NewSource(^seed))

		// Layered: from scratch, then again after Reset.
		layers, width := 3+rng.Intn(5), 2+rng.Intn(8)
		lt := newTwins[C](2+layers*width, eps)
		lsink := layered(rng, lt, layers, width)
		lt.build(t, r, roomRng)
		lt.max(t, fmt.Sprintf("seed %d layered", seed), 0, lsink)
		lt.got.Reset()
		lt.want.Reset()
		lt.max(t, fmt.Sprintf("seed %d layered after Reset", seed), 0, lsink)

		// Bipartite, continued across shrinks, raises and growth.
		nLeft, nRight := 2+rng.Intn(10), 2+rng.Intn(10)
		bt := newTwins[C](2+nLeft+nRight, eps)
		sink, supply, demand, middle := bipartite(rng, bt, nLeft, nRight)
		bt.build(t, r, roomRng)
		bt.max(t, fmt.Sprintf("seed %d bipartite", seed), 0, sink)
		for round := 0; round < 4; round++ {
			label := fmt.Sprintf("seed %d bipartite round %d", seed, round)
			// Shrink some middle edges below their flow and cancel the
			// excess along the rest of each length-3 path.
			for _, m := range middle {
				if rng.Intn(3) != 0 {
					continue
				}
				c := randCap[C](rng) / 2
				for _, g := range []*Network[C]{bt.got, bt.want} {
					if ex := g.SetCapacityKeepFlow(m.id, c); ex > 0 {
						g.PushBack(supply[m.left], ex)
						g.PushBack(demand[m.right], ex)
					}
				}
			}
			bt.max(t, label+" after shrinks", 0, sink)
			// Raise a few supply and demand edges, keeping their flow.
			for _, id := range append(append([]EdgeID[C](nil), supply...), demand...) {
				if rng.Intn(4) == 0 {
					c := bt.got.Capacity(id) + randCap[C](rng)
					bt.got.SetCapacityKeepFlow(id, c)
					bt.want.SetCapacityKeepFlow(id, c)
				}
			}
			bt.max(t, label+" after raises", 0, sink)
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
			bt.max(t, label+" after growth", 0, sink)
		}
	}
}
