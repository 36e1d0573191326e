package flow

import (
	"math/rand"
	"testing"
)

func TestMaxFlowSmall(t *testing.T) {
	// Classic 6-node example with max flow 23.
	g := NewNetwork[int64](6, 0)
	s, v1, v2, v3, v4, tt := 0, 1, 2, 3, 4, 5
	g.AddEdge(s, v1, 16)
	g.AddEdge(s, v2, 13)
	g.AddEdge(v1, v2, 10)
	g.AddEdge(v2, v1, 4)
	g.AddEdge(v1, v3, 12)
	g.AddEdge(v3, v2, 9)
	g.AddEdge(v2, v4, 14)
	g.AddEdge(v4, v3, 7)
	g.AddEdge(v3, tt, 20)
	g.AddEdge(v4, tt, 4)
	if got := g.Max(s, tt); got != 23 {
		t.Errorf("max flow = %d, want 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewNetwork[int64](3, 0)
	g.AddEdge(0, 1, 5)
	if got := g.Max(0, 2); got != 0 {
		t.Errorf("max flow = %d, want 0", got)
	}
}

func TestEdgeFlowAccounting(t *testing.T) {
	g := NewNetwork[int64](4, 0)
	a := g.AddEdge(0, 1, 3)
	b := g.AddEdge(0, 2, 2)
	c := g.AddEdge(1, 3, 2)
	d := g.AddEdge(2, 3, 5)
	got := g.Max(0, 3)
	if got != 4 {
		t.Fatalf("max flow = %d, want 4", got)
	}
	if g.Flow(a) != 2 || g.Flow(c) != 2 {
		t.Errorf("path 0-1-3 carries (%d,%d), want (2,2)", g.Flow(a), g.Flow(c))
	}
	if g.Flow(b) != 2 || g.Flow(d) != 2 {
		t.Errorf("path 0-2-3 carries (%d,%d), want (2,2)", g.Flow(b), g.Flow(d))
	}
}

func TestMinCutSource(t *testing.T) {
	g := NewNetwork[int64](4, 0)
	g.AddEdge(0, 1, 1) // bottleneck
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 3, 10)
	g.Max(0, 3)
	cut := g.MinCutSource(0)
	if !cut[0] || cut[1] || cut[2] || cut[3] {
		t.Errorf("cut = %v, want only source side {0}", cut)
	}
}

func TestFloatCapacities(t *testing.T) {
	g := NewNetwork[float64](4, 1e-12)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(0, 2, 0.25)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	got := g.Max(0, 3)
	if diff := got - 0.75; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("max flow = %v, want 0.75", got)
	}
}

// bruteMaxFlow computes max flow by Ford-Fulkerson with DFS on an adjacency
// matrix, as an independent oracle.
func bruteMaxFlow(n int, cap [][]int64, s, t int) int64 {
	res := make([][]int64, n)
	for i := range res {
		res[i] = append([]int64(nil), cap[i]...)
	}
	var total int64
	for {
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		queue := []int{s}
		for len(queue) > 0 && parent[t] < 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if parent[v] < 0 && res[u][v] > 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[t] < 0 {
			return total
		}
		aug := int64(1 << 62)
		for v := t; v != s; v = parent[v] {
			if res[parent[v]][v] < aug {
				aug = res[parent[v]][v]
			}
		}
		for v := t; v != s; v = parent[v] {
			res[parent[v]][v] -= aug
			res[v][parent[v]] += aug
		}
		total += aug
	}
}

func TestMaxFlowRandomAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		capm := make([][]int64, n)
		for i := range capm {
			capm[i] = make([]int64, n)
		}
		g := NewNetwork[int64](n, 0)
		edges := rng.Intn(3 * n)
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int64(rng.Intn(10))
			capm[u][v] += c
			g.AddEdge(u, v, c)
		}
		want := bruteMaxFlow(n, capm, 0, n-1)
		if got := g.Max(0, n-1); got != want {
			t.Fatalf("trial %d: dinic = %d, brute = %d", trial, got, want)
		}
	}
}
