package activetime

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lp"
)

// ivalArc is one job→interval arc of a separator, with its interval.
type ivalArc struct {
	ival int
	id   flow.EdgeID[float64]
}

// jobArcs transposes the separator's per-interval arc lists: index i lists
// job i's arcs in interval order.
func jobArcs(s *separator) [][]ivalArc {
	out := make([][]ivalArc, len(s.in.Jobs))
	for k, arcs := range s.ivalArcs {
		for _, a := range arcs {
			out[a.job] = append(out[a.job], ivalArc{k, a.id})
		}
	}
	return out
}

// loadFullScan is the reference loader that load's moved-interval visits
// replace: it tests every job→interval arc, job by job, then every sink
// arc, and re-capacitates each whose capacity differs from the interval's
// Y_I (g·Y_I for a sink arc) with the same repair.
func loadFullScan(s *separator, Y []float64) bool {
	g := float64(s.in.G)
	for i, arcs := range jobArcs(s) {
		for _, a := range arcs {
			c := Y[s.ivals[a.ival].col]
			if c == s.net.Capacity(a.id) {
				continue
			}
			if ex := s.net.SetCapacityKeepFlow(a.id, c); ex > 0 {
				s.net.PushBack(s.srcEdges[i], ex)
				s.net.PushBack(s.ivals[a.ival].sink, ex)
			}
		}
	}
	for k := range s.ivals {
		iv := &s.ivals[k]
		c := g * Y[iv.col]
		if c == s.net.Capacity(iv.sink) {
			continue
		}
		ex := s.net.SetCapacityKeepFlow(iv.sink, c)
		for _, a := range s.ivalArcs[k] {
			if ex <= 0 {
				break
			}
			f := s.net.Flow(a.id)
			if f <= 0 {
				continue
			}
			if f > ex {
				f = ex
			}
			s.net.PushBack(a.id, f)
			s.net.PushBack(s.srcEdges[a.job], f)
			ex -= f
		}
	}
	got := 0.0
	for i := range s.srcEdges {
		got += s.net.Flow(s.srcEdges[i])
	}
	got += s.net.Max(s.src, s.sink)
	return got < s.total-1e-6
}

// loadPair keeps a moved-interval separator and a full-scan reference
// built on the same instance in step: every load goes to both.
type loadPair struct {
	got, want *separator
	loads     int
	name      string
	t         *testing.T
}

func newLoadPair(t *testing.T, in *core.Instance, name string) *loadPair {
	return &loadPair{got: newSeparator(in), want: newSeparator(in), name: name, t: t}
}

// sepEdges lists every arc of the separator: the supply arcs, the sink
// arcs, then the job arcs interval by interval.
func sepEdges(s *separator) []flow.EdgeID[float64] {
	out := append([]flow.EdgeID[float64]{}, s.srcEdges...)
	for _, iv := range s.ivals {
		out = append(out, iv.sink)
	}
	for _, arcs := range s.ivalArcs {
		for _, a := range arcs {
			out = append(out, a.id)
		}
	}
	return out
}

// load runs the master point Y through both loaders and requires the same
// verdict, the same residual and reference capacity on every arc, bit for
// bit, and Y_I on every job arc of interval I.
func (p *loadPair) load(Y []float64) {
	p.t.Helper()
	p.loads++
	vGot, vWant := p.got.load(Y), loadFullScan(p.want, Y)
	if vGot != vWant {
		p.t.Fatalf("%s load %d: moved-interval load violated=%v, full scan %v", p.name, p.loads, vGot, vWant)
	}
	eGot, eWant := sepEdges(p.got), sepEdges(p.want)
	if len(eGot) != len(eWant) {
		p.t.Fatalf("%s load %d: %d arcs, reference %d", p.name, p.loads, len(eGot), len(eWant))
	}
	for k := range eGot {
		a, b := eGot[k], eWant[k]
		if math.Float64bits(p.got.net.Residual(a)) != math.Float64bits(p.want.net.Residual(b)) ||
			math.Float64bits(p.got.net.Capacity(a)) != math.Float64bits(p.want.net.Capacity(b)) {
			p.t.Fatalf("%s load %d: arc %d has residual %v of capacity %v, full scan %v of %v", p.name, p.loads, k,
				p.got.net.Residual(a), p.got.net.Capacity(a), p.want.net.Residual(b), p.want.net.Capacity(b))
		}
	}
	for k, arcs := range p.got.ivalArcs {
		v := max(Y[p.got.ivals[k].col], 0)
		for _, a := range arcs {
			if c := p.got.net.Capacity(a.id); c != v {
				p.t.Fatalf("%s load %d: job %d interval %d has capacity %v, Y_I = %v", p.name, p.loads, a.job, k, c, v)
			}
		}
	}
}

// bendersTrajectory returns the master optimum of every round of the
// default pipeline's cut loop on in (never-purging, adaptive cap), one
// value per atom.
func bendersTrajectory(t *testing.T, in *core.Instance) [][]float64 {
	steer := newSeparator(in)
	prob, err := newMaster(steer)
	if err != nil {
		t.Fatal(err)
	}
	reg := newCutRegistry(prob.NumConstraints())
	cap := adaptiveBatchCap(in)
	var ys [][]float64
	var basis *lp.Basis
	for round := 0; round < 200; round++ {
		sol, nb, err := prob.ResolveFrom(basis)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("round %d: %v %v", round, err, sol)
		}
		basis = nb
		ys = append(ys, append([]float64(nil), sol.X...))
		added := 0
		for _, A := range steer.separateAll(sol.X, cap) {
			if reg.inMaster(A) {
				continue
			}
			cols, vals, rhs := steer.cutFor(A)
			if err := prob.AddSparse(cols, vals, lp.GE, rhs); err != nil {
				t.Fatal(err)
			}
			reg.add(A)
			added++
		}
		if added == 0 {
			return ys
		}
	}
	t.Fatal("cut loop did not converge")
	return nil
}

// TestLoadIncrementalMatchesFullScan locks the moved-interval loader
// against a full scan of every arc of the interval network. Two
// separators on the same instance take the same loads — Benders
// trajectories of the atom master and the shrink sequences of
// TestSeparatorIncrementalShrink — and after every load every arc must
// hold the same residual and capacity, bit for bit.
func TestLoadIncrementalMatchesFullScan(t *testing.T) {
	trajectories := 0
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < 4; seed++ {
			in := fam.make(seed)
			if !CheckFeasible(in, AllSlots(in)) {
				continue
			}
			p := newLoadPair(t, in, fam.name)
			for _, y := range bendersTrajectory(t, in) {
				p.load(y)
			}
			trajectories++
		}
	}
	if trajectories < 20 {
		t.Fatalf("only %d Benders trajectories compared", trajectories)
	}

	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := lpFamilies[int(seed)%len(lpFamilies)].make(seed)
		p := newLoadPair(t, in, "shrink")
		Y := make([]float64, len(p.got.ivals))
		for step := 0; step < 25; step++ {
			shrinkStep(rng, p.got, Y, step)
			p.load(Y)
		}
	}
}
