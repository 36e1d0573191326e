package activetime

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lp"
)

// loadFullScan is the reference loader that loadIncremental replaced: it
// tests every job→slot edge, job by job, then every slot→sink edge, and
// re-capacitates each whose capacity differs from y with the same repair.
func loadFullScan(s *separator, y []float64) bool {
	g := float64(s.in.G)
	for i, j := range s.in.Jobs {
		ids := s.jobEdges[i]
		for k, t := 0, j.FirstSlot(); t <= j.LastSlot(); k, t = k+1, t+1 {
			c := y[t-1]
			if c == s.net.Capacity(ids[k]) {
				continue
			}
			if ex := s.net.SetCapacityKeepFlow(ids[k], c); ex > 0 {
				s.net.PushBack(s.srcEdges[i], ex)
				s.net.PushBack(s.slotEdges[t-1], ex)
			}
		}
	}
	for t := range y {
		c := g * y[t]
		if c == s.net.Capacity(s.slotEdges[t]) {
			continue
		}
		ex := s.net.SetCapacityKeepFlow(s.slotEdges[t], c)
		for _, ref := range s.slotJobs[t] {
			if ex <= 0 {
				break
			}
			eid := s.jobEdges[ref.job][ref.k]
			f := s.net.Flow(eid)
			if f <= 0 {
				continue
			}
			if f > ex {
				f = ex
			}
			s.net.PushBack(eid, f)
			s.net.PushBack(s.srcEdges[ref.job], f)
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

// loadPair keeps a moved-slot separator and a full-scan reference built on
// the same instance in step: every load goes to both, and retired holds
// the window edges of removed jobs, which stay in both networks.
type loadPair struct {
	got, want       *separator
	retGot, retWant []flow.EdgeID[float64]
	loads           int
	name            string
	t               *testing.T
}

func newLoadPair(t *testing.T, in *core.Instance, name string) *loadPair {
	got := newSeparator(in)
	got.incremental = true
	return &loadPair{got: got, want: newSeparator(in), name: name, t: t}
}

// sepEdges lists every edge the separator references, plus the retired ones.
func sepEdges(s *separator, retired []flow.EdgeID[float64]) []flow.EdgeID[float64] {
	out := append(append(append([]flow.EdgeID[float64]{}, retired...), s.srcEdges...), s.slotEdges...)
	for _, ids := range s.jobEdges {
		out = append(out, ids...)
	}
	return out
}

// load runs y through both loaders and requires the same verdict, the same
// residual and reference capacity on every edge, bit for bit, and y[t-1]
// on every live job→slot edge of slot t.
func (p *loadPair) load(y []float64) {
	p.t.Helper()
	p.loads++
	vGot, vWant := p.got.load(y), loadFullScan(p.want, y)
	if vGot != vWant {
		p.t.Fatalf("%s load %d: moved-slot load violated=%v, full scan %v", p.name, p.loads, vGot, vWant)
	}
	eGot, eWant := sepEdges(p.got, p.retGot), sepEdges(p.want, p.retWant)
	if len(eGot) != len(eWant) {
		p.t.Fatalf("%s load %d: %d edges, reference %d", p.name, p.loads, len(eGot), len(eWant))
	}
	for k := range eGot {
		a, b := eGot[k], eWant[k]
		if math.Float64bits(p.got.net.Residual(a)) != math.Float64bits(p.want.net.Residual(b)) ||
			math.Float64bits(p.got.net.Capacity(a)) != math.Float64bits(p.want.net.Capacity(b)) {
			p.t.Fatalf("%s load %d: edge %d has residual %v of capacity %v, full scan %v of %v", p.name, p.loads, k,
				p.got.net.Residual(a), p.got.net.Capacity(a), p.want.net.Residual(b), p.want.net.Capacity(b))
		}
	}
	for i, j := range p.got.in.Jobs {
		for k, t := 0, j.FirstSlot(); t <= j.LastSlot(); k, t = k+1, t+1 {
			if c := p.got.net.Capacity(p.got.jobEdges[i][k]); c != y[t-1] {
				p.t.Fatalf("%s load %d: job %d slot %d has capacity %v, y = %v", p.name, p.loads, j.ID, t, c, y[t-1])
			}
		}
	}
}

// removeJobs removes the masked jobs from both separators and from their
// shared instance, retiring the dead window edges.
func (p *loadPair) removeJobs(in *core.Instance, dead []bool) {
	for i := range dead {
		if dead[i] {
			p.retGot = append(p.retGot, p.got.jobEdges[i]...)
			p.retWant = append(p.retWant, p.want.jobEdges[i]...)
		}
	}
	p.got.removeJobs(dead)
	p.want.removeJobs(dead)
	out := 0
	for i, j := range in.Jobs {
		if !dead[i] {
			in.Jobs[out] = j
			out++
		}
	}
	in.Jobs = in.Jobs[:out]
}

// bendersTrajectory returns the master optimum of every round of the
// default pipeline's cut loop on in (never-purging, adaptive cap).
func bendersTrajectory(t *testing.T, in *core.Instance) [][]float64 {
	prob, err := newMaster(in)
	if err != nil {
		t.Fatal(err)
	}
	steer := newSeparator(in)
	steer.incremental = true
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

// TestLoadIncrementalMatchesFullScan locks the moved-slot loader against
// the full edge scan it replaced. Two separators on the same instance take
// the same loads — Benders y-trajectories, the shrink sequences of
// TestSeparatorIncrementalShrink, and an addSlots/addJob/removeJobs script
// whose new jobs land in slots whose y does not move — and after every
// load every edge must hold the same residual and capacity, bit for bit.
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
		T := int(in.Horizon())
		p := newLoadPair(t, in, "shrink")
		y := make([]float64, T)
		for step := 0; step < 25; step++ {
			switch step % 3 {
			case 0:
				for t2 := range y {
					y[t2] = rng.Float64()
				}
			case 1:
				lo := rng.Intn(T)
				hi := lo + 1 + rng.Intn(T-lo)
				for t2 := lo; t2 < hi; t2++ {
					y[t2] = 0
				}
			case 2:
				for k := 0; k < 3; k++ {
					y[rng.Intn(T)] = rng.Float64()
				}
			}
			p.load(y)
		}
	}

	// Deltas: every added job's window lies in slots whose y the next load
	// leaves where it was, so only addJob's mark gets its edges written.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		in := lpFamilies[int(seed)%len(lpFamilies)].make(seed)
		T := int(in.Horizon())
		p := newLoadPair(t, in, "deltas")
		y := make([]float64, T)
		for t2 := range y {
			y[t2] = 0.25 + 0.75*rng.Float64()
		}
		p.load(y)
		nextID := 1000
		for step := 0; step < 6; step++ {
			// Grow the slot axis; the new slots open at once.
			newT := len(y) + 1 + rng.Intn(3)
			p.got.addSlots(newT)
			p.want.addSlots(newT)
			for len(y) < newT {
				y = append(y, 0.25+0.75*rng.Float64())
			}
			p.load(y)
			// Two arrivals into unmoved slots.
			for a := 0; a < 2; a++ {
				first := 1 + rng.Intn(len(y))
				last := first + rng.Intn(min(4, len(y)-first+1))
				j := core.Job{ID: nextID, Release: core.Time(first - 1), Deadline: core.Time(last), Length: 1}
				nextID++
				in.Jobs = append(in.Jobs, j)
				p.got.addJob(j)
				p.want.addJob(j)
			}
			p.load(y)
			// Move a few slots, then remove a random job or two.
			for k := 0; k < 2; k++ {
				y[rng.Intn(len(y))] = rng.Float64()
			}
			p.load(y)
			dead := make([]bool, len(in.Jobs))
			dead[rng.Intn(len(dead))] = true
			dead[rng.Intn(len(dead))] = true
			p.removeJobs(in, dead)
			p.load(y)
		}
	}
}
