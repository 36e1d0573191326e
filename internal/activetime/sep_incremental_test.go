package activetime

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lp"
)

// flowValue sums the flow on the separator's source edges — the max-flow
// value after a load.
func (s *separator) flowValue() float64 {
	v := 0.0
	for _, id := range s.supply {
		v += s.net.Flow(id)
	}
	return v
}

// minCutJobs returns the jobs on the source side of the separator's global
// minimum cut after a load.
func (s *separator) minCutJobs() []bool {
	side := s.net.MinCutSource(s.src)
	A := make([]bool, len(s.in.Jobs))
	for i := range A {
		A[i] = side[1+i]
	}
	return A
}

// cutValue is the capacity at the master point Y of the cut whose source
// side holds the jobs of A: Σ_{j∉A} p_j + Σ_I min(g, cov_A(I))·Y_I, which
// is the per-slot network's Σ_{j∉A} p_j + Σ_t min(g, cov_A(t))·y_t for any
// y that sums to Y_I over each atom.
func cutValue(s *separator, Y []float64, A []bool) float64 {
	cols, vals, rhs := s.cutFor(A)
	v := s.total - rhs
	for k, c := range cols {
		v += vals[k] * Y[c]
	}
	return v
}

// checkPerSlot holds a separator's last load, at the master point Y, to the
// per-slot network (perSlotSeparation) at Y spread over the slots
// (slotValues): the same max-flow value within 1e-7 and, with exact set,
// the same global min-cut job set. Without exact, job sets that differ must
// each cut within 1e-7 of the max flow: where two cuts lie within float
// noise of each other, the two networks' roundings may settle on either.
// It reports whether the sets matched.
func checkPerSlot(t *testing.T, s *separator, Y []float64, exact bool, where string) bool {
	t.Helper()
	value, A := perSlotSeparation(s.in, s.slotValues(Y)[1:])
	got, B := s.flowValue(), s.minCutJobs()
	if math.Abs(got-value) > 1e-7 {
		t.Fatalf("%s: interval max flow %.12f, per-slot %.12f", where, got, value)
	}
	if jobSetKey(A) == jobSetKey(B) {
		return true
	}
	if exact {
		t.Fatalf("%s: interval min-cut jobs %v, per-slot %v", where, B, A)
	}
	for _, C := range [][]bool{A, B} {
		if c := cutValue(s, Y, C); math.Abs(c-value) > 1e-7 {
			t.Fatalf("%s: min-cut job sets differ, and one cuts %.12f against a max flow of %.12f", where, c, value)
		}
	}
	return false
}

// jobSetKey packs a job subset into a comparable string: the bitmask over
// every position of A, so sets over different job counts never compare
// equal.
func jobSetKey(A []bool) string {
	b := make([]byte, (len(A)+7)/8)
	for i, a := range A {
		if a {
			b[i/8] |= 1 << (i % 8)
		}
	}
	return string(b)
}

// sameJobSets reports whether two harvested batches are equivalent: the
// leading entry — the source side of the minimum cut, which is canonical
// (residual reachability from the source is the same for every maximum
// flow) — must match positionally, and the per-deficient-job violators must
// match as an unordered collection. Their order is legitimately
// flow-dependent: the deficiency-gap sort keys on how the particular
// maximum flow distributed shortfall among jobs, and two equally maximal
// flows may tie-break it differently.
func sameJobSets(a, b [][]bool) bool {
	if len(a) != len(b) || len(a) == 0 {
		return len(a) == len(b)
	}
	keys := func(sets [][]bool) []string {
		out := make([]string, len(sets))
		for i, s := range sets {
			out[i] = jobSetKey(s)
		}
		return out
	}
	ka, kb := keys(a), keys(b)
	if ka[0] != kb[0] {
		return false
	}
	sort.Strings(ka[1:])
	sort.Strings(kb[1:])
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// compareSeparators drives one master point y (one value per atom column)
// through a persistent separator, which carries its flow from load to
// load, and through a newly built one, whose load solves from zero, and
// asserts the flow-invariant facts: the max-flow
// value (the min-cut value is unique across maximum flows), the global
// min-cut source set (residual reachability from the source is the same for
// every maximum flow), and that every harvested set from either oracle is
// genuinely violated by y. With strict set it also asserts the harvested
// collections are identical (unordered beyond the canonical leading min
// cut): that holds along real Benders trajectories, while adversarial
// capacity collapses can leave two equally maximal flows distributing
// deficiency across jobs differently, changing which per-job violators
// surface.
func compareSeparators(t *testing.T, inc *separator, y []float64, cap int, strict bool, where string) {
	t.Helper()
	fresh := newSeparator(inc.in)
	bInc := inc.separateAll(y, cap)
	bFresh := fresh.separateAll(y, cap)
	vInc, vFresh := inc.flowValue(), fresh.flowValue()
	if math.Abs(vInc-vFresh) > 1e-7 {
		t.Fatalf("%s: carried max flow %.12f, fresh %.12f", where, vInc, vFresh)
	}
	if (len(bInc) == 0) != (len(bFresh) == 0) {
		t.Fatalf("%s: carried violated=%v, fresh violated=%v", where, len(bInc) > 0, len(bFresh) > 0)
	}
	if len(bInc) > 0 && jobSetKey(bInc[0]) != jobSetKey(bFresh[0]) {
		t.Fatalf("%s: global min-cut source sets differ", where)
	}
	if strict && !sameJobSets(bInc, bFresh) {
		t.Fatalf("%s: carried harvested %d sets, fresh %d sets, or sets differ", where, len(bInc), len(bFresh))
	}
	// Every harvested set must be genuinely violated by this y: the cut
	// inequality Σ_t min(g, cov_A(t))·y_t >= Σ_{j∈A} p_j must fail.
	for k, A := range append(append([][]bool{}, bInc...), bFresh...) {
		cols, vals, rhs := inc.cutFor(A)
		lhs := 0.0
		for i, c := range cols {
			lhs += vals[i] * y[c]
		}
		if lhs >= rhs-1e-9 {
			t.Fatalf("%s: harvested set %d not violated (lhs %.9f rhs %.9f)", where, k, lhs, rhs)
		}
	}
}

// TestSeparatorIncrementalEquivalence locks the flow-carrying separation
// oracle against a from-zero solve on a newly built separator, on every
// generator family: driven through the actual Benders y-trajectory of the
// default pipeline, round by round, the two must report identical min-cut
// values and identical violated-cut sets, including across rounds where
// slot capacities shrink and the carried flow has to be cancelled. A third
// separator takes the same points through loadFullScan, whose solves list
// every supply arc: the oracle's short-list continuation must leave every
// arc as it does, bit for bit. The per-slot network the separator replaced
// must reach the same max-flow value and the same global min-cut job set
// at every round.
func TestSeparatorIncrementalEquivalence(t *testing.T) {
	const seedsPerFamily = 20
	rounds := 0
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			if !CheckFeasible(in, AllSlots(in)) {
				continue
			}
			// Re-run the default pipeline's master loop, but drive two
			// persistent separators with every round's optimum (the
			// incremental one steers the master, exactly like SolveLP).
			inc, full := newSeparator(in), newSeparator(in)
			prob, err := newMaster(inc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			reg := newCutRegistry(prob.NumConstraints())
			var basis *lp.Basis
			cap := adaptiveBatchCap(in)
			for round := 0; round < 200; round++ {
				sol, nb, err := prob.ResolveFrom(basis)
				if err != nil || sol.Status != lp.Optimal {
					t.Fatalf("%s seed %d round %d: %v %v", fam.name, seed, round, err, sol)
				}
				basis = nb
				y := sol.X
				compareSeparators(t, inc, y, cap, true, fam.name)
				loadFullScan(full, y)
				sameSepArcs(t, fmt.Sprintf("%s seed %d round %d", fam.name, seed, round), inc, full)
				checkPerSlot(t, inc, y, true, fam.name)
				rounds++
				added := 0
				for _, A := range inc.separateAll(y, cap) {
					if reg.inMaster(A) {
						continue
					}
					cols, vals, rhs := inc.cutFor(A)
					if err := prob.AddSparse(cols, vals, lp.GE, rhs); err != nil {
						t.Fatal(err)
					}
					reg.add(A)
					added++
				}
				if added == 0 {
					break
				}
			}
		}
	}
	if rounds < 120 {
		t.Fatalf("only %d separation rounds compared; want >= 120 (generator drift?)", rounds)
	}
}

// shrinkStep moves the master point Y, one value per atom of s, one step
// along a shrink sequence: every third step draws each atom afresh in
// [0, |I|], the next collapses a random run of atoms to zero, which forces
// flow already routed through them to be cancelled, and the next redraws
// three atoms.
func shrinkStep(rng *rand.Rand, s *separator, Y []float64, step int) {
	n := len(s.ivals)
	draw := func(k int) {
		iv := s.ivals[k]
		Y[iv.col] = rng.Float64() * float64(iv.hi-iv.lo+1)
	}
	switch step % 3 {
	case 0:
		for k := range s.ivals {
			draw(k)
		}
	case 1:
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		for k := lo; k < hi; k++ {
			Y[s.ivals[k].col] = 0
		}
	case 2:
		for i := 0; i < 3; i++ {
			draw(rng.Intn(n))
		}
	}
}

// TestSeparatorIncrementalShrink targets the repair path directly: random
// master points that repeatedly collapse atoms to zero force flow already
// routed through them to be cancelled, the case a monotone Benders
// trajectory rarely exercises hard.
func TestSeparatorIncrementalShrink(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := lpFamilies[int(seed)%len(lpFamilies)].make(seed)
		inc := newSeparator(in)
		Y := make([]float64, len(inc.ivals))
		for step := 0; step < 25; step++ {
			shrinkStep(rng, inc, Y, step)
			compareSeparators(t, inc, Y, maxBatchCuts, false, "shrink")
		}
	}
}

// FuzzSeparation fuzzes the flow-carrying separation oracle against a
// from-zero solve on a newly built separator at every load: any decodable
// instance plus any seed-derived sequence of master points must yield
// identical max-flow values, identical global min-cut source sets, and only
// genuinely violated harvested sets, at every step of the sequence (the
// per-job violator collections themselves are flow-dependent on
// adversarial sequences; see compareSeparators). The per-slot network at
// the point spread over the slots must reach the same max-flow value, and
// the same min-cut job set or another cut of the same value
// (checkPerSlot).
func FuzzSeparation(f *testing.F) {
	f.Add([]byte(`{"g":2,"jobs":[{"id":0,"release":0,"deadline":4,"length":2}]}`), int64(1))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":2,"length":2},{"id":1,"release":1,"deadline":3,"length":1}]}`), int64(7))
	f.Add([]byte(`{"g":3,"jobs":[{"id":0,"release":0,"deadline":6,"length":1},{"id":1,"release":2,"deadline":5,"length":3},{"id":2,"release":1,"deadline":4,"length":2}]}`), int64(42))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":1,"length":1},{"id":1,"release":0,"deadline":1,"length":1}]}`), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		in, err := core.ReadInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(in.Jobs) > 8 || in.Horizon() > 24 || in.G > 8 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		inc := newSeparator(in)
		Y := make([]float64, len(inc.ivals))
		for step := 0; step < 8; step++ {
			for _, iv := range inc.ivals {
				switch size := float64(iv.hi - iv.lo + 1); rng.Intn(4) {
				case 0:
					Y[iv.col] = 0
				case 1:
					Y[iv.col] = size
				default:
					Y[iv.col] = rng.Float64() * size
				}
			}
			compareSeparators(t, inc, Y, maxBatchCuts, false, "fuzz")
			checkPerSlot(t, inc, Y, false, "fuzz")
		}
	})
}

// TestSeparatorMatchesPerSlot holds the interval separator to the per-slot
// network at points where float arithmetic is exact: every Y_I a multiple
// of 1/16, so every capacity and routed flow is a short dyadic fraction,
// and so is every slot of the point spread over the slots. On all eight
// session families, a separator that carries its flow from point to point
// and a new one must each reach the per-slot max-flow value and global
// min-cut job set at every point.
func TestSeparatorMatchesPerSlot(t *testing.T) {
	points, violated := 0, 0
	for _, fam := range sessionFamilies {
		for seed := int64(0); seed < 10; seed++ {
			in := fam.make(seed)
			rng := rand.New(rand.NewSource(seed))
			inc := newSeparator(in)
			Y := make([]float64, len(inc.ivals))
			for step := 0; step < 12; step++ {
				// Raise the floor of the draw step by step, so the points
				// run from mostly infeasible to mostly feasible.
				for _, iv := range inc.ivals {
					Y[iv.col] = float64(iv.hi-iv.lo+1) * float64(16-rng.Intn(17-step)) / 16
				}
				where := fmt.Sprintf("%s seed %d step %d", fam.name, seed, step)
				if inc.load(Y) {
					violated++
				}
				checkPerSlot(t, inc, Y, true, where+", carried flow")
				fresh := newSeparator(in)
				fresh.load(Y)
				checkPerSlot(t, fresh, Y, true, where+", new separator")
				points++
			}
		}
	}
	t.Logf("%d points, %d of them infeasible", points, violated)
	if violated == 0 || violated == points {
		t.Fatalf("%d of %d points infeasible; want both kinds", violated, points)
	}
}

// BenchmarkSeparatorLoads times the separation layer on its own: every
// point that one SolveLP of the end-to-end benchmark's first input
// (gen.LargeHorizon at T = 2048, n = 256, g = 4, seed 1000) separates at,
// captured through sepHook, replayed in order through one new separator
// per op. An op thus pays the build and, at each point, the load's
// re-capacitation, the carried max flow and the harvest walks, as the
// solve did; the master's pivots are not in it.
func BenchmarkSeparatorLoads(b *testing.B) {
	in := gen.LargeHorizon(gen.RandomConfig{N: 256, Horizon: 2048, MaxLen: 16, G: 4, Seed: 1000})
	var points [][]float64
	record := func(_, at, _ []float64, _ [][]bool) { points = append(points, append([]float64(nil), at...)) }
	if _, err := solveLP(in, lpOptions{purge: true, sepHook: record}); err != nil {
		b.Fatal(err)
	}
	cap := adaptiveBatchCap(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sep := newSeparator(in)
		for _, y := range points {
			sep.separateAll(y, cap)
		}
	}
	b.ReportMetric(float64(len(points)), "loads/op")
}
