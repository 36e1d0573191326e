package activetime

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
)

// flowValue sums the flow on the separator's source edges — the max-flow
// value after a load.
func (s *separator) flowValue() float64 {
	v := 0.0
	for i := range s.srcEdges {
		v += s.net.Flow(s.srcEdges[i])
	}
	return v
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

// compareSeparators drives one y through a persistent incremental separator
// and a persistent fresh-mode separator and asserts the flow-invariant
// facts: the max-flow value (the min-cut value is unique across maximum
// flows), the global min-cut source set (residual reachability from the
// source is the same for every maximum flow), and that every harvested set
// from either oracle is genuinely violated by y. With strict set it also
// asserts the harvested collections are identical (unordered beyond the
// canonical leading min cut): that holds along real Benders trajectories,
// while adversarial capacity collapses can leave two equally maximal flows
// distributing deficiency across jobs differently, changing which per-job
// violators surface.
func compareSeparators(t *testing.T, inc, fresh *separator, y []float64, cap int, strict bool, where string) {
	t.Helper()
	bInc := inc.separateAll(y, cap)
	bFresh := fresh.separateAll(y, cap)
	vInc, vFresh := inc.flowValue(), fresh.flowValue()
	if math.Abs(vInc-vFresh) > 1e-7 {
		t.Fatalf("%s: incremental max flow %.12f, fresh %.12f", where, vInc, vFresh)
	}
	if (len(bInc) == 0) != (len(bFresh) == 0) {
		t.Fatalf("%s: incremental violated=%v, fresh violated=%v", where, len(bInc) > 0, len(bFresh) > 0)
	}
	if len(bInc) > 0 && jobSetKey(bInc[0]) != jobSetKey(bFresh[0]) {
		t.Fatalf("%s: global min-cut source sets differ", where)
	}
	if strict && !sameJobSets(bInc, bFresh) {
		t.Fatalf("%s: incremental harvested %d sets, fresh %d sets, or sets differ", where, len(bInc), len(bFresh))
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

// TestSeparatorIncrementalEquivalence locks the incremental (flow-reusing)
// separation oracle against the fresh-per-round reference on every
// generator family: driven through the actual Benders y-trajectory of the
// default pipeline — re-played against both oracles round by round — the
// two must report identical min-cut values and identical violated-cut sets,
// including across rounds where slot capacities shrink and the incremental
// repair path has to cancel routed flow.
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
			prob, err := newMaster(in)
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			inc := newSeparator(in)
			inc.incremental = true
			fresh := newSeparator(in)
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
				compareSeparators(t, inc, fresh, y, cap, true, fam.name)
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

// TestSeparatorIncrementalShrink targets the repair path directly: random
// y sequences that repeatedly collapse slots to zero force flow already
// routed through them to be cancelled, the case a monotone Benders
// trajectory rarely exercises hard.
func TestSeparatorIncrementalShrink(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := lpFamilies[int(seed)%len(lpFamilies)].make(seed)
		T := int(in.Horizon())
		inc := newSeparator(in)
		inc.incremental = true
		fresh := newSeparator(in)
		y := make([]float64, T)
		for step := 0; step < 25; step++ {
			switch step % 3 {
			case 0: // fresh random point
				for t2 := range y {
					y[t2] = rng.Float64()
				}
			case 1: // collapse a random window to zero (forces cancellation)
				lo := rng.Intn(T)
				hi := lo + 1 + rng.Intn(T-lo)
				for t2 := lo; t2 < hi; t2++ {
					y[t2] = 0
				}
			case 2: // perturb a few slots
				for k := 0; k < 3; k++ {
					y[rng.Intn(T)] = rng.Float64()
				}
			}
			compareSeparators(t, inc, fresh, y, maxBatchCuts, false, "shrink")
		}
	}
}

// TestSeparatorParallelWalkEquivalence locks the goroutine fan-out of the
// per-deficient-job residual walks: two persistent incremental separators
// driven through identical y sequences — one with the walks pinned serial —
// must harvest positionally identical batches. Equality is exact, not
// merely unordered: the parallel path precomputes the walks and replays
// them through the covered filter in the serial loop's order, so
// parallelism is required to be invisible in the output.
func TestSeparatorParallelWalkEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		in := lpFamilies[int(seed)%len(lpFamilies)].make(seed)
		T := int(in.Horizon())
		par := newSeparator(in)
		par.incremental = true
		ser := newSeparator(in)
		ser.incremental = true
		ser.serialWalks = true
		y := make([]float64, T)
		for step := 0; step < 20; step++ {
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
			bPar := par.separateAll(y, maxBatchCuts)
			bSer := ser.separateAll(y, maxBatchCuts)
			if len(bPar) != len(bSer) {
				t.Fatalf("seed %d step %d: parallel harvested %d sets, serial %d",
					seed, step, len(bPar), len(bSer))
			}
			for k := range bPar {
				if jobSetKey(bPar[k]) != jobSetKey(bSer[k]) {
					t.Fatalf("seed %d step %d: set %d differs between parallel and serial walks",
						seed, step, k)
				}
			}
		}
	}
}

// FuzzSeparation fuzzes the incremental separation oracle against the
// fresh-per-load reference: any decodable instance plus any seed-derived
// sequence of y vectors must yield identical max-flow values, identical
// global min-cut source sets, and only genuinely violated harvested sets
// from a flow-reusing separator and a from-scratch one, at every step of
// the sequence (the per-job violator collections themselves are
// flow-dependent on adversarial sequences; see compareSeparators).
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
		T := int(in.Horizon())
		inc := newSeparator(in)
		inc.incremental = true
		fresh := newSeparator(in)
		y := make([]float64, T)
		for step := 0; step < 8; step++ {
			for t2 := range y {
				switch rng.Intn(4) {
				case 0:
					y[t2] = 0
				case 1:
					y[t2] = 1
				default:
					y[t2] = rng.Float64()
				}
			}
			compareSeparators(t, inc, fresh, y, maxBatchCuts, false, "fuzz")
		}
	})
}
