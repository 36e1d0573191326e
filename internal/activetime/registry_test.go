package activetime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lp"
)

// TestCutPurgingMatchesReferences locks the lifecycle management end to end
// on the scaling family: the default pipeline (adaptive cap + purging) must
// agree to 1e-6 on every seed with a never-purging reference — one cut per
// round at T ∈ {512, 1024}, 32 per round at T = 2048, where a single-cut
// reference needs over a thousand rounds — and purging must actually fire
// on this workload, since a policy that never triggers would vacuously
// "pass". Under in-out separation the T ≤ 1024 solves purge nothing, so
// the T = 2048 leg is the one that exercises the purge.
func TestCutPurgingMatchesReferences(t *testing.T) {
	totalPurged := 0
	check := func(T int, seed int64, refName string, refOpts lpOptions) {
		t.Helper()
		in := gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: seed})
		def, err := SolveLP(in)
		if err != nil {
			t.Fatalf("T=%d seed=%d: SolveLP: %v", T, seed, err)
		}
		ref, err := solveLP(in, refOpts)
		if err != nil {
			t.Fatalf("T=%d seed=%d: %s solveLP: %v", T, seed, refName, err)
		}
		if math.Abs(def.Objective-ref.Objective) > 1e-6 {
			t.Errorf("T=%d seed=%d: purged pipeline LP %.9f != %s %.9f",
				T, seed, def.Objective, refName, ref.Objective)
		}
		if ref.Purged != 0 {
			t.Errorf("T=%d seed=%d: %s reference purged %d cuts; must never purge",
				T, seed, refName, ref.Purged)
		}
		totalPurged += def.Purged
	}
	for _, T := range []int{512, 1024} {
		for seed := int64(0); seed < 3; seed++ {
			check(T, seed, "single-cut", lpOptions{batchCap: 1})
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		check(2048, seed, "fixed-32", lpOptions{batchCap: 32})
	}
	if totalPurged == 0 {
		t.Error("cut purging never fired across the scaling workload; lifecycle policy is dead code")
	}
}

// TestAdaptiveBatchCapPolicy pins the horizon→cap curve the benchmarks
// justify: single-cut at tiny horizons, the classic full batch of 32 by
// T = 4096, the huge-horizon tier of 64 from T = 8192 up, where round
// count itself is the scaling axis, and the giant tier of 128 from
// T = 32768 where the hypersparse kernels leave per-round fixed costs
// dominant. T <= 16384 must keep the exact caps every locked experiment
// trajectory was measured under.
func TestAdaptiveBatchCapPolicy(t *testing.T) {
	for _, tc := range []struct{ T, want int }{
		{16, 1}, {64, 1}, {128, 1}, {256, 2}, {512, 4},
		{1024, 8}, {2048, 16}, {4096, 32}, {8192, 64}, {16384, 64},
		{32768, 128}, {65536, 128},
	} {
		in := &core.Instance{G: 1, Jobs: []core.Job{{
			Release: 0, Deadline: core.Time(tc.T), Length: 1,
		}}}
		if got := adaptiveBatchCap(in); got != tc.want {
			t.Errorf("adaptiveBatchCap(T=%d) = %d, want %d", tc.T, got, tc.want)
		}
	}
}

// setOf builds a job-set mask over n positions from the listed indices.
func setOf(n int, idx ...int) []bool {
	A := make([]bool, n)
	for _, i := range idx {
		A[i] = true
	}
	return A
}

// BenchmarkSolveLPSmall pins the small-horizon regression the adaptive
// batch cap exists to recover: at T ∈ {128, 256, 512} the full 32-cut
// batches of the large-horizon policy pad the master without saving
// meaningful rounds, so the adaptive cap (SolveLP) must track the better
// of the never-purging fixed-32 batch and single-cut references. These
// numbers, not prose, are what hold the adaptiveBatchCap policy in place.
func BenchmarkSolveLPSmall(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts lpOptions
	}{
		{"adaptive", lpOptions{purge: true}},
		{"batched32", lpOptions{batchCap: 32}},
		{"single-cut", lpOptions{batchCap: 1}},
	} {
		for _, T := range []int{128, 256, 512} {
			b.Run(fmt.Sprintf("%s/T=%d", bc.name, T), func(b *testing.B) {
				in := gen.LargeHorizon(gen.RandomConfig{
					N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: 3,
				})
				b.ReportAllocs()
				b.ResetTimer()
				var res *LPResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = solveLP(in, bc.opts)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Rounds), "rounds")
			})
		}
	}
}

// TestRegistryPinsRepurgedCuts checks the termination guard: a cut key
// purged once and re-added is never purged again.
func TestRegistryPinsRepurgedCuts(t *testing.T) {
	reg := newCutRegistry(0)
	n := purgeMinCuts + 2
	pinned := setOf(n, 0)
	reg.add(pinned)
	rec := reg.lookup(pinned)
	if rec == nil {
		t.Fatal("added cut not found by lookup")
	}
	rec.everPurged = true // as if it had been purged and re-added
	rec.slackRounds = purgeAfterRounds + 5
	for i := 1; i <= purgeMinCuts; i++ { // clear the small-master floor
		reg.add(setOf(n, i))
	}
	if n := reg.purge(nil, nil); n != 0 {
		t.Fatalf("pinned cut purged (%d rows removed)", n)
	}
	if !rec.inMaster {
		t.Fatal("pinned cut lost its master row")
	}
}

// refKey is the reference dedup key the registry's hash+witness scheme must
// agree with: the packed bitmask with trailing zero bytes stripped, so the
// same position set keys identically at every universe size (the property
// the canonical hash preserves across session AddJobs growth).
func refKey(A []bool) string {
	b := []byte(jobSetKey(A))
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return string(b)
}

// TestRegistryKeyEquivalence locks the hash-key rework against the string
// reference: over randomized add/lookup sequences — including re-queries of
// the same set at a grown universe size — the registry's inMaster answers
// must match a reference map keyed by the canonical packed string.
func TestRegistryKeyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		reg := newCutRegistry(0)
		ref := make(map[string]bool)
		n := 1 + rng.Intn(40)
		for step := 0; step < 60; step++ {
			if rng.Intn(12) == 0 {
				n += rng.Intn(8) // the universe grows, as under Session.AddJobs
			}
			A := make([]bool, n)
			for i := range A {
				A[i] = rng.Intn(3) == 0
			}
			if got, want := reg.inMaster(A), ref[refKey(A)]; got != want {
				t.Fatalf("trial %d step %d: inMaster = %v, reference %v (set %v)", trial, step, got, want, A)
			}
			if !ref[refKey(A)] && rng.Intn(2) == 0 {
				reg.add(A)
				ref[refKey(A)] = true
			}
		}
	}
}

// TestRegistryHashCollisions forces every job set onto one hash bucket and
// checks the stored-witness compare still separates distinct sets exactly —
// the collision path a 64-bit key makes astronomically rare in production
// but which correctness must not depend on.
func TestRegistryHashCollisions(t *testing.T) {
	reg := newCutRegistry(0)
	reg.hashFn = func([]bool) uint64 { return 42 }
	sets := [][]bool{
		setOf(9, 0),
		setOf(9, 1),
		setOf(9, 0, 1),
		setOf(9, 8),
		setOf(9, 0, 8),
	}
	for i, A := range sets {
		for j, B := range sets[:i] {
			_ = j
			if !reg.inMaster(B) {
				t.Fatalf("set %d lost after later adds", j)
			}
		}
		if reg.inMaster(A) {
			t.Fatalf("set %d reported present before add", i)
		}
		reg.add(A)
		if !reg.inMaster(A) {
			t.Fatalf("set %d not found after add", i)
		}
	}
	if len(reg.byHash) != 1 {
		t.Fatalf("expected one collision bucket, got %d", len(reg.byHash))
	}
	if got := len(reg.byHash[42]); got != len(sets) {
		t.Fatalf("bucket holds %d records, want %d", got, len(sets))
	}
	// A grown-universe re-query of an existing set still matches its witness.
	grown := make([]bool, 40)
	grown[0] = true
	if !reg.inMaster(grown) {
		t.Fatal("canonical witness did not match the same set at a larger universe")
	}
}

// TestRegistryRemapJobs locks the session-compaction path: after jobs are
// removed and positions shift, records touching removed jobs vanish and
// surviving records answer under their remapped position sets.
func TestRegistryRemapJobs(t *testing.T) {
	reg := newCutRegistry(4) // seed rows for jobs 0..3
	reg.add(setOf(4, 0, 2))
	reg.add(setOf(4, 1, 3))
	reg.add(setOf(4, 3))
	// Remove job 1 (position 1): its seed row (row 1) and the cut {1,3}
	// (row 5) leave the master.
	dead := make([]bool, len(reg.rows))
	dead[1] = true
	dead[5] = true
	reg.dropRows(dead)
	posMap := []int32{0, -1, 1, 2}
	reg.remapJobs(posMap, 3)
	if !reg.inMaster(setOf(3, 0, 1)) { // was {0,2}
		t.Error("surviving cut {0,2} lost under remap")
	}
	if !reg.inMaster(setOf(3, 2)) { // was {3}
		t.Error("surviving cut {3} lost under remap")
	}
	if reg.lookup(setOf(3, 0, 2)) != nil && reg.lookup(setOf(3, 0, 2)).inMaster {
		t.Error("cut touching the removed job still reports in-master")
	}
	// Seed rows: jobs 0,2,3 survive at positions 0,1,2; rows are seed(0),
	// seed(2), seed(3), cut, cut after the drop+remap.
	wantJobs := []int32{0, 1, 2}
	seeds := 0
	for _, rr := range reg.rows {
		if rr.rec == nil {
			if rr.job != wantJobs[seeds] {
				t.Errorf("seed row %d maps to job %d, want %d", seeds, rr.job, wantJobs[seeds])
			}
			seeds++
		}
	}
	if seeds != 3 {
		t.Errorf("%d seed rows survive, want 3", seeds)
	}
}

// TestRowSlackMatchesCutLoop keeps observeX's purge decisions unchanged now
// that a cut's row lives only in the master: lp.Problem.RowSlack on a
// cutFor row must equal, bit for bit, the loop the registry ran over its
// own copy of the row (−rhs, then += vals[k]·x[c] in cutFor's order).
func TestRowSlackMatchesCutLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for seed := int64(0); seed < 4; seed++ {
		in := gen.LargeHorizon(gen.RandomConfig{N: 32, Horizon: 256, MaxLen: 16, G: 4, Seed: seed})
		sep := newSeparator(in)
		prob := lp.NewProblem(len(sep.ivals))
		x := make([]float64, len(sep.ivals))
		for cut := 0; cut < 40; cut++ {
			A := make([]bool, len(in.Jobs))
			A[rng.Intn(len(A))] = true
			for i := range A {
				if rng.Intn(4) == 0 {
					A[i] = true
				}
			}
			cols, vals, rhs := sep.cutFor(A)
			if err := prob.AddSparse(cols, vals, lp.GE, rhs); err != nil {
				t.Fatal(err)
			}
			for k := range x {
				switch rng.Intn(3) {
				case 0:
					x[k] = 0
				case 1:
					x[k] = 1
				default:
					x[k] = rng.Float64()
				}
			}
			want := -rhs
			for k, c := range cols {
				want += vals[k] * x[c]
			}
			got := prob.RowSlack(prob.NumConstraints()-1, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d cut %d: RowSlack = %v, the cut loop gives %v", seed, cut, got, want)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d rows checked", checked)
	}
}
